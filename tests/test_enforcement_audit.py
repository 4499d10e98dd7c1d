"""Unit tests for the audit log."""

import pytest

from repro.core.enforcement.audit import AuditLog, AuditRecord
from repro.core.language.vocabulary import GranularityLevel
from repro.core.policy.base import DecisionPhase, Effect


def record(
    subject="mary",
    requester="svc",
    effect=Effect.ALLOW,
    granularity=GranularityLevel.PRECISE,
    notify=False,
    phase=DecisionPhase.SHARING,
    timestamp=0.0,
):
    return AuditRecord(
        timestamp=timestamp,
        requester_id=requester,
        phase=phase,
        category="location",
        subject_id=subject,
        space_id="r1",
        effect=effect,
        granularity=granularity,
        reasons=("r",),
        notify_user=notify,
    )


class TestAppend:
    def test_append_and_len(self):
        log = AuditLog()
        log.append(record())
        assert len(log) == 1

    def test_keeps_every_record_in_order(self):
        log = AuditLog()
        appended = [record(timestamp=float(i)) for i in range(5)]
        for entry in appended:
            log.append(entry)
        assert list(log) == appended
        assert log.summary()["dropped"] == 0


class TestQueries:
    @pytest.fixture
    def log(self):
        log = AuditLog()
        log.append(record(subject="mary", effect=Effect.ALLOW))
        log.append(record(subject="mary", effect=Effect.DENY))
        log.append(record(subject="bob", effect=Effect.ALLOW, notify=True))
        log.append(record(subject="bob", requester="other", phase=DecisionPhase.CAPTURE))
        return log

    def test_filter_by_subject(self, log):
        assert len(log.records(subject_id="mary")) == 2

    def test_filter_by_requester(self, log):
        assert len(log.records(requester_id="other")) == 1

    def test_filter_by_phase(self, log):
        assert len(log.records(phase=DecisionPhase.CAPTURE)) == 1

    def test_combined_filters(self, log):
        assert len(log.records(subject_id="bob", requester_id="svc")) == 1

    def test_denials(self, log):
        denials = log.denials()
        assert len(denials) == 1
        assert denials[0].subject_id == "mary"

    def test_predicate(self, log):
        matches = log.records(predicate=lambda r: r.phase is DecisionPhase.SHARING)
        assert len(matches) == 3


class TestSummary:
    def test_counts(self):
        log = AuditLog()
        log.append(record(effect=Effect.ALLOW))
        log.append(record(effect=Effect.ALLOW, granularity=GranularityLevel.COARSE))
        log.append(record(effect=Effect.DENY, granularity=GranularityLevel.NONE))
        log.append(record(notify=True))
        summary = log.summary()
        assert summary["total"] == 4
        assert summary["allow"] == 3
        assert summary["deny"] == 1
        assert summary["degraded"] == 1
        assert summary["notify"] == 1
