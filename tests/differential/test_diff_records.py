"""Differential and fuzz tests of the WAL record codec.

``audit`` and ``obs`` records are written straight from their typed
objects (:func:`repro.storage.records.encode_audit` /
:func:`~repro.storage.records.encode_observation`); the reference is
``encode_record(type, to_dict(obj))``, the generic path every other
record type takes, whose bytes must be the canonical array
``[type, *fields in FIELDS order]``.  On every input:

- a well-typed object (finite ``float`` timestamp, ``str`` fields,
  JSON-encodable payload) must be written by the template itself, byte
  for byte as the reference writes its dict;
- any other object must make the template refuse it, and
  the encoder must then behave exactly like the reference: the
  same bytes, or the same exception (a :class:`StorageError` for a
  non-finite float).

The decoder is fuzzed: on arbitrary bytes and arbitrary JSON values
(non-arrays, any arity, non-string or unhashable types, non-dict cold
data, the keyed ``{"t","d"}`` form of earlier stores) it returns a
``(str, dict)`` record or raises :class:`StorageError`, nothing else.
Every type round-trips both ways, as a serializer should:
``decode(encode(t, d)) == (t, d)``, and a canonical payload that
decodes re-encodes to the same bytes.

WAL frames are checked against the reference framing,
``crc32(prefix + payload)``.

The example counts come from the profiles in ``conftest.py``; the
``@example``s pin one input per fallback and per malformed shape.
"""

from __future__ import annotations

import json
import math
import struct
import zlib
from typing import Any, Callable, Dict, Union

import pytest
from hypothesis import example, given, strategies as st

from repro.core.enforcement.audit import AuditRecord, audit_record_to_dict
from repro.core.language.vocabulary import GranularityLevel
from repro.core.policy.base import DecisionPhase, Effect
from repro.errors import StorageError
from repro.sensors.base import Observation
from repro.storage import records
from repro.storage.wal import decode_frame, encode_frame

Outcome = Union[bytes, tuple]

#: Characters JSON must escape or that ``ensure_ascii`` rewrites.
AWKWARD = '"\\/\x00\x01\x1f\x7f\n\r\t\b\f é \ud800\U0001f600'

texts = st.text(
    st.one_of(st.sampled_from(AWKWARD), st.characters(blacklist_categories=())),
    max_size=12,
)
optional_texts = st.none() | texts
timestamps = st.one_of(
    st.floats(),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.sampled_from([0.0, -0.0, 1e300, -1e300, 5e-324, 43200.5]),
)
json_leaves = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), texts
)
json_values = st.recursive(
    json_leaves,
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(texts, children, max_size=3),
    max_leaves=8,
)

audit_records = st.builds(
    AuditRecord,
    timestamp=timestamps,
    requester_id=texts,
    phase=st.sampled_from(list(DecisionPhase)),
    category=texts,
    subject_id=optional_texts,
    space_id=optional_texts,
    effect=st.sampled_from(list(Effect)),
    granularity=st.sampled_from(list(GranularityLevel)),
    reasons=st.lists(texts, max_size=4).map(tuple),
    notify_user=st.booleans(),
)
observations = st.builds(
    Observation,
    observation_id=st.integers(),
    sensor_id=texts,
    sensor_type=texts,
    timestamp=timestamps,
    space_id=optional_texts,
    payload=st.dictionaries(texts, json_values, max_size=4),
    subject_id=optional_texts,
    granularity=texts,
)


def _outcome(encode: Callable[[], bytes]) -> Outcome:
    try:
        return encode()
    except Exception as exc:  # the reference's error is part of the contract
        return (type(exc), str(exc))


def _finite_float(value: Any) -> bool:
    return type(value) is float and math.isfinite(value)


def _strs(*values: Any) -> bool:
    return all(isinstance(value, str) for value in values)


def _optional_strs(*values: Any) -> bool:
    return all(value is None or isinstance(value, str) for value in values)


def audit_well_typed(record: AuditRecord) -> bool:
    return (
        _finite_float(record.timestamp)
        and _strs(record.requester_id, record.category)
        and _optional_strs(record.subject_id, record.space_id)
        and type(record.reasons) is tuple
        and _strs(*record.reasons)
        and type(record.notify_user) is bool
        and isinstance(record.phase, DecisionPhase)
        and isinstance(record.effect, Effect)
        and isinstance(record.granularity, GranularityLevel)
    )


def observation_well_typed(observation: Observation) -> bool:
    return (
        _finite_float(observation.timestamp)
        and type(observation.observation_id) is int
        and type(observation.payload) is dict
        and _strs(observation.sensor_id, observation.sensor_type, observation.granularity)
        and _optional_strs(observation.space_id, observation.subject_id)
    )


def assert_same_bytes(
    record_type: str,
    record: Any,
    to_dict: Callable[[Any], Dict[str, Any]],
    encode: Callable[[Any], bytes],
    template: Callable[[Any], bytes],
    well_typed: bool,
) -> Outcome:
    """``encode`` and its template agree with the reference on ``record``."""
    expected = _outcome(lambda: records.encode_record(record_type, to_dict(record)))
    assert _outcome(lambda: encode(record)) == expected
    if isinstance(expected, bytes):
        data = to_dict(record)
        assert json.loads(expected) == [record_type] + [
            data[name] for name in records.FIELDS[record_type]
        ]
    if well_typed and isinstance(expected, bytes):
        assert template(record) == expected
    else:
        with pytest.raises((TypeError, ValueError, KeyError)):
            template(record)
    return expected


def _audit(**changes: Any) -> AuditRecord:
    base = AuditRecord(
        timestamp=43200.0,
        requester_id="svc",
        phase=DecisionPhase.SHARING,
        category="location",
        subject_id="mary",
        space_id="r1",
        effect=Effect.ALLOW,
        granularity=GranularityLevel.PRECISE,
        reasons=("policy:p1",),
        notify_user=False,
    )
    return base._replace(**changes)


def _observation(**changes: Any) -> Observation:
    fields = dict(
        observation_id=7,
        sensor_id="wifi-1",
        sensor_type="wifi_access_point",
        timestamp=43200.0,
        space_id="r1",
        payload={"mac": "aa:bb", "rssi": -61.5},
        subject_id="mary",
        granularity="precise",
    )
    fields.update(changes)
    return Observation(**fields)


@given(audit_records)
@example(_audit(subject_id=None, space_id=None, reasons=()))
@example(_audit(reasons=("a", 'q"uote\\', "\x00ctl", "é "), notify_user=True))
@example(_audit(timestamp=-0.0))
@example(_audit(timestamp=1e300))
# Fallbacks: each value below is one the template refuses.
@example(_audit(timestamp=43200))
@example(_audit(timestamp=True))
@example(_audit(timestamp=float("nan")))
@example(_audit(timestamp=float("inf")))
@example(_audit(timestamp=float("-inf")))
@example(_audit(requester_id=7))
@example(_audit(category=None))
@example(_audit(subject_id=3))
@example(_audit(reasons=["as", "list"]))
@example(_audit(reasons="as a str"))
@example(_audit(reasons=("ok", 5)))
@example(_audit(notify_user=1))
@example(_audit(phase="sharing"))
@example(_audit(effect=None))
def test_audit_template_matches_the_generic_encoder(record):
    outcome = assert_same_bytes(
        records.AUDIT,
        record,
        audit_record_to_dict,
        records.encode_audit,
        records._audit_payload,
        audit_well_typed(record),
    )
    if isinstance(record.timestamp, float) and not math.isfinite(record.timestamp):
        assert outcome[0] is StorageError


@given(observations)
@example(_observation(space_id=None, subject_id=None, payload={}))
@example(_observation(payload={"b": [1, {"z": None, "a": True}], "a": {"é": "\n"}}))
@example(_observation(timestamp=-0.0, observation_id=-(2**80)))
@example(_observation(timestamp=1e300))
# Fallbacks: each value below is one the template refuses.
@example(_observation(timestamp=12))
@example(_observation(timestamp=float("nan")))
@example(_observation(timestamp=float("inf")))
@example(_observation(observation_id=7.0))
@example(_observation(observation_id=True))
@example(_observation(subject_id=5))
@example(_observation(granularity=None))
@example(_observation(payload={"x": float("nan")}))
@example(_observation(payload={"x": float("-inf")}))
@example(_observation(payload={1: 2, "a": 1}))
@example(_observation(payload={"x": object()}))
@example(_observation(payload=[("b", 1), ("a", 2)]))
def test_observation_template_matches_the_generic_encoder(observation):
    outcome = assert_same_bytes(
        records.OBS,
        observation,
        Observation.to_dict,
        records.encode_observation,
        records._observation_payload,
        observation_well_typed(observation),
    )
    if isinstance(observation.timestamp, float) and not math.isfinite(
        observation.timestamp
    ):
        assert outcome[0] is StorageError


def reference_frame(lsn: int, payload: bytes) -> bytes:
    prefix = struct.pack(">QI", lsn, len(payload))
    return prefix + struct.pack(">I", zlib.crc32(prefix + payload)) + payload


@given(st.integers(1, 2**64 - 1), st.binary(max_size=512))
@example(1, b"")
@example(2**64 - 1, b"\x00" * 13)
def test_frame_matches_reference_and_round_trips(lsn, payload):
    encoded = encode_frame(lsn, payload)
    assert encoded == reference_frame(lsn, payload)
    frame, next_offset, reason = decode_frame(b"junk" + encoded, 4)
    assert reason == ""
    assert (frame.lsn, frame.payload) == (lsn, payload)
    assert next_offset == 4 + len(encoded)


finite_leaves = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.floats(allow_nan=False, allow_infinity=False), texts,
)
finite_values = st.recursive(
    finite_leaves,
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(texts, children, max_size=3),
    max_leaves=8,
)
finite_dicts = st.dictionaries(texts, finite_values, max_size=4)
finite_timestamps = st.floats(allow_nan=False, allow_infinity=False)

#: One well-formed ``(type, data)`` record of each of the six types.
record_dicts = st.one_of(
    st.builds(
        lambda record, timestamp: record._replace(timestamp=timestamp),
        audit_records,
        finite_timestamps,
    ).map(lambda r: (records.AUDIT, audit_record_to_dict(r))),
    st.builds(
        Observation,
        observation_id=st.integers(),
        sensor_id=texts,
        sensor_type=texts,
        timestamp=finite_timestamps,
        space_id=optional_texts,
        payload=finite_dicts,
        subject_id=optional_texts,
        granularity=texts,
    ).map(lambda o: (records.OBS, o.to_dict())),
    st.tuples(
        st.sampled_from([t for t in records.RECORD_TYPES if t not in records.FIELDS]),
        finite_dicts,
    ),
)

#: Arrays shaped like records but wrong in one way or another.
record_like = st.builds(
    lambda head, rest: [head] + rest,
    st.sampled_from(records.RECORD_TYPES) | texts | finite_values,
    st.lists(finite_values, max_size=12),
)
keyed_envelopes = st.builds(
    lambda record_type, data: {"t": record_type, "d": data},
    st.sampled_from(records.RECORD_TYPES),
    finite_dicts,
)


def decodes_or_refuses(payload: bytes) -> Any:
    """The decoder's result on ``payload``, or None if it refused."""
    try:
        result = records.decode_record(payload)
    except StorageError:
        return None
    assert type(result) is tuple and len(result) == 2
    record_type, data = result
    assert type(record_type) is str and record_type in records.RECORD_TYPES
    assert type(data) is dict
    if record_type in records.FIELDS:
        assert tuple(data) == records.FIELDS[record_type]
    return result


@given(st.binary(max_size=256))
@example(b"")
@example(b"\xff\xfe\x00")
@example(b"[" * 100_000)
@example(b'["audit"')
@example(b'{"d":{"user_id":"mary"},"t":"pref"}')
def test_decode_arbitrary_bytes_is_a_record_or_storage_error(payload):
    decodes_or_refuses(payload)


@given(finite_values | record_like | keyed_envelopes)
@example([])
@example("audit")
@example(["audit"])
@example(["obs", 1, 2])
@example(["audit"] + [None] * 11)
@example([5, {}])
@example([["pref"], {}])
@example([{"t": "pref"}, {}])
@example(["pref", 5])
@example(["pref", []])
@example(["pref", {}, {}])
@example(["table", {}])
@example({"t": "pref", "d": {"user_id": "mary"}})
@example({"t": "audit", "d": {}})
def test_decode_arbitrary_json_is_a_record_or_storage_error(value):
    payload = records._canonical(value).encode("utf-8")
    result = decodes_or_refuses(payload)
    if isinstance(value, dict):
        assert result is None  # the keyed form is not read
    if result is not None:
        assert records.encode_record(*result) == payload


@given(record_dicts)
@example((records.ERASE, {"subject_id": "mary"}))
@example((records.PREF_WITHDRAW_ALL, {}))
@example((records.MIGRATION, {"phase": "copy", "snapshot": {"obs": [1.5, None]}}))
@example((records.OBS, _observation(space_id=None, subject_id=None).to_dict()))
@example((records.AUDIT, audit_record_to_dict(_audit(reasons=()))))
def test_every_record_type_round_trips(record):
    record_type, data = record
    payload = records.encode_record(record_type, data)
    assert records.decode_record(payload) == (record_type, data)
    assert records.encode_record(*records.decode_record(payload)) == payload
