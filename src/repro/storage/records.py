"""The logical records carried inside WAL frames.

A record is ``(type, data)`` where ``data`` is a JSON-compatible dict.
The wire form is canonical compact JSON (sorted keys), so a given
logical record always encodes to the same bytes -- which is what makes
same-seed chaos runs produce byte-identical logs.

The two hot types, ``audit`` (one per enforcement decision) and ``obs``
(one per stored observation), are written straight from their typed
objects by :func:`encode_audit` and :func:`encode_observation`: a
``%``-template lists the fields in sorted-key order, so no dict is
built or sorted.  The template writes the bytes :func:`encode_record`
would write for the object's dict; anything it cannot write exactly
falls through to that generic path, which is also the differential
oracle (``tests/differential/test_diff_records.py``).  A field added to
:class:`~repro.core.enforcement.audit.AuditRecord` or
:class:`~repro.sensors.base.Observation` must be added to its template.

Record types:

======================  ================================================
``obs``                 one stored observation (``Observation.to_dict``)
``erase``               a DSAR erasure of every observation of a subject
``audit``               one enforcement decision (audit record dict)
``pref``                a submitted user preference (latest wins per id)
``pref_withdraw_all``   all of a user's preferences were withdrawn
``table``               a compiled enforcement decision table (advisory
                        cache artifact; latest wins, dropped by
                        compaction)
``migration``           one phase of a cross-shard user migration
                        (journal entry; latest phase per migration id
                        wins on replay)
======================  ================================================
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _quote
from typing import Any, Dict, Tuple

from repro.core.enforcement.audit import AuditRecord, audit_record_to_dict
from repro.core.language.vocabulary import GranularityLevel
from repro.core.policy.base import DecisionPhase, Effect
from repro.errors import StorageError
from repro.sensors.base import Observation

OBS = "obs"
ERASE = "erase"
AUDIT = "audit"
PREF = "pref"
PREF_WITHDRAW_ALL = "pref_withdraw_all"
TABLE = "table"
MIGRATION = "migration"

RECORD_TYPES = (OBS, ERASE, AUDIT, PREF, PREF_WITHDRAW_ALL, TABLE, MIGRATION)


#: The canonical encoder, built once: ``json.dumps`` with these options
#: would construct a new encoder on every call.
_CANONICAL = json.JSONEncoder(separators=(",", ":"), sort_keys=True, allow_nan=False)


def encode_record(record_type: str, data: Dict[str, Any]) -> bytes:
    """The canonical payload bytes for one logical record.

    Raises :class:`StorageError` for an unknown type or for data that is
    not canonical JSON (a non-finite float, unsortable keys, a value
    JSON cannot represent).
    """
    if record_type not in RECORD_TYPES:
        raise StorageError("unknown record type %r" % record_type)
    try:
        return _CANONICAL.encode({"t": record_type, "d": data}).encode("utf-8")
    except (TypeError, ValueError) as exc:
        raise StorageError("record is not canonical JSON: %s" % exc) from None


def _json_values(enum_type: Any) -> Dict[Any, str]:
    return {member: _CANONICAL.encode(member.value) for member in enum_type}


_PHASES = _json_values(DecisionPhase)
_EFFECTS = _json_values(Effect)
_GRANULARITIES = _json_values(GranularityLevel)

# The ``{"t": ..., "d": {...}}`` envelopes with the fields of
# ``audit_record_to_dict`` / ``Observation.to_dict`` in sorted-key order.
_AUDIT_TEMPLATE = (
    '{"d":{"category":%s,"effect":%s,"granularity":%s,"notify_user":%s,'
    '"phase":%s,"reasons":[%s],"requester_id":%s,"space_id":%s,'
    '"subject_id":%s,"timestamp":%r},"t":"audit"}'
)
_OBS_TEMPLATE = (
    '{"d":{"granularity":%s,"observation_id":%d,"payload":%s,'
    '"sensor_id":%s,"sensor_type":%s,"space_id":%s,"subject_id":%s,'
    '"timestamp":%r},"t":"obs"}'
)


def _audit_payload(record: AuditRecord) -> bytes:
    if type(record) is not AuditRecord:
        raise TypeError("not an AuditRecord")
    (timestamp, requester_id, phase, category, subject_id, space_id,
     effect, granularity, reasons, notify_user) = record
    if (
        type(timestamp) is not float
        or timestamp - timestamp != 0.0  # NaN or infinite
        or type(reasons) is not tuple
        or type(notify_user) is not bool
    ):
        raise TypeError("not a template audit record")
    return (_AUDIT_TEMPLATE % (
        _quote(category),
        _EFFECTS[effect],
        _GRANULARITIES[granularity],
        "true" if notify_user else "false",
        _PHASES[phase],
        ",".join(map(_quote, reasons)),
        _quote(requester_id),
        "null" if space_id is None else _quote(space_id),
        "null" if subject_id is None else _quote(subject_id),
        timestamp,
    )).encode("utf-8")


def _observation_payload(observation: Observation) -> bytes:
    if type(observation) is not Observation:
        raise TypeError("not an Observation")
    timestamp = observation.timestamp
    observation_id = observation.observation_id
    payload = observation.payload
    space_id = observation.space_id
    subject_id = observation.subject_id
    if (
        type(timestamp) is not float
        or timestamp - timestamp != 0.0  # NaN or infinite
        or type(observation_id) is not int
        or type(payload) is not dict
    ):
        raise TypeError("not a template observation")
    return (_OBS_TEMPLATE % (
        _quote(observation.granularity),
        observation_id,
        _CANONICAL.encode(payload),
        _quote(observation.sensor_id),
        _quote(observation.sensor_type),
        "null" if space_id is None else _quote(space_id),
        "null" if subject_id is None else _quote(subject_id),
        timestamp,
    )).encode("utf-8")


#: What a template raises for a value it cannot write exactly.
_UNTEMPLATED = (TypeError, ValueError, KeyError)


def encode_audit(record: AuditRecord) -> bytes:
    """``encode_record(AUDIT, audit_record_to_dict(record))``, from the fields.

    A value the template cannot write exactly -- a non-finite or
    non-float timestamp, a non-``str`` field -- falls through to the
    generic path, so errors are :func:`encode_record`'s too.
    """
    try:
        return _audit_payload(record)
    except _UNTEMPLATED:
        return encode_record(AUDIT, audit_record_to_dict(record))


def encode_observation(observation: Observation) -> bytes:
    """``encode_record(OBS, observation.to_dict())``, from the fields.

    Falls through to the generic path like :func:`encode_audit`; a
    payload that is not canonical JSON does too, and raises there.
    """
    try:
        return _observation_payload(observation)
    except _UNTEMPLATED:
        return encode_record(OBS, observation.to_dict())


def decode_record(payload: bytes) -> Tuple[str, Dict[str, Any]]:
    """Parse one record payload; raises :class:`StorageError` on garbage."""
    try:
        envelope = json.loads(payload.decode("utf-8"))
        record_type = envelope["t"]
        data = envelope["d"]
    except (ValueError, KeyError, TypeError, UnicodeDecodeError) as exc:
        raise StorageError("malformed storage record: %s" % exc) from None
    if record_type not in RECORD_TYPES or not isinstance(data, dict):
        raise StorageError("malformed storage record envelope")
    return record_type, data
