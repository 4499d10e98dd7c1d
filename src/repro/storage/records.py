"""The logical records carried inside WAL frames.

A record is ``(type, data)`` where ``data`` is a JSON-compatible dict.
The wire form is one canonical compact JSON array whose first element
is the type (nested dicts have sorted keys), so a given logical record
always encodes to the same bytes -- which is what makes same-seed chaos
runs produce byte-identical logs:

- the two hot types, ``audit`` (one per enforcement decision) and
  ``obs`` (one per stored observation), list their fields positionally
  in the order :data:`FIELDS` declares:
  ``["audit",48600.0,"building","capture",...]``.  No key name is
  written, so each frame is about half the size of a keyed one and
  still decodes on its own;
- the four cold types are ``[type, data]``.

Both hot types are written straight from their typed objects by
:func:`encode_audit` and :func:`encode_observation`: a ``%``-template
lists the fields in :data:`FIELDS` order, so no dict or list is built.
The template writes the bytes :func:`encode_record` would write for the
object's dict; anything it cannot write exactly falls through to that
generic path, which is also the differential oracle
(``tests/differential/test_diff_records.py``).  A decision served from
a compiled row is written as :data:`AUDIT_HEAD` ``% timestamp`` plus the
row's :func:`audit_payload_tail`, which is cut from this same template's
output, so there is one template
(``tests/differential/test_diff_capture_lane.py``).  A field added to
:class:`~repro.core.enforcement.audit.AuditRecord` or
:class:`~repro.sensors.base.Observation` must be added to
:data:`FIELDS` and to its template; :func:`encode_record` refuses a
dict whose keys differ from :data:`FIELDS`, so a field is never dropped
silently.  The keyed ``{"t": ..., "d": {...}}`` form of earlier stores
is not read.

Record types:

======================  ================================================
``obs``                 one stored observation (``Observation.to_dict``)
``erase``               a DSAR erasure of every observation of a subject
``audit``               one enforcement decision (audit record dict)
``pref``                a submitted user preference (latest wins per id)
``pref_withdraw_all``   all of a user's preferences were withdrawn
``migration``           one phase of a cross-shard user migration
                        (journal entry; latest phase per migration id
                        wins on replay)
======================  ================================================
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _quote
from typing import Any, Dict, Optional, Tuple

from repro.compact_json import compact_encoder
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
MIGRATION = "migration"

RECORD_TYPES = (OBS, ERASE, AUDIT, PREF, PREF_WITHDRAW_ALL, MIGRATION)

#: The positional types and the order their fields are written in.
FIELDS: Dict[str, Tuple[str, ...]] = {
    AUDIT: AuditRecord._fields,
    OBS: (
        "observation_id", "sensor_id", "sensor_type", "timestamp",
        "space_id", "payload", "subject_id", "granularity",
    ),
}


#: The canonical encoder, built once and reused (see
#: :mod:`repro.compact_json`): it runs once per stored observation.
_canonical = compact_encoder(sort_keys=True)


def encode_record(record_type: str, data: Dict[str, Any]) -> bytes:
    """The canonical payload bytes for one logical record.

    Raises :class:`StorageError` for an unknown type, for data that is
    not a dict, for a positional type whose keys differ from
    :data:`FIELDS`, or for data that is not canonical JSON (a
    non-finite float, unsortable keys, a value JSON cannot represent).
    """
    if record_type not in RECORD_TYPES:
        raise StorageError("unknown record type %r" % record_type)
    if not isinstance(data, dict):
        raise StorageError("%s record data is not a dict" % record_type)
    fields = FIELDS.get(record_type)
    if fields is None:
        body = [record_type, data]
    elif data.keys() == set(fields):
        body = [record_type]
        body.extend(data[name] for name in fields)
    else:
        raise StorageError(
            "%s record fields %s are not %s"
            % (record_type, sorted(map(str, data)), list(fields))
        )
    try:
        return _canonical(body).encode("utf-8")
    except (TypeError, ValueError) as exc:
        raise StorageError("record is not canonical JSON: %s" % exc) from None


def _json_values(enum_type: Any) -> Dict[Any, str]:
    return {member: _canonical(member.value) for member in enum_type}


_PHASES = _json_values(DecisionPhase)
_EFFECTS = _json_values(Effect)
_GRANULARITIES = _json_values(GranularityLevel)

# The arrays ``encode_record`` writes, with the fields in FIELDS order.
_AUDIT_TEMPLATE = '["audit",%r,%s,%s,%s,%s,%s,%s,%s,[%s],%s]'
_OBS_TEMPLATE = '["obs",%d,%s,%s,%r,%s,%s,%s,%s]'


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
        timestamp,
        _quote(requester_id),
        _PHASES[phase],
        _quote(category),
        "null" if subject_id is None else _quote(subject_id),
        "null" if space_id is None else _quote(space_id),
        _EFFECTS[effect],
        _GRANULARITIES[granularity],
        ",".join(map(_quote, reasons)),
        "true" if notify_user else "false",
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
        observation_id,
        _quote(observation.sensor_id),
        _quote(observation.sensor_type),
        timestamp,
        "null" if space_id is None else _quote(space_id),
        _canonical(payload),
        "null" if subject_id is None else _quote(subject_id),
        _quote(observation.granularity),
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


#: The bytes up to and including an ``audit`` payload's timestamp:
#: ``AUDIT_HEAD % timestamp`` (``%r`` of a finite float, as the
#: template writes it).
AUDIT_HEAD = _AUDIT_TEMPLATE[:_AUDIT_TEMPLATE.index("%r") + 2].encode("ascii")
_HEAD_AT_ZERO = AUDIT_HEAD % 0.0


def audit_payload_tail(tail: tuple) -> Optional[bytes]:
    """The payload bytes after the timestamp of a record ``(t,) + tail``.

    ``AUDIT_HEAD % t + audit_payload_tail(tail)`` is
    :func:`encode_audit`'s payload for any finite ``float`` ``t``: the
    tail is cut from the one template's output at ``t = 0.0``, so no
    second template exists.  ``None`` when the template cannot write
    ``tail`` exactly (such a record takes :func:`encode_audit`).
    """
    try:
        payload = _audit_payload(AuditRecord._make((0.0,) + tail))
    except _UNTEMPLATED:
        return None
    return payload[len(_HEAD_AT_ZERO):]


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
    """Parse one record payload into ``(type, data)``.

    A positional type's ``data`` has its :data:`FIELDS` as keys.  Raises
    :class:`StorageError` on anything that is not a record array,
    including the keyed envelope of earlier stores.
    """
    try:
        body = json.loads(payload.decode("utf-8"))
    except (ValueError, UnicodeDecodeError, RecursionError) as exc:
        raise StorageError("malformed storage record: %s" % exc) from None
    if type(body) is not list or not body or type(body[0]) is not str:
        raise StorageError("malformed storage record envelope")
    record_type = body[0]
    fields = FIELDS.get(record_type)
    if fields is not None:
        if len(body) == len(fields) + 1:
            return record_type, dict(zip(fields, body[1:]))
    elif (
        record_type in RECORD_TYPES
        and len(body) == 2
        and type(body[1]) is dict
    ):
        return record_type, body[1]
    raise StorageError("malformed %r storage record" % record_type[:32])
