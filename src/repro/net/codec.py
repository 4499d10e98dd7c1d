"""JSON wire codec.

Only JSON-representable payloads may cross the bus; anything else is a
programming error surfaced as :class:`NetworkError` at send time (not
as a confusing failure on the receiving side).
"""

from __future__ import annotations

import json
from typing import Any, Dict

from repro.compact_json import compact_encoder
from repro.errors import NetworkError


#: Built once and reused: ``json.dumps``, and even a prebuilt
#: ``JSONEncoder``'s ``encode``, make a new C encoder on every call.
_compact = compact_encoder()


def _refuse_constant(name: str) -> Any:
    raise ValueError("%s is not JSON" % name)


#: Built once: ``json.loads(..., parse_constant=...)`` would construct
#: a new decoder on every call.  It refuses ``NaN`` and ``Infinity``,
#: which ``_compact`` never writes.
_STRICT = json.JSONDecoder(parse_constant=_refuse_constant)


def encode_message(message: Dict[str, Any]) -> str:
    """Serialize a message dict to compact JSON text.

    Raises :class:`NetworkError` for anything JSON cannot carry: a
    non-JSON value, a non-finite float, or nesting deeper than the
    interpreter's recursion limit.
    """
    try:
        return _compact(message)
    except (TypeError, ValueError, RecursionError) as exc:
        raise NetworkError("payload is not JSON-serializable: %s" % exc) from None


def decode_message(text: str) -> Dict[str, Any]:
    """Parse JSON text back into a message dict.

    Any text yields a dict or raises :class:`NetworkError`: malformed
    JSON, ``NaN``/``Infinity``, nesting deeper than the recursion limit
    and a non-object value are all refused.
    """
    try:
        data = _STRICT.decode(text)
    except (ValueError, RecursionError) as exc:
        raise NetworkError("malformed message: %s" % exc) from None
    if not isinstance(data, dict):
        raise NetworkError("message must be a JSON object, got %r" % type(data).__name__)
    return data
