"""JSON wire codec.

Only JSON-representable payloads may cross the bus; anything else is a
programming error surfaced as :class:`NetworkError` at send time (not
as a confusing failure on the receiving side).
"""

from __future__ import annotations

import json
from typing import Any, Dict

from repro.errors import NetworkError


#: Built once: ``json.dumps`` with these options would construct a new
#: encoder on every call.
_COMPACT = json.JSONEncoder(separators=(",", ":"), allow_nan=False)


def encode_message(message: Dict[str, Any]) -> str:
    """Serialize a message dict to compact JSON text."""
    try:
        return _COMPACT.encode(message)
    except (TypeError, ValueError) as exc:
        raise NetworkError("payload is not JSON-serializable: %s" % exc) from None


def decode_message(text: str) -> Dict[str, Any]:
    """Parse JSON text back into a message dict."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise NetworkError("malformed message: %s" % exc) from None
    if not isinstance(data, dict):
        raise NetworkError("message must be a JSON object, got %r" % type(data).__name__)
    return data
