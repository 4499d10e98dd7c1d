"""Compact JSON encoders that are built once and reused.

``json.JSONEncoder(...).encode`` looks prebuilt, but every call goes
through ``iterencode``, which makes a new C encoder and a new float
closure.  :func:`compact_encoder` makes the C encoder once.  Its output
is ``json.dumps(obj, separators=(",", ":"), allow_nan=False,
sort_keys=sort_keys)`` byte for byte, and it raises what that raises:
``ValueError`` for a non-finite float or a circular reference,
``TypeError`` for a value JSON cannot represent, ``RecursionError`` for
nesting deeper than the interpreter's limit
(``tests/property/test_prop_compact_json.py``).
"""

from __future__ import annotations

import json
from json.encoder import c_make_encoder, encode_basestring_ascii
from typing import Any, Callable, Dict


def compact_encoder(sort_keys: bool = False) -> Callable[[Any], str]:
    """A reusable ``obj -> str`` compact encoder that refuses NaN/Infinity.

    Without the C accelerator it is ``JSONEncoder.encode``.
    """
    reference = json.JSONEncoder(
        separators=(",", ":"), sort_keys=sort_keys, allow_nan=False
    )
    if c_make_encoder is None:
        return reference.encode
    # The containers being encoded, for the circular-reference check.
    # A finished encode leaves it empty; a failed one may not, so it is
    # cleared before the error propagates.
    markers: Dict[int, Any] = {}
    encode_chunks = c_make_encoder(
        markers, reference.default, encode_basestring_ascii, None,
        reference.key_separator, reference.item_separator, sort_keys,
        False, False,
    )
    join = "".join

    def encode(obj: Any) -> str:
        try:
            return join(encode_chunks(obj, 0))
        except BaseException:
            markers.clear()
            raise

    return encode
