"""Property tests for the reusable compact JSON encoders.

:func:`repro.compact_json.compact_encoder` must write exactly what
``json.dumps(x, separators=(",", ":"), allow_nan=False)`` writes (with
``sort_keys=True`` for the WAL's records), and refuse what it refuses,
also after an earlier call failed part way through.
"""

from __future__ import annotations

import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro import compact_json
from repro.compact_json import compact_encoder
from repro.errors import NetworkError, StorageError
from repro.net.codec import encode_message
from repro.storage import records

json_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.floats(),
    st.text(max_size=8),
)
json_values = st.recursive(
    json_leaves,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=12,
)

ENCODERS = {False: compact_encoder(), True: compact_encoder(sort_keys=True)}


def reference(value, sort_keys):
    return json.dumps(
        value, separators=(",", ":"), allow_nan=False, sort_keys=sort_keys
    )


def outcome(call):
    try:
        return call()
    except (TypeError, ValueError) as exc:
        return (type(exc), str(exc))


@settings(max_examples=300)
@given(json_values, st.booleans())
def test_bytes_and_errors_match_json_dumps(value, sort_keys):
    assert outcome(lambda: ENCODERS[sort_keys](value)) == outcome(
        lambda: reference(value, sort_keys)
    )


@settings(max_examples=100)
@given(st.dictionaries(st.text(max_size=6), json_values, max_size=5))
def test_the_codec_and_record_encoders_write_json_dumps_bytes(message):
    try:
        expected = reference(message, False)
    except ValueError:
        with pytest.raises(NetworkError):
            encode_message(message)
        with pytest.raises(StorageError):
            records.encode_record(records.PREF, message)
        return
    assert encode_message(message) == expected
    assert records.encode_record(records.PREF, message) == (
        '["pref",%s]' % reference(message, True)
    ).encode("utf-8")


def nested_list(depth: int) -> list:
    outer: list = []
    inner = outer
    for _ in range(depth):
        inner.append([])
        inner = inner[0]
    return outer


def circular_list() -> list:
    value: list = [1]
    value.append(value)
    return value


@pytest.mark.parametrize("sort_keys", [False, True])
@pytest.mark.parametrize(
    "bad, error",
    [
        (math.nan, ValueError),
        (object(), TypeError),
        (circular_list(), ValueError),
        (nested_list(100000), RecursionError),
    ],
    ids=["nan", "object", "circular", "deep"],
)
def test_a_failed_call_leaves_the_encoder_reusable(sort_keys, bad, error):
    # The failed call entered ``holder``; the next call must not report
    # it as a circular reference.
    encode = ENCODERS[sort_keys]
    holder = {"a": [1, bad]}
    with pytest.raises(error):
        encode(holder)
    holder["a"][1] = 2
    assert encode(holder) == reference(holder, sort_keys)


def test_a_circular_reference_is_refused_by_the_codec():
    message: dict = {"a": []}
    message["a"].append(message)
    with pytest.raises(NetworkError, match="Circular reference"):
        encode_message(message)


def test_without_the_c_encoder_it_is_json_encoder_encode(monkeypatch):
    monkeypatch.setattr(compact_json, "c_make_encoder", None)
    encode = compact_encoder(sort_keys=True)
    assert encode({"b": 1.5, "a": [None, True]}) == '{"a":[null,true],"b":1.5}'
    with pytest.raises(ValueError):
        encode(math.inf)
