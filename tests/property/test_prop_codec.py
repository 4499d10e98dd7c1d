"""Property tests for the bus's JSON wire codec.

The bus decodes text that crossed a (simulated) network, so the decoder
takes untrusted input: any text must yield a message dict or a
:class:`NetworkError`, never another exception.  The encoder must be a
serializer the decoder inverts: every JSON object survives
``decode_message(encode_message(x)) == x``.  The ``@example``s pin the
inputs that escaped as bare exceptions or were accepted although the
encoder refuses them: deep nesting (``RecursionError``) and the
``NaN``/``Infinity`` constants.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.errors import NetworkError
from repro.net.codec import decode_message, encode_message

json_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**63), max_value=2**63),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=8),
)
json_values = st.recursive(
    json_leaves,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=12,
)
json_objects = st.dictionaries(st.text(max_size=6), json_values, max_size=5)

#: Fragments that make arbitrary text more often near-JSON.
FRAGMENTS = st.sampled_from(
    ['{', '}', '[', ']', '"', ':', ',', '"a"', "1", "-", ".5e3", "true",
     "null", "NaN", "Infinity", "-Infinity", "\\u", "\\ud800", " "]
)
texts = st.one_of(
    st.text(),
    st.lists(FRAGMENTS, max_size=20).map("".join),
    json_values.map(lambda value: encode_message({"v": value})),
)


def nested(depth: int) -> dict:
    message: dict = {}
    inner = message
    for _ in range(depth):
        inner["a"] = {}
        inner = inner["a"]
    return message


@settings(max_examples=300)
@given(texts)
@example("[" * 100000)
@example('{"a":' * 100000)
@example('{"a": NaN}')
@example('{"a": Infinity}')
@example('{"a": -Infinity}')
@example("1" * 5000)
@example("﻿{}")
def test_any_text_decodes_to_a_dict_or_a_network_error(text):
    try:
        message = decode_message(text)
    except NetworkError:
        return
    assert type(message) is dict


@settings(max_examples=300)
@given(json_objects)
def test_every_json_object_round_trips(message):
    assert decode_message(encode_message(message)) == message


@pytest.mark.parametrize(
    "text", ['{"a": NaN}', '{"a": Infinity}', '{"a": [1, -Infinity]}']
)
def test_non_finite_constants_are_refused_like_the_encoder_refuses_them(text):
    with pytest.raises(NetworkError):
        decode_message(text)
    with pytest.raises(NetworkError):
        encode_message({"a": math.inf})


def test_nesting_past_the_recursion_limit_is_a_network_error():
    with pytest.raises(NetworkError):
        decode_message("[" * 100000)
    with pytest.raises(NetworkError):
        encode_message(nested(5000))
    assert decode_message(encode_message(nested(50))) == nested(50)
