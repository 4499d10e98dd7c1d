"""Differential tests: compiled ``Schema.validate`` vs the interpreter.

Every :class:`~repro.core.language.schema.Schema` compiles its
definition into one generated function; the module-level
:func:`~repro.core.language.schema.validate` interpreter is the
reference.  On every input both must agree on pass/fail and, on a
failure, on ``str(exc)``, ``exc.path`` and ``exc.reason``.

Two input families:

- valid policy documents of all three shipped schemas, built from the
  ``tests/property/test_prop_documents.py`` strategies, then mutated
  by random replace / delete / add edits at any depth;
- small generated schemas using every supported keyword, against
  generated instances.

The example counts come from the profiles in ``conftest.py``.
"""

from __future__ import annotations

import copy
from typing import Any, Callable, Optional, Set, Tuple

from hypothesis import example, given, strategies as st

from repro.core.language.document import (
    ResourcePolicyDocument,
    ServicePolicyDocument,
    SettingsDocument,
)
from repro.core.language.schema import (
    RESOURCE_POLICY_SCHEMA,
    SERVICE_POLICY_SCHEMA,
    SETTINGS_SCHEMA,
    Schema,
    ValidationError,
    validate,
)
from tests.property.test_prop_documents import (
    names,
    observation_descriptions,
    resources,
    setting_options,
)

Outcome = Optional[Tuple[str, str, str]]


def _outcome(check: Callable[[], None]) -> Outcome:
    try:
        check()
    except ValidationError as exc:
        return (str(exc), exc.path, exc.reason)
    return None


def assert_same_outcome(schema: Schema, instance: Any) -> Outcome:
    """Both validators agree on ``instance``; returns the shared outcome."""
    expected = _outcome(lambda: validate(instance, schema.definition))
    assert _outcome(lambda: schema.validate(instance)) == expected
    return expected


# ----------------------------------------------------------------------
# (a) Mutated policy documents
# ----------------------------------------------------------------------

resource_documents = st.lists(resources, min_size=1, max_size=3).map(
    lambda rs: ResourcePolicyDocument(rs).to_dict()
)
service_documents = st.builds(
    ServicePolicyDocument,
    service_id=names,
    observations=st.lists(observation_descriptions, min_size=1, max_size=3),
    purposes=st.dictionaries(
        names.filter(lambda n: n != "service_id"),
        st.text(max_size=30),
        min_size=1,
        max_size=3,
    ),
    developer_name=st.one_of(st.just(""), names),
    third_party=st.booleans(),
).map(lambda document: document.to_dict())
settings_documents = st.lists(
    st.lists(setting_options, min_size=1, max_size=4), min_size=1, max_size=3
).map(lambda groups: SettingsDocument(groups).to_dict())

DOCUMENTS = (
    (RESOURCE_POLICY_SCHEMA, resource_documents),
    (SERVICE_POLICY_SCHEMA, service_documents),
    (SETTINGS_SCHEMA, settings_documents),
)


def _property_names(schema: Any, found: Set[str]) -> Set[str]:
    if isinstance(schema, dict):
        found.update(schema.get("properties", {}))
        for value in schema.values():
            _property_names(value, found)
    elif isinstance(schema, list):
        for value in schema:
            _property_names(value, found)
    return found


#: Keys the three schemas know, so added keys often hit a property.
KNOWN_KEYS = sorted(
    set().union(*(_property_names(s.definition, set()) for s, _ in DOCUMENTS))
)

json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=6),
    # Values the schemas treat specially: enum members, a duration, "".
    st.sampled_from(["", "Building", "Planet", "precise", "P6M", "six months"]),
)
json_keys = st.sampled_from(KNOWN_KEYS) | st.text(max_size=4)
json_values = st.recursive(
    json_scalars,
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(json_keys, children, max_size=3),
    max_leaves=6,
)


def _mutate(draw: Callable[[Any], Any], root: Any) -> None:
    """Replace, delete or add one entry of a container at a random depth."""
    node = root
    for _ in range(draw(st.integers(0, 8))):
        inner = node.values() if isinstance(node, dict) else node
        children = [child for child in inner if isinstance(child, (dict, list))]
        if not children:
            break
        node = draw(st.sampled_from(children))
    operation = draw(st.sampled_from(["replace", "delete", "add"]))
    if isinstance(node, dict):
        if operation == "add" or not node:
            key = draw(json_keys)
            node[key] = draw(json_values)
            return
        key = draw(st.sampled_from(sorted(node)))
        if operation == "replace":
            node[key] = draw(json_values)
        else:
            del node[key]
    else:
        if operation == "add" or not node:
            node.insert(draw(st.integers(0, len(node))), draw(json_values))
            return
        index = draw(st.integers(0, len(node) - 1))
        if operation == "replace":
            node[index] = draw(json_values)
        else:
            del node[index]


@st.composite
def mutated_documents(draw):
    schema, documents = draw(st.sampled_from(DOCUMENTS))
    document = copy.deepcopy(draw(documents))
    for _ in range(draw(st.integers(0, 3))):
        _mutate(draw, document)
    return schema, document


@given(case=mutated_documents())
def test_mutated_documents_agree(case):
    schema, document = case
    assert_same_outcome(schema, document)


# ----------------------------------------------------------------------
# (b) Generated schemas against generated instances
# ----------------------------------------------------------------------

KEYS = ["a", "b", "c"]
type_names = st.sampled_from(
    ["object", "array", "string", "number", "integer", "boolean", "null"]
)
small_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.sampled_from([0.5, -1.5]),
    st.text(alphabet="ab1", max_size=3),
)
leaf_keywords = {
    "type": type_names | st.lists(type_names, min_size=1, max_size=3, unique=True),
    "enum": st.lists(small_scalars, max_size=3),
    "pattern": st.sampled_from(["^a", "b$", "1", "^[ab]*$"]),
    "minLength": st.integers(0, 3),
    "maxLength": st.integers(0, 3),
    "minimum": st.integers(-2, 2) | st.just(0.5),
    "maximum": st.integers(-2, 2) | st.just(0.5),
    "required": st.lists(st.sampled_from(KEYS), max_size=2, unique=True),
    "minItems": st.integers(0, 2),
    "maxItems": st.integers(0, 2),
}


def _with_children(children):
    return st.fixed_dictionaries(
        {},
        optional=dict(
            leaf_keywords,
            properties=st.dictionaries(st.sampled_from(KEYS), children, max_size=3),
            additionalProperties=st.booleans() | children,
            items=children,
            oneOf=st.lists(children, max_size=3),
        ),
    )


schemas = st.recursive(
    st.fixed_dictionaries({}, optional=leaf_keywords), _with_children, max_leaves=8
)
instances = st.recursive(
    small_scalars,
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.sampled_from(KEYS + ["d"]), children, max_size=3),
    max_leaves=8,
)

_BRANCHES = {
    "oneOf": [{"type": "integer"}, {"type": "number", "minimum": 0}, {"type": "string"}]
}
_OBJECT = {"type": "object", "properties": {"a": {"type": "string"}}}


@given(definition=schemas, instance=instances)
@example(definition=_BRANCHES, instance=None)  # oneOf: 0 matches
@example(definition=_BRANCHES, instance="x")  # 1 match
@example(definition=_BRANCHES, instance=3)  # 2 matches
@example(definition=_BRANCHES, instance=-1)  # 1 match, a reason per miss
@example(definition=dict(_OBJECT, additionalProperties=True), instance={"d": 1})
@example(
    definition=dict(_OBJECT, additionalProperties=False), instance={"a": "x", "d": 1}
)
@example(
    definition=dict(_OBJECT, additionalProperties={"type": "integer"}),
    instance={"a": "x", "d": "y"},
)
@example(
    definition={"type": ["string", "null"], "maxLength": 1, "minimum": 2},
    instance="ab",
)
@example(definition={"type": "array", "maxItems": 1, "items": {}}, instance=[1, 2])
def test_generated_schemas_agree(definition, instance):
    assert_same_outcome(Schema(definition), instance)


def test_examples_cover_every_one_of_count():
    """The pinned examples above really hit 0, 1 and 2 oneOf matches."""
    schema = Schema(_BRANCHES)
    reasons = [
        assert_same_outcome(schema, instance) for instance in (None, "x", 3, -1)
    ]
    assert reasons[0] is not None and "matched 0 of oneOf" in reasons[0][2]
    assert reasons[1] is None and reasons[3] is None
    assert reasons[2] is not None and "matched 2 of oneOf" in reasons[2][2]
