"""Unit tests for the JSON-Schema subset validator."""

import pytest

from repro.core.language.schema import (
    RESOURCE_POLICY_SCHEMA,
    SERVICE_POLICY_SCHEMA,
    SETTINGS_SCHEMA,
    Schema,
    ValidationError,
    validate,
)
from repro.errors import SchemaError


def _compiled(instance, schema):
    """Validate through the function a :class:`Schema` compiles."""
    Schema(schema).validate(instance)


# Each case class below runs against the reference interpreter; its
# ``Compiled`` subclass runs the same cases through ``Schema.validate``.


class TestTypeChecks:
    check = staticmethod(validate)

    @pytest.mark.parametrize(
        "value,type_name",
        [
            ({}, "object"),
            ([], "array"),
            ("x", "string"),
            (1.5, "number"),
            (3, "integer"),
            (True, "boolean"),
            (None, "null"),
        ],
    )
    def test_accepting(self, value, type_name):
        self.check(value, {"type": type_name})

    def test_bool_is_not_number(self):
        with pytest.raises(ValidationError):
            self.check(True, {"type": "number"})

    def test_int_is_number(self):
        self.check(3, {"type": "number"})

    def test_type_union(self):
        self.check(None, {"type": ["string", "null"]})
        with pytest.raises(ValidationError):
            self.check(3, {"type": ["string", "null"]})

    def test_unknown_type_is_schema_bug(self):
        with pytest.raises(SchemaError):
            self.check(1, {"type": "quaternion"})


class TestConstraints:
    check = staticmethod(validate)

    def test_enum(self):
        self.check("a", {"enum": ["a", "b"]})
        with pytest.raises(ValidationError):
            self.check("c", {"enum": ["a", "b"]})

    def test_pattern(self):
        self.check("P6M", {"type": "string", "pattern": r"^P\d+M$"})
        with pytest.raises(ValidationError):
            self.check("6M", {"type": "string", "pattern": r"^P\d+M$"})

    def test_string_lengths(self):
        schema = {"type": "string", "minLength": 2, "maxLength": 3}
        self.check("ab", schema)
        with pytest.raises(ValidationError):
            self.check("a", schema)
        with pytest.raises(ValidationError):
            self.check("abcd", schema)

    def test_numeric_bounds(self):
        schema = {"type": "number", "minimum": 0, "maximum": 10}
        self.check(0, schema)
        self.check(10, schema)
        with pytest.raises(ValidationError):
            self.check(-1, schema)
        with pytest.raises(ValidationError):
            self.check(11, schema)


class TestObjects:
    check = staticmethod(validate)

    SCHEMA = {
        "type": "object",
        "required": ["name"],
        "properties": {"name": {"type": "string"}, "age": {"type": "integer"}},
        "additionalProperties": False,
    }

    def test_required_missing(self):
        with pytest.raises(ValidationError) as excinfo:
            self.check({}, self.SCHEMA)
        assert "name" in str(excinfo.value)

    def test_additional_properties_false(self):
        with pytest.raises(ValidationError):
            self.check({"name": "x", "extra": 1}, self.SCHEMA)

    def test_additional_properties_schema(self):
        schema = {"type": "object", "additionalProperties": {"type": "integer"}}
        self.check({"a": 1, "b": 2}, schema)
        with pytest.raises(ValidationError):
            self.check({"a": "nope"}, schema)

    def test_nested_error_path(self):
        schema = {
            "type": "object",
            "properties": {"inner": {"type": "object", "required": ["x"]}},
        }
        with pytest.raises(ValidationError) as excinfo:
            self.check({"inner": {}}, schema)
        assert excinfo.value.path == "/inner"


class TestArrays:
    check = staticmethod(validate)

    def test_items_validated_with_index_path(self):
        schema = {"type": "array", "items": {"type": "integer"}}
        self.check([1, 2, 3], schema)
        with pytest.raises(ValidationError) as excinfo:
            self.check([1, "x"], schema)
        assert excinfo.value.path == "/1"

    def test_min_max_items(self):
        schema = {"type": "array", "minItems": 1, "maxItems": 2}
        self.check([1], schema)
        with pytest.raises(ValidationError):
            self.check([], schema)
        with pytest.raises(ValidationError):
            self.check([1, 2, 3], schema)


class TestOneOf:
    check = staticmethod(validate)

    SCHEMA = {"oneOf": [{"type": "string"}, {"type": "object"}]}

    def test_single_match(self):
        self.check("x", self.SCHEMA)
        self.check({}, self.SCHEMA)

    def test_no_match(self):
        with pytest.raises(ValidationError):
            self.check(3, self.SCHEMA)

    def test_double_match_rejected(self):
        schema = {"oneOf": [{"type": "number"}, {"minimum": 0}]}
        with pytest.raises(ValidationError):
            self.check(3, schema)


class TestTypeChecksCompiled(TestTypeChecks):
    check = staticmethod(_compiled)


class TestConstraintsCompiled(TestConstraints):
    check = staticmethod(_compiled)


class TestObjectsCompiled(TestObjects):
    check = staticmethod(_compiled)


class TestArraysCompiled(TestArrays):
    check = staticmethod(_compiled)


class TestOneOfCompiled(TestOneOf):
    check = staticmethod(_compiled)


class TestSchemaWrapper:
    def test_is_valid(self):
        schema = Schema({"type": "string"}, title="s")
        assert schema.is_valid("x")
        assert not schema.is_valid(3)

    def test_errors_list(self):
        schema = Schema({"type": "string"})
        assert schema.errors("x") == []
        assert len(schema.errors(3)) == 1

    def test_non_dict_definition_rejected(self):
        with pytest.raises(SchemaError):
            Schema("not a schema")

    def test_unknown_type_is_rejected_at_construction(self):
        with pytest.raises(SchemaError):
            Schema({"type": "quaternion"})
        # The interpreter meets the bad name only when it checks it.
        definition = {"type": ["string", "quaternion"]}
        validate("x", definition)
        with pytest.raises(SchemaError):
            validate(1, definition)
        with pytest.raises(SchemaError):
            Schema(definition)


class TestCompiledNesting:
    """Deep definitions split into helper functions without changing
    a failure's message or path."""

    @staticmethod
    def _nested(levels, with_one_of):
        definition, instance = {"type": "string", "minLength": 2}, "x"
        for level in range(levels):
            if level % 3 == 0:
                definition, instance = {"type": "array", "items": definition}, [instance]
            elif level % 3 == 1:
                key = "k%d" % level
                definition = {"type": "object", "properties": {key: definition}}
                instance = {key: instance}
            elif with_one_of:
                definition = {"oneOf": [definition, {"type": "null"}]}
        return definition, instance

    @pytest.mark.parametrize("with_one_of", [False, True])
    def test_deep_definition_matches_interpreter(self, with_one_of):
        definition, instance = self._nested(45, with_one_of)
        with pytest.raises(ValidationError) as expected:
            validate(instance, definition)
        with pytest.raises(ValidationError) as compiled:
            Schema(definition).validate(instance)
        assert str(compiled.value) == str(expected.value)
        assert compiled.value.path == expected.value.path


class TestLanguageSchemas:
    def test_figure2_shape_validates(self):
        RESOURCE_POLICY_SCHEMA.validate(
            {
                "resources": [
                    {
                        "info": {"name": "Location tracking in DBH"},
                        "context": {
                            "location": {
                                "spatial": {"name": "Donald Bren Hall", "type": "Building"},
                                "location_owner": {
                                    "name": "UCI",
                                    "human_description": {"more_info": "https://uci.edu"},
                                },
                            }
                        },
                        "sensor": {
                            "type": "WiFi Access Point",
                            "description": "Installed inside the building",
                        },
                        "purpose": {
                            "emergency response": {
                                "description": "Location is stored continuously"
                            }
                        },
                        "observations": [
                            {
                                "name": "MAC address of the device",
                                "description": "If your device is connected...",
                            }
                        ],
                        "retention": {"duration": "P6M"},
                    }
                ]
            }
        )

    def test_resources_must_be_non_empty(self):
        assert not RESOURCE_POLICY_SCHEMA.is_valid({"resources": []})

    def test_figure3_shape_validates(self):
        SERVICE_POLICY_SCHEMA.validate(
            {
                "observations": [
                    {"name": "wifi_access_point", "description": "..."},
                    {"name": "bluetooth_beacon", "description": "..."},
                ],
                "purpose": {
                    "providing_service": {"description": "directions"},
                    "service_id": "Concierge",
                },
            }
        )

    def test_service_id_required(self):
        assert not SERVICE_POLICY_SCHEMA.is_valid(
            {
                "observations": [{"name": "x"}],
                "purpose": {"providing_service": {"description": "d"}},
            }
        )

    def test_figure4_shape_validates(self):
        SETTINGS_SCHEMA.validate(
            {
                "settings": [
                    {
                        "select": [
                            {"description": "fine grained location sensing", "on": "wifi=opt-in"},
                            {"description": "coarse grained location sensing", "on": "wifi=opt-in"},
                            {"description": "No location sensing", "on": "wifi=opt-out"},
                        ]
                    }
                ]
            }
        )

    def test_settings_option_needs_on(self):
        assert not SETTINGS_SCHEMA.is_valid(
            {"settings": [{"select": [{"description": "x"}]}]}
        )

    def test_retention_pattern_rejects_garbage(self):
        doc = {
            "resources": [
                {
                    "info": {"name": "n"},
                    "context": {"location": {"spatial": {"name": "B", "type": "Building"}}},
                    "sensor": {"type": "t"},
                    "purpose": {"security": {"description": "d"}},
                    "observations": [{"name": "o"}],
                    "retention": {"duration": "six months"},
                }
            ]
        }
        assert not RESOURCE_POLICY_SCHEMA.is_valid(doc)


class TestValidateErrorPaths:
    """Error reporting contracts: oneOf diagnostics, nested paths,
    non-dict instances."""

    NESTED = {
        "type": "object",
        "properties": {
            "resources": {
                "type": "array",
                "items": {
                    "type": "object",
                    "properties": {
                        "observations": {
                            "type": "array",
                            "items": {"type": "object", "required": ["name"]},
                        }
                    },
                },
            }
        },
    }

    def test_oneof_zero_matches_reports_each_branch_reason(self):
        schema = {"oneOf": [{"type": "string"}, {"type": "object"}]}
        with pytest.raises(ValidationError) as excinfo:
            validate(3, schema)
        assert "matched 0 of oneOf branches" in excinfo.value.reason
        assert "expected type string" in excinfo.value.reason
        assert "expected type object" in excinfo.value.reason

    def test_oneof_two_matches_says_so(self):
        schema = {"oneOf": [{"type": "integer"}, {"minimum": 0}]}
        with pytest.raises(ValidationError) as excinfo:
            validate(3, schema)
        assert "matched 2 of oneOf branches" in excinfo.value.reason

    def test_oneof_failure_carries_the_nested_path(self):
        schema = {
            "type": "object",
            "properties": {
                "purpose": {
                    "type": "object",
                    "additionalProperties": {
                        "oneOf": [{"type": "string"}, {"type": "object"}]
                    },
                }
            },
        }
        with pytest.raises(ValidationError) as excinfo:
            validate({"purpose": {"comfort": 7}}, schema)
        assert excinfo.value.path == "/purpose/comfort"

    def test_schema_bug_inside_oneof_branch_propagates(self):
        # A broken branch is a schema bug, not an instance mismatch.
        schema = {"oneOf": [{"type": "quaternion"}]}
        with pytest.raises(SchemaError) as excinfo:
            validate("x", schema)
        assert not isinstance(excinfo.value, ValidationError)

    def test_path_threads_through_arrays_and_objects(self):
        doc = {"resources": [{"observations": [{"name": "ok"}, {}]}]}
        with pytest.raises(ValidationError) as excinfo:
            validate(doc, self.NESTED)
        assert excinfo.value.path == "/resources/0/observations/1"
        assert "name" in excinfo.value.reason

    def test_root_path_renders_as_slash(self):
        with pytest.raises(ValidationError) as excinfo:
            validate(3, {"type": "string"})
        assert excinfo.value.path == "/"
        assert "(at /)" in str(excinfo.value)

    @pytest.mark.parametrize("instance", ["text", ["list"], None, 42, True])
    def test_non_dict_instances_against_object_schema(self, instance):
        with pytest.raises(ValidationError) as excinfo:
            validate(instance, {"type": "object", "required": ["x"]})
        assert "expected type object" in excinfo.value.reason

    def test_non_dict_instance_skips_required_check(self):
        # Without a type constraint, required/properties only apply to
        # dicts; scalars pass through untouched.
        validate("anything", {"required": ["x"], "properties": {"x": {}}})

    def test_non_dict_schema_is_rejected(self):
        with pytest.raises(SchemaError):
            validate({}, "not a schema")

    def test_figure2_bad_purpose_branch_reports_deep_path(self):
        doc = {
            "resources": [
                {
                    "info": {"name": "n"},
                    "context": {
                        "location": {"spatial": {"name": "B", "type": "Building"}}
                    },
                    "sensor": {"type": "t"},
                    "purpose": {"security": 99},
                    "observations": [{"name": "o"}],
                }
            ]
        }
        errors = RESOURCE_POLICY_SCHEMA.errors(doc)
        assert len(errors) == 1
        assert "/resources/0/purpose/security" in errors[0]
