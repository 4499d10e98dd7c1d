"""A JSON-Schema (draft-4 subset) validator, implemented from scratch.

The paper represents its language with "a JSON-Schema v4".  We implement
the subset the language needs -- ``type``, ``properties``, ``required``,
``items``, ``enum``, ``pattern``, ``minimum``/``maximum``,
``minItems``/``minLength``, ``additionalProperties``, ``oneOf`` -- so
documents can be validated without a third-party dependency.

:func:`validate` is a recursive interpreter over a schema dict and the
reference semantics.  :class:`Schema` compiles its definition once into
one generated function that raises exactly what :func:`validate` would,
several times faster; the policy documents validate through it.
Validation errors carry a JSON-pointer-style path to the offending
element.
"""

from __future__ import annotations

import re
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import SchemaError

_TYPE_CHECKS = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "boolean": lambda v: isinstance(v, bool),
    "null": lambda v: v is None,
}


class ValidationError(SchemaError):
    """Schema validation failure, with the path to the bad element."""

    def __init__(self, message: str, path: str) -> None:
        super().__init__("%s (at %s)" % (message, path or "/"))
        self.path = path or "/"
        self.reason = message


def _check_type(value: Any, expected: Any, path: str) -> None:
    expected_list = expected if isinstance(expected, list) else [expected]
    for type_name in expected_list:
        if type_name not in _TYPE_CHECKS:
            raise SchemaError("schema uses unknown type %r" % type_name)
        if _TYPE_CHECKS[type_name](value):
            return
    raise ValidationError(
        "expected type %s, got %s" % ("/".join(expected_list), type(value).__name__),
        path,
    )


def validate(instance: Any, schema: Dict[str, Any], path: str = "") -> None:
    """Validate ``instance`` against ``schema``.

    Raises :class:`ValidationError` on the first violation found.
    ``path`` is the JSON-pointer prefix used in error messages.
    """
    if not isinstance(schema, dict):
        raise SchemaError("schema must be a dict, got %r" % (schema,))

    if "enum" in schema:
        if instance not in schema["enum"]:
            raise ValidationError(
                "%r not in enum %r" % (instance, schema["enum"]), path
            )

    if "type" in schema:
        _check_type(instance, schema["type"], path)

    if "oneOf" in schema:
        matches = 0
        errors: List[str] = []
        for candidate in schema["oneOf"]:
            try:
                validate(instance, candidate, path)
                matches += 1
            except ValidationError as exc:
                errors.append(exc.reason)
        if matches != 1:
            raise ValidationError(
                "matched %d of oneOf branches (%s)" % (matches, "; ".join(errors)),
                path,
            )

    if isinstance(instance, str):
        if "pattern" in schema and re.search(schema["pattern"], instance) is None:
            raise ValidationError(
                "%r does not match pattern %r" % (instance, schema["pattern"]), path
            )
        if "minLength" in schema and len(instance) < schema["minLength"]:
            raise ValidationError(
                "string shorter than minLength %d" % schema["minLength"], path
            )
        if "maxLength" in schema and len(instance) > schema["maxLength"]:
            raise ValidationError(
                "string longer than maxLength %d" % schema["maxLength"], path
            )

    if isinstance(instance, (int, float)) and not isinstance(instance, bool):
        if "minimum" in schema and instance < schema["minimum"]:
            raise ValidationError(
                "%r below minimum %r" % (instance, schema["minimum"]), path
            )
        if "maximum" in schema and instance > schema["maximum"]:
            raise ValidationError(
                "%r above maximum %r" % (instance, schema["maximum"]), path
            )

    if isinstance(instance, dict):
        properties: Dict[str, Any] = schema.get("properties", {})
        for key in schema.get("required", []):
            if key not in instance:
                raise ValidationError("missing required property %r" % key, path)
        additional = schema.get("additionalProperties", True)
        for key, value in instance.items():
            child_path = "%s/%s" % (path, key)
            if key in properties:
                validate(value, properties[key], child_path)
            elif isinstance(additional, dict):
                validate(value, additional, child_path)
            elif additional is False:
                raise ValidationError("unexpected property %r" % key, path)

    if isinstance(instance, list):
        if "minItems" in schema and len(instance) < schema["minItems"]:
            raise ValidationError(
                "array shorter than minItems %d" % schema["minItems"], path
            )
        if "maxItems" in schema and len(instance) > schema["maxItems"]:
            raise ValidationError(
                "array longer than maxItems %d" % schema["maxItems"], path
            )
        if "items" in schema:
            for index, item in enumerate(instance):
                validate(item, schema["items"], "%s/%d" % (path, index))


# ----------------------------------------------------------------------
# Compiling a definition into one generated validator
# ----------------------------------------------------------------------

#: Source of each type test over the instance expression ``{0}``: the
#: predicates of :data:`_TYPE_CHECKS`.
_TYPE_TESTS = {
    "object": "isinstance({0}, dict)",
    "array": "isinstance({0}, list)",
    "string": "isinstance({0}, str)",
    "number": "isinstance({0}, (int, float)) and not isinstance({0}, bool)",
    "integer": "isinstance({0}, int) and not isinstance({0}, bool)",
    "boolean": "isinstance({0}, bool)",
    "null": "{0} is None",
}

#: The kind of value each type name admits.  :func:`validate` guards
#: each group of kind-specific keywords with the type test of its kind.
#: Once a ``type`` check has passed, a guard whose kind every admitted
#: type shares always holds and one no admitted type shares never does,
#: so neither is emitted.
_KIND_OF_TYPE = {
    "object": "object",
    "array": "array",
    "string": "string",
    "number": "number",
    "integer": "number",
    "boolean": None,
    "null": None,
}
_KINDS = ("string", "number", "object", "array")


class _Path:
    """Where a check sits: a ``%``-format and the source of its arguments.

    The path string is formatted only by a failing check's ``raise``,
    from the loop variables in scope there (and a helper's prefix
    tuple ``p``).  Passing checks never build it.
    """

    __slots__ = ("fmt", "args")

    def __init__(self, fmt: str = "", args: Tuple[str, ...] = ()) -> None:
        self.fmt = fmt
        self.args = args

    def child(self, fmt: str, var: str) -> "_Path":
        return _Path(self.fmt + fmt, self.args + (var,))

    def source(self) -> str:
        if not self.args:
            return repr(self.fmt)
        return "%r %% (%s,)" % (self.fmt, ", ".join(self.args))


def _fail_if(depth: int, test: str, reason: str, path: _Path) -> List[str]:
    """Source lines raising ``reason`` at ``path`` when ``test`` holds."""
    pad = "    " * depth
    statement = "raise _VE(%s, %s)" % (reason, path.source())
    return [pad + "if %s:" % test, pad + "    " + statement]


class _Compiler:
    """Writes one schema definition as Python source and compiles it.

    The source checks the keywords the definition uses, in the order
    and with the messages of :func:`validate`, with every subschema
    inlined.  Constants that are not literals are bound by name.  Each
    emitting method returns the source lines of its checks on the value
    named ``x``, indented ``depth`` levels inside ``blocks`` loops and
    ``try`` blocks.
    """

    #: ``for`` and ``try`` blocks nested in one generated function before
    #: a subschema moves into a helper function (CPython allows 20).
    MAX_BLOCKS = 10

    def __init__(self) -> None:
        self.names: Dict[str, Any] = {"_VE": ValidationError}
        self.functions: List[str] = []
        self.serial = 0

    def compile(self, definition: Dict[str, Any], title: str) -> Callable[[Any], None]:
        root = self.function(definition, _Path())
        code = compile("\n".join(self.functions), "<schema %s>" % title, "exec")
        namespace = dict(self.names)
        exec(code, namespace)
        return namespace[root]

    def next(self) -> int:
        self.serial += 1
        return self.serial

    def constant(self, value: Any) -> str:
        if value is None or type(value) in (bool, int, str):
            return repr(value)
        name = "_c%d" % len(self.names)
        self.names[name] = value
        return name

    def function(self, schema: Any, path: _Path) -> str:
        """Emit a function checking ``x`` against ``schema``; its name.

        A helper split off below the root takes the enclosing loop
        variables as the tuple ``p`` and formats them into its paths.
        """
        name = "_v%d" % self.next()
        inner = _Path(path.fmt, ("*p",)) if path.args else _Path()
        body = self.node(schema, "x", inner, 1, 0) or ["    pass"]
        params = "x, p" if path.args else "x"
        self.functions.append("def %s(%s):\n%s" % (name, params, "\n".join(body)))
        return name

    def node(
        self, schema: Any, x: str, path: _Path, depth: int, blocks: int
    ) -> List[str]:
        if not isinstance(schema, dict):
            raise SchemaError("schema must be a dict, got %r" % (schema,))
        pad = "    " * depth
        if blocks >= self.MAX_BLOCKS:
            name = self.function(schema, path)
            prefix = ", (%s,)" % ", ".join(path.args) if path.args else ""
            return ["%s%s(%s%s)" % (pad, name, x, prefix)]
        out: List[str] = []
        if "enum" in schema:
            enum = self.constant(schema["enum"])
            out += _fail_if(
                depth,
                "%s not in %s" % (x, enum),
                "%r %% (%s, %s)" % ("%r not in enum %r", x, enum),
                path,
            )
        kinds = set(_KINDS)
        if "type" in schema:
            expected = schema["type"]
            names = expected if isinstance(expected, list) else [expected]
            for type_name in names:
                if not isinstance(type_name, str) or type_name not in _TYPE_TESTS:
                    raise SchemaError("schema uses unknown type %r" % (type_name,))
            test = " or ".join(_TYPE_TESTS[t].format(x) for t in names) or "False"
            reason = "expected type %s, got %%s" % "/".join(names)
            out += _fail_if(
                depth, "not (%s)" % test, "%r %% type(%s).__name__" % (reason, x), path
            )
            kinds = {_KIND_OF_TYPE[t] for t in names}
        if "oneOf" in schema:
            out += self.one_of(schema, x, path, depth, blocks)
        emitters = (
            self.string_checks, self.number_checks, self.object_checks, self.array_checks
        )
        for kind, emit in zip(_KINDS, emitters):
            if kind not in kinds:
                continue
            exact = kinds == {kind}
            lines = emit(schema, x, path, depth if exact else depth + 1, blocks)
            if lines and not exact:
                out.append(pad + "if %s:" % _TYPE_TESTS[kind].format(x))
            out += lines
        return out

    def one_of(
        self, schema: Dict[str, Any], x: str, path: _Path, depth: int, blocks: int
    ) -> List[str]:
        pad = "    " * depth
        n = self.next()
        out = ["%s_m%d = 0" % (pad, n), "%s_e%d = []" % (pad, n)]
        for branch in schema["oneOf"]:
            body = self.node(branch, x, path, depth + 1, blocks + 1)
            if not body:
                out.append("%s_m%d += 1" % (pad, n))
                continue
            out.append(pad + "try:")
            out += body
            out.append("%s    _m%d += 1" % (pad, n))
            out.append(pad + "except _VE as _exc:")
            out.append("%s    _e%d.append(_exc.reason)" % (pad, n))
        message = "matched %d of oneOf branches (%s)"
        reason = "%r %% (_m%d, '; '.join(_e%d))" % (message, n, n)
        return out + _fail_if(depth, "_m%d != 1" % n, reason, path)

    def string_checks(
        self, schema: Dict[str, Any], x: str, path: _Path, depth: int, blocks: int
    ) -> List[str]:
        out: List[str] = []
        if "pattern" in schema:
            pattern = schema["pattern"]
            try:
                search = re.compile(pattern).search
            except (re.error, TypeError) as exc:
                raise SchemaError(
                    "schema pattern %r does not compile: %s" % (pattern, exc)
                ) from None
            out += _fail_if(
                depth,
                "%s(%s) is None" % (self.constant(search), x),
                "%r %% (%s, %s)"
                % ("%r does not match pattern %r", x, self.constant(pattern)),
                path,
            )
        for keyword, op, message in (
            ("minLength", "<", "string shorter than minLength %d"),
            ("maxLength", ">", "string longer than maxLength %d"),
        ):
            if keyword in schema:
                bound = self.constant(schema[keyword])
                test = "len(%s) %s %s" % (x, op, bound)
                out += _fail_if(depth, test, "%r %% %s" % (message, bound), path)
        return out

    def number_checks(
        self, schema: Dict[str, Any], x: str, path: _Path, depth: int, blocks: int
    ) -> List[str]:
        out: List[str] = []
        for keyword, op, message in (
            ("minimum", "<", "%r below minimum %r"),
            ("maximum", ">", "%r above maximum %r"),
        ):
            if keyword in schema:
                bound = self.constant(schema[keyword])
                test = "%s %s %s" % (x, op, bound)
                out += _fail_if(depth, test, "%r %% (%s, %s)" % (message, x, bound), path)
        return out

    def object_checks(
        self, schema: Dict[str, Any], x: str, path: _Path, depth: int, blocks: int
    ) -> List[str]:
        pad = "    " * depth
        out: List[str] = []
        for key in schema.get("required", []):
            required = self.constant(key)
            reason = "%r %% %s" % ("missing required property %r", required)
            out += _fail_if(depth, "%s not in %s" % (required, x), reason, path)
        properties = schema.get("properties", {})
        if not isinstance(properties, dict):
            raise SchemaError("properties must be a dict, got %r" % (properties,))
        additional = schema.get("additionalProperties", True)
        checked = isinstance(additional, dict) or additional is False

        # One pass over the instance's keys, in its order, as validate().
        n = self.next()
        key, value = "k%d" % n, "v%d" % n
        child = path.child("/%s", key)
        loop: List[str] = []
        for name, subschema in properties.items():
            body = self.node(subschema, value, child, depth + 2, blocks + 1)
            if not body:
                if not checked:
                    continue
                body = [pad + "        pass"]
            keyword = "elif" if loop else "if"
            loop.append("%s    %s %s == %s:" % (pad, keyword, key, self.constant(name)))
            loop += body
        rest_depth = depth + 2 if loop else depth + 1
        rest: List[str] = []
        if isinstance(additional, dict):
            rest = self.node(additional, value, child, rest_depth, blocks + 1)
        elif additional is False:
            reason = "%r %% %s" % ("unexpected property %r", key)
            rest = ["    " * rest_depth + "raise _VE(%s, %s)" % (reason, path.source())]
        if rest and loop:
            loop.append(pad + "    else:")
        loop += rest
        if loop:
            out.append("%sfor %s, %s in %s.items():" % (pad, key, value, x))
            out += loop
        return out

    def array_checks(
        self, schema: Dict[str, Any], x: str, path: _Path, depth: int, blocks: int
    ) -> List[str]:
        out: List[str] = []
        for keyword, op, message in (
            ("minItems", "<", "array shorter than minItems %d"),
            ("maxItems", ">", "array longer than maxItems %d"),
        ):
            if keyword in schema:
                bound = self.constant(schema[keyword])
                test = "len(%s) %s %s" % (x, op, bound)
                out += _fail_if(depth, test, "%r %% %s" % (message, bound), path)
        if "items" in schema:
            n = self.next()
            index, item = "i%d" % n, "v%d" % n
            child = path.child("/%d", index)
            body = self.node(schema["items"], item, child, depth + 1, blocks + 1)
            if body:
                pad = "    " * depth
                out.append("%sfor %s, %s in enumerate(%s):" % (pad, index, item, x))
                out += body
        return out


class Schema:
    """A reusable schema with ``is_valid`` / ``validate`` helpers.

    The definition is compiled once, at construction, into one
    generated function that raises exactly what :func:`validate`
    raises; later edits to ``definition`` are not seen.  A definition
    :func:`validate` rejects only on reaching its bad part -- an
    unknown type name, a subschema that is not a dict, a pattern that
    does not compile -- raises :class:`SchemaError` here instead.
    """

    def __init__(self, definition: Dict[str, Any], title: Optional[str] = None) -> None:
        if not isinstance(definition, dict):
            raise SchemaError("schema definition must be a dict")
        self.definition = definition
        self.title = title or definition.get("title", "schema")
        self._check = _Compiler().compile(definition, self.title)

    def validate(self, instance: Any) -> None:
        self._check(instance)

    def is_valid(self, instance: Any) -> bool:
        try:
            self.validate(instance)
            return True
        except ValidationError:
            return False

    def errors(self, instance: Any) -> List[str]:
        """Human-readable violations (currently first-failure only)."""
        try:
            self.validate(instance)
            return []
        except ValidationError as exc:
            return [str(exc)]

    def __repr__(self) -> str:
        return "Schema(%r)" % self.title


# ----------------------------------------------------------------------
# Schemas for the language's three document kinds (Figures 2-4).
# ----------------------------------------------------------------------

_HUMAN_DESCRIPTION = {
    "type": "object",
    "properties": {"more_info": {"type": "string"}},
}

_SPATIAL = {
    "type": "object",
    "required": ["name", "type"],
    "properties": {
        "name": {"type": "string", "minLength": 1},
        "type": {
            "type": "string",
            "enum": ["Campus", "Building", "Floor", "Zone", "Corridor", "Room"],
        },
        "id": {"type": "string"},
    },
}

_CONTEXT = {
    "type": "object",
    "required": ["location"],
    "properties": {
        "location": {
            "type": "object",
            "required": ["spatial"],
            "properties": {
                "spatial": _SPATIAL,
                "location_owner": {
                    "type": "object",
                    "required": ["name"],
                    "properties": {
                        "name": {"type": "string"},
                        "human_description": _HUMAN_DESCRIPTION,
                    },
                },
            },
        },
        "contact": {"type": "string"},
        "data_security": {"type": "string"},
    },
}

_SENSOR = {
    "type": "object",
    "required": ["type"],
    "properties": {
        "type": {"type": "string", "minLength": 1},
        "description": {"type": "string"},
        "subsystem": {"type": "string"},
    },
}

_PURPOSE_MAP = {
    "type": "object",
    "additionalProperties": {
        "oneOf": [
            {
                "type": "object",
                "properties": {"description": {"type": "string"}},
            },
            {"type": "string"},
        ]
    },
}

_OBSERVATION = {
    "type": "object",
    "required": ["name"],
    "properties": {
        "name": {"type": "string", "minLength": 1},
        "description": {"type": "string"},
        "granularity": {
            "type": "string",
            "enum": ["precise", "coarse", "building", "aggregate", "none"],
        },
        "inferred": {"type": "array", "items": {"type": "string"}},
    },
}

_RETENTION = {
    "type": "object",
    "required": ["duration"],
    "properties": {
        "duration": {"type": "string", "pattern": r"^P(\d+[YMWD])*(T(\d+[HMS])+)?$"},
        "description": {"type": "string"},
    },
}

#: Schema of Figure 2: a list of resources with context, sensor,
#: purpose, observations, and retention.
RESOURCE_POLICY_SCHEMA = Schema(
    {
        "title": "resource-policy",
        "type": "object",
        "required": ["resources"],
        "properties": {
            "resources": {
                "type": "array",
                "minItems": 1,
                "items": {
                    "type": "object",
                    "required": ["info", "context", "sensor", "purpose", "observations"],
                    "properties": {
                        "info": {
                            "type": "object",
                            "required": ["name"],
                            "properties": {
                                "name": {"type": "string", "minLength": 1},
                                "id": {"type": "string"},
                            },
                        },
                        "context": _CONTEXT,
                        "sensor": _SENSOR,
                        "purpose": _PURPOSE_MAP,
                        "observations": {
                            "type": "array",
                            "minItems": 1,
                            "items": _OBSERVATION,
                        },
                        "retention": _RETENTION,
                        "settings_url": {"type": "string"},
                    },
                },
            }
        },
    }
)

#: Schema of Figure 3: a service's observations and purpose.
SERVICE_POLICY_SCHEMA = Schema(
    {
        "title": "service-policy",
        "type": "object",
        "required": ["observations", "purpose"],
        "properties": {
            "observations": {
                "type": "array",
                "minItems": 1,
                "items": _OBSERVATION,
            },
            "purpose": {
                "type": "object",
                "required": ["service_id"],
                "properties": {"service_id": {"type": "string", "minLength": 1}},
                "additionalProperties": {
                    "oneOf": [
                        {
                            "type": "object",
                            "properties": {"description": {"type": "string"}},
                        },
                        {"type": "string"},
                    ]
                },
            },
            "developer": {
                "type": "object",
                "properties": {
                    "name": {"type": "string"},
                    "third_party": {"type": "boolean"},
                },
            },
        },
    }
)

#: Schema of Figure 4: selectable privacy settings.
SETTINGS_SCHEMA = Schema(
    {
        "title": "settings",
        "type": "object",
        "required": ["settings"],
        "properties": {
            "settings": {
                "type": "array",
                "minItems": 1,
                "items": {
                    "type": "object",
                    "required": ["select"],
                    "properties": {
                        "name": {"type": "string"},
                        "select": {
                            "type": "array",
                            "minItems": 1,
                            "items": {
                                "type": "object",
                                "required": ["description", "on"],
                                "properties": {
                                    "description": {"type": "string", "minLength": 1},
                                    "on": {"type": "string", "minLength": 1},
                                    "key": {"type": "string", "minLength": 1},
                                    "granularity": {
                                        "type": "string",
                                        "enum": [
                                            "precise",
                                            "coarse",
                                            "building",
                                            "aggregate",
                                            "none",
                                        ],
                                    },
                                },
                            },
                        },
                    },
                },
            }
        },
    }
)
