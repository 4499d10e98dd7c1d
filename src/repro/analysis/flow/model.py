"""The flow model: what counts as a source, sink, or sanitizer.

The analyzer itself (``analyzer.py``) is generic graph machinery; this
module pins the repo-specific facts.  Every spec is a regular
expression matched against fully-qualified function names of the form
``repro.tippers.bms.TIPPERS.locate_user`` (``module.Class.method`` or
``module.function``; a bare class qualname stands for its constructor).

Three taint roles:

**Sources** produce observation-derived data: sensor sampling entry
points, datastore/WAL reads of observation payloads, and the durable
audit log's reader of past decisions (each records a subject, a space
and a time).

**Sinks** release data beyond the enforcement boundary: query-response
construction, storage appends of observations, and IoTA notifications.
Bus publishes to non-constant targets are handled structurally (F006),
not by name.

**Sanitizers** are the enforcement crossings: ``engine.decide_key``,
the one decision body (a served row is audited exactly as a decided
one), and its key builders ``engine.decide`` and capture-phase
``enforce_observation`` (each in the caching subclass too), audited
fail-closed denials, and brownout coarsening.  A function that
*directly* calls a sanitizer is a *sanitizing wrapper* and blocks taint
-- directly, not transitively, so a rogue parallel path inside a
wrapper's caller is still caught.

The model also carries the **excluded module prefixes**: harness and
transport layers (simulation, bench, faults, analysis itself, obs,
errors, bus/codec internals) whose orchestration code would otherwise
manufacture false source-to-sink paths.  Their files still parse and
their bus registrations still feed the topic map; they just do not
join the taint graph.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, Pattern, Sequence, Tuple


def _compile(specs: Sequence[str]) -> Tuple[Pattern[str], ...]:
    return tuple(re.compile(spec) for spec in specs)


@dataclass(frozen=True)
class FlowModel:
    """One configuration of the privacy-flow analyzer."""

    source_specs: Tuple[str, ...]
    sink_specs: Tuple[str, ...]
    sanitizer_specs: Tuple[str, ...]
    #: Functions recording an audited denial; F004 accepts these (or a
    #: sanitizer) on any path that returns a denied response.
    audit_specs: Tuple[str, ...]
    #: Module prefixes excluded from the taint graph entirely.
    excluded_module_prefixes: Tuple[str, ...] = ()
    #: Qualnames allowed to contain unresolvable dynamic dispatch on a
    #: tainted path without tripping F006.  Entries that match no
    #: function containing a dynamic call site are reported as stale.
    dynamic_allowlist: Tuple[str, ...] = ()
    #: Fallback ``topic -> class qualname`` hints for bus registrations
    #: whose endpoint expression the call-graph builder cannot type.
    topic_hints: Dict[str, str] = field(default_factory=dict)

    def source_patterns(self) -> Tuple[Pattern[str], ...]:
        return _compile(self.source_specs)

    def sink_patterns(self) -> Tuple[Pattern[str], ...]:
        return _compile(self.sink_specs)

    def sanitizer_patterns(self) -> Tuple[Pattern[str], ...]:
        return _compile(self.sanitizer_specs)

    def audit_patterns(self) -> Tuple[Pattern[str], ...]:
        return _compile(self.audit_specs)

    def excludes(self, module: str) -> bool:
        return any(
            module == prefix or module.startswith(prefix + ".")
            for prefix in self.excluded_module_prefixes
        )


#: Method names so generic that an unresolved ``obj.<name>(...)`` call
#: is assumed to be a container/stdlib operation, not dispatch into the
#: privacy pipeline.  Keeps the call graph from exploding on ``append``
#: and friends.
GENERIC_METHOD_NAMES = frozenset({
    "add", "append", "clear", "copy", "count", "discard", "encode",
    "decode", "endswith", "extend", "find", "format", "get", "index",
    "inc", "isdigit", "items", "join", "keys", "lower", "lstrip",
    "observe", "partition", "pop", "popleft", "read", "remove",
    "replace", "rstrip", "set", "setdefault", "sort", "split",
    "splitlines", "startswith", "strip", "title", "update", "upper",
    "values", "write",
})
# NOTE: ``observe`` above is the *histogram* method; the sensor-side
# capture entry points are ``sample``/``sample_all``, which the default
# model marks as sources by qualname, so nothing is lost.

#: The repo's own model.  Kept as data so tests can build narrow
#: models and future layers can extend the specs without touching the
#: analyzer.
DEFAULT_MODEL = FlowModel(
    source_specs=(
        # Sensor capture entry points.
        r"^repro\.sensors\.[a-z_.]+\.[A-Za-z_]*Sensor[A-Za-z_]*\.sample$",
        r"^repro\.sensors\.subsystem\.SensorSubsystem\.sample_all$",
        r"^repro\.sensors\.drivers\.[A-Za-z_]+\.sample$",
        # Datastore reads of observation payloads.
        r"^repro\.tippers\.datastore\.Datastore\.(query|latest|of_subject)$",
        # WAL segment reads (the writer's resume scan; the lazy reader
        # behind recovery, compaction and the audit log).
        r"^repro\.storage\.wal\.(scan_segment|read_segment)$",
        # Past decisions, which the durable audit log reads from the WAL.
        r"^repro\.storage\.durable\.DurableAuditLog\.__iter__$",
    ),
    sink_specs=(
        # Query responses released to services.
        r"^repro\.tippers\.request_manager\.QueryResponse(\.denied)?$",
        # Storage appends of observations.
        r"^repro\.tippers\.datastore\.Datastore\.(insert|insert_many)$",
        r"^repro\.storage\.durable\.StorageEngine\.log_observation$",
        # IoTA notifications shown to the user.
        r"^repro\.iota\.notifications\.NotificationManager\.offer$",
    ),
    sanitizer_specs=(
        r"^repro\.core\.enforcement\.engine\.EnforcementEngine\."
        r"(decide|decide_key|enforce_observation|audit_degraded_denial)$",
        # Audited fail-closed denial (internal, but a legitimate block).
        r"^repro\.core\.enforcement\.engine\.EnforcementEngine\._fail_closed$",
        # Brownout coarsening degrades before release.
        r"^repro\.tippers\.request_manager\._brownout_granularity$",
        r"^repro\.core\.enforcement\.mechanisms\.degrade_observation$",
    ),
    audit_specs=(
        r"^repro\.core\.enforcement\.audit\.AuditLog\.append$",
        r"^repro\.storage\.durable\.DurableAuditLog\.append$",
        r"^repro\.core\.enforcement\.engine\.EnforcementEngine\._record$",
    ),
    excluded_module_prefixes=(
        "repro.analysis",
        "repro.bench",
        "repro.errors",
        "repro.faults",
        "repro.net.bus",
        "repro.net.codec",
        "repro.obs",
        "repro.simulation",
    ),
    dynamic_allowlist=(
        # The IoTA's one generic bus caller: its targets are the
        # building registries it discovered, all of which answer with
        # enforced data; reviewed 2026-08.
        "repro.iota.assistant.IoTAssistant._call",
        # Filter predicates over already-audited records: the caller
        # supplies a pure selector, never a release path; reviewed
        # 2026-08.
        "repro.core.enforcement.audit.AuditLog.records",
        # Capture gate is the enforcement hook itself (wired to
        # engine.enforce_observation by the subsystem's owner);
        # reviewed 2026-08.
        "repro.sensors.subsystem.SensorSubsystem.sample_all",
        # Query predicates filter rows in place; results still cross
        # the request manager's decide() before release; reviewed
        # 2026-08.
        "repro.tippers.datastore.Datastore.query",
    ),
    topic_hints={
        # scenario wiring registers endpoints via factory returns the
        # builder cannot always type; pin the paper's fixed topics.
        "tippers": "repro.tippers.bms.TIPPERS",
    },
)
