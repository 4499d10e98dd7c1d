# Common developer entry points.  Everything runs on the package in
# src/ with PYTHONPATH; its one runtime dependency, networkx, must be
# importable (pip install -e ".[dev]" installs it with the test tools).

PYTHON ?= python
PYTEST  = PYTHONPATH=src $(PYTHON) -m pytest

.PHONY: test test-fast diff-test bench-smoke bench lint lint-flow obs scenarios

# Full tier-1 suite: unit + integration + property tests.
test:
	$(PYTEST) -x -q

# Skip tests marked slow (multi-day simulation runs).
test-fast:
	$(PYTEST) -x -q -m "not slow"

# Differential proofs against reference implementations: compiled
# enforcement tables and their one entry point, ``decide_key``, for
# capture readings and queries alike (against the interpreter and a
# compiled engine that builds every request first), compiled
# schema validators, lazy admission steps, the WAL record field
# templates and WAL frames, the capture lane's audit bytes (every
# compiled row's payload tail, its fallbacks, and a crash on a served
# row against the interpreter's log), the batched capture tick (one
# WAL commit per tick) crashed at every append against a write-through
# run of the same tick, a compacted store against one
# that never compacts, the P005 shadowed-rule lint against the enforcement
# engine's decisions, and the scope algebra (covers, overlaps, key and
# conflict detection) against brute force over which requests each
# rule admits.  Also fuzzing: the WAL record decoder on arbitrary bytes
# and JSON values, and the round trip of every record type.  The ci
# Hypothesis profile generates 250 examples per property (>= 1000
# decisions checked against the reference interpreter per run).
diff-test:
	REPRO_DIFF_PROFILE=diff-ci $(PYTEST) tests/differential -q

# Sanity-pass the benchmark harness without timing loops: runs every
# figure, scale and ablation benchmark once and prints the metric
# baseline.
bench-smoke:
	$(PYTEST) benchmarks --benchmark-disable -q -s

# Perf trajectory: the bench test suite and the gate's checks against
# real measurements, then a fresh ci-scale run written to BENCH_PR.json
# (the CI artifact; never a baseline) and gated against the last
# committed BENCH_<n>.json record: each timed median within the two
# records' measured spread, each count exactly.
bench:
	$(PYTEST) -x -q tests/test_bench_schema.py tests/test_bench_cli.py \
	          benchmarks/test_bench_gate.py
	PYTHONPATH=src $(PYTHON) -m repro bench run --scale ci --out BENCH_PR.json
	PYTHONPATH=src $(PYTHON) -m repro bench compare --candidate BENCH_PR.json

# Static analysis: audit the DBH policy set, code-lint the tree, then
# prove the privacy-flow invariant over the call graph.
lint: lint-flow
	PYTHONPATH=src $(PYTHON) -m repro lint
	PYTHONPATH=src $(PYTHON) -m repro lint src tests benchmarks examples

# Interprocedural privacy-flow analysis (rules F001-F006) against the
# committed flow_baseline.json.
lint-flow:
	PYTHONPATH=src $(PYTHON) -m repro lint --flow src

# Run the Figure-1 scenario and print the observability snapshot.
obs:
	PYTHONPATH=src $(PYTHON) -m repro obs

# The five fault scenarios (chaos, recover, overload, federate,
# rebalance): their golden reports -- every pinned invocation's exact
# stdout under tests/golden -- and their test files.  After a deliberate
# report change, regenerate a golden by redirecting its command (listed
# in tests/test_golden_reports.py) into the file.
scenarios:
	$(PYTEST) -x -q tests/test_golden_reports.py tests/test_scenario_cli.py \
	          tests/test_chaos_scenario.py tests/test_storage_recovery.py \
	          tests/test_overload_scenario.py tests/test_federate_scenario.py \
	          tests/test_rebalance_scenario.py
