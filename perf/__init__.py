"""The benchmark: workloads, outside-in tracer, runner and comparator."""
