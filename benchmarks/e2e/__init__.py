"""The repository's end-to-end benchmark (see README.md beside this file).

Four closed-loop workloads over the real request paths, four gated end-to-end
metrics measured with tracing off, and a traced pass that attributes an
operation's time to the layers of ``src/repro``.  ``BENCHMARK.json`` at the
repository root names the command, the workloads and every metric.
"""
