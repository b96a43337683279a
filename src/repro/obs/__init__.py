"""``repro.obs`` — tracing, metrics and kernel profiling.

Three independent, zero-overhead-when-off facilities, each with its own
environment knob:

* :mod:`repro.obs.trace` (``REPRO_TRACE=1``) — spans over the compile
  pipeline, the kernel service and plan execution; exports Chrome
  ``trace_event`` JSON (``repro trace``) and a human tree
  (``repro compile --trace``).
* :mod:`repro.obs.metrics` (``REPRO_METRICS=1``) — counters and
  fixed-bucket latency histograms, merged into ``ServiceStats`` and
  served by ``repro stats --json``.
* :mod:`repro.obs.profile` (``REPRO_PROFILE=1``) — per-nest wall-time
  instrumentation compiled *into* C kernels, keyed separately so
  profiled builds never alias production artifacts.

The package is stdlib-only and sits below every other ``repro`` module
(it imports only :mod:`repro.core.config`), so any layer can instrument
itself without import cycles.
"""

from __future__ import annotations

from repro.obs import metrics, profile, trace
from repro.obs.metrics import Counter, Histogram, MetricsRegistry
from repro.obs.profile import NestProfile, NestReport, profile_kernel
from repro.obs.trace import (
    TraceRecorder,
    chrome_trace,
    format_tree,
    span,
    tracing,
    write_chrome_trace,
)

__all__ = [
    "Counter",
    "Histogram",
    "MetricsRegistry",
    "NestProfile",
    "NestReport",
    "TraceRecorder",
    "chrome_trace",
    "format_tree",
    "metrics",
    "profile",
    "profile_kernel",
    "span",
    "trace",
    "tracing",
    "write_chrome_trace",
]

