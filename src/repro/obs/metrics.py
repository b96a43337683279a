"""Counters and fixed-bucket latency histograms (the daemon's payload).

A minimal metrics facility in the spirit of Prometheus client libraries,
with the same zero-overhead-when-off contract as :mod:`repro.obs.trace`:
the module-level :func:`inc`/:func:`observe` helpers check one module
flag and return immediately while metrics are disabled, so instrumented
sites cost a function call and a boolean test.

Enable with ``REPRO_METRICS=1`` (read at import) or :func:`enable`.
Instrumented sites across the service layer then feed the process-wide
:class:`MetricsRegistry`:

* counters — ``service.requests``, ``service.origin.memory`` /
  ``.disk`` / ``.compiled``, ``service.remote.retries`` (daemon client),
  ``store.puts`` / ``store.evictions``, ``tensor.sort.skipped`` /
  ``.linear`` / ``.lexsort_fallback``, ``serve.bytes_in`` /
  ``.bytes_out`` (daemon frame bytes) …
* histograms — ``service.compile_seconds``, ``plan.dispatch_seconds``,
  ``serve.request_seconds`` …

``registry().to_dict()`` is the JSON payload ``repro stats --json``
serves (merged into ``ServiceStats``) — and the shape the ``repro
serve`` daemon's live ``stats`` endpoint returns.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from contextlib import contextmanager
from time import perf_counter
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.config import knob

#: default latency buckets (seconds): 1µs to 10s, quasi-logarithmic.
#: Wide enough for both a 1.3µs plan dispatch and a 100ms cold compile.
DEFAULT_LATENCY_BOUNDS: Tuple[float, ...] = (
    1e-6, 2.5e-6, 5e-6,
    1e-5, 2.5e-5, 5e-5,
    1e-4, 2.5e-4, 5e-4,
    1e-3, 2.5e-3, 5e-3,
    1e-2, 2.5e-2, 5e-2,
    0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0,
)


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n

    def to_dict(self) -> int:
        return self.value


class Histogram:
    """Fixed upper-bound buckets plus count/sum/min/max.

    ``bounds`` are inclusive upper bounds (``value <= bound`` lands in
    that bucket); values above the last bound land in the overflow
    bucket.  Bucket counts are per-bucket (not cumulative); the exported
    dict labels each with its ``le`` bound, ``"+Inf"`` for the overflow.
    """

    __slots__ = ("bounds", "counts", "count", "total", "vmin", "vmax")

    def __init__(self, bounds: Sequence[float] = DEFAULT_LATENCY_BOUNDS):
        bounds = tuple(float(b) for b in bounds)
        if not bounds:
            raise ValueError("a histogram needs at least one bucket bound")
        if list(bounds) != sorted(bounds):
            raise ValueError("histogram bounds must be sorted ascending")
        self.bounds = bounds
        self.counts: List[int] = [0] * (len(bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.vmin: Optional[float] = None
        self.vmax: Optional[float] = None

    def observe(self, value: float) -> None:
        value = float(value)
        self.counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        if self.vmin is None or value < self.vmin:
            self.vmin = value
        if self.vmax is None or value > self.vmax:
            self.vmax = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def to_dict(self) -> dict:
        buckets = [
            {"le": bound, "count": self.counts[i]}
            for i, bound in enumerate(self.bounds)
        ]
        buckets.append({"le": "+Inf", "count": self.counts[-1]})
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.vmin,
            "max": self.vmax,
            "mean": self.mean,
            "buckets": buckets,
        }


class MetricsRegistry:
    """Named counters and histograms, created on first use."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._histograms: Dict[str, Histogram] = {}

    # ------------------------------------------------------------------
    def counter(self, name: str) -> Counter:
        with self._lock:
            counter = self._counters.get(name)
            if counter is None:
                counter = self._counters[name] = Counter()
            return counter

    def histogram(
        self, name: str, bounds: Sequence[float] = DEFAULT_LATENCY_BOUNDS
    ) -> Histogram:
        with self._lock:
            hist = self._histograms.get(name)
            if hist is None:
                hist = self._histograms[name] = Histogram(bounds)
            return hist

    def inc(self, name: str, n: int = 1) -> None:
        counter = self.counter(name)
        with self._lock:
            counter.inc(n)

    def observe(self, name: str, value: float) -> None:
        hist = self.histogram(name)
        with self._lock:
            hist.observe(value)

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Alias of :meth:`to_dict` (the live-endpoint payload)."""
        return self.to_dict()

    def to_dict(self) -> dict:
        with self._lock:
            return {
                "counters": {
                    name: c.to_dict() for name, c in sorted(self._counters.items())
                },
                "histograms": {
                    name: h.to_dict()
                    for name, h in sorted(self._histograms.items())
                },
            }

    def reset(self) -> None:
        with self._lock:
            self._counters.clear()
            self._histograms.clear()


#: the process-wide registry; always present so handles stay valid
#: across enable/disable flips.
_registry = MetricsRegistry()

_enabled = knob("REPRO_METRICS")


def registry() -> MetricsRegistry:
    return _registry


def enabled() -> bool:
    return _enabled


def enable() -> None:
    global _enabled
    _enabled = True


def disable() -> bool:
    """Turn collection off; returns the previous enabled state."""
    global _enabled
    previous = _enabled
    _enabled = False
    return previous


def inc(name: str, n: int = 1) -> None:
    """Bump a counter iff metrics are enabled (the instrumented-site API)."""
    if _enabled:
        _registry.inc(name, n)


def observe(name: str, value: float) -> None:
    """Record a histogram sample iff metrics are enabled."""
    if _enabled:
        _registry.observe(name, value)


@contextmanager
def timed(name: str) -> Iterator[None]:
    """Time a block into histogram *name* (no-op while disabled)."""
    if not _enabled:
        yield
        return
    start = perf_counter()
    try:
        yield
    finally:
        _registry.observe(name, perf_counter() - start)


def to_dict() -> dict:
    """The registry payload (regardless of the enabled flag)."""
    return _registry.to_dict()
