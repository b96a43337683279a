"""Timing and reporting for the figure drivers.

The paper's methodology (Section 5.2): timings are the minimum over many
runs; the time to rearrange data before or after each kernel — packing,
transposition, replicating the output — is not included.  We mirror that:
:func:`time_compiled_kernel` binds one execution plan outside the timed
region and times only its calls — the generated loops.

Nothing here is recorded or gated: the repository's one benchmark is
``benchmarks/e2e`` (``BENCHMARK.json``).  These helpers serve
:mod:`repro.bench.figures` (``repro bench figNN``) and the examples.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import asdict, dataclass
from typing import Callable, Dict, List, Sequence

import numpy as np

from repro.core.compiler import CompiledKernel


@dataclass(frozen=True)
class TimingStats:
    """Adaptive-repeat timing summary for one measured callable."""

    best: float  # minimum (the paper's reported statistic)
    median: float
    runs: int


def time_callable_stats(
    fn: Callable[[], object],
    repeats: int = 5,
    min_time: float = 0.05,
    max_time: float = 2.0,
) -> TimingStats:
    """Best/median wall-clock time of ``fn()`` over adaptive repeats."""
    samples: List[float] = []
    total = 0.0
    while len(samples) < repeats or (total < min_time and total < max_time):
        start = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - start
        samples.append(elapsed)
        total += elapsed
        if total >= max_time:
            break
    ordered = sorted(samples)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        median = ordered[mid]
    else:
        median = 0.5 * (ordered[mid - 1] + ordered[mid])
    return TimingStats(best=ordered[0], median=median, runs=len(ordered))


def time_callable(
    fn: Callable[[], object],
    repeats: int = 5,
    min_time: float = 0.05,
    max_time: float = 2.0,
) -> float:
    """Minimum wall-clock time of ``fn()`` over adaptive repeats (seconds)."""
    return time_callable_stats(fn, repeats, min_time, max_time).best


def time_compiled_kernel_stats(
    kernel: CompiledKernel,
    repeats: int = 5,
    threads=None,
    **tensors,
) -> TimingStats:
    """Best/median of the kernel's timed region only (preparation excluded).

    ``threads`` overrides the kernel's runtime thread count for the
    measured runs (a positive int).  Preparation, output allocation
    and argument marshaling happen once, in the
    :meth:`~repro.core.compiler.CompiledKernel.execution_plan` built
    here; each measured call is one call of that plan.
    """
    plan = kernel.execution_plan(threads=threads, **tensors)
    plan()  # warm up
    return time_callable_stats(plan, repeats=repeats)


def time_compiled_kernel(
    kernel: CompiledKernel,
    repeats: int = 5,
    threads=None,
    **tensors,
) -> float:
    """Time the kernel's timed region only (preparation excluded)."""
    return time_compiled_kernel_stats(
        kernel, repeats=repeats, threads=threads, **tensors
    ).best


@dataclass
class BenchResult:
    """One row of a figure: a workload and its per-method timings."""

    figure: str
    workload: str
    params: Dict[str, object]
    times: Dict[str, float]
    expected_speedup: float

    @property
    def speedups(self) -> Dict[str, float]:
        """Speedup of every method relative to naive (the paper's red line)."""
        naive = self.times.get("naive")
        if not naive:
            return {}
        return {
            name: naive / t for name, t in self.times.items() if t and name != "naive"
        }

    def to_json(self) -> Dict[str, object]:
        d = asdict(self)
        d["speedups"] = self.speedups
        return d


def _format_ms(seconds: float) -> str:
    """Milliseconds to four significant digits, never in exponent form."""
    return np.format_float_positional(
        1e3 * seconds, precision=4, fractional=False, trim="-"
    )


def format_table(results: Sequence[BenchResult], title: str = "") -> str:
    """Render results as the rows the paper's figures plot."""
    if not results:
        return "(no results)"
    methods = sorted({m for r in results for m in r.times} - {"naive"})
    header = ["workload", "naive(ms)"] + [
        "%s x" % m for m in methods
    ] + ["expected x"]
    rows = [header]
    for r in results:
        row = [r.workload, _format_ms(r.times.get("naive", float("nan")))]
        sp = r.speedups
        for m in methods:
            row.append("%.2f" % sp[m] if m in sp else "-")
        row.append("%.1f" % r.expected_speedup)
        rows.append(row)
    widths = [max(len(row[c]) for row in rows) for c in range(len(header))]
    lines = []
    if title:
        lines.append(title)
    for n, row in enumerate(rows):
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
        if n == 0:
            lines.append("-" * (sum(widths) + 2 * (len(widths) - 1)))
    return "\n".join(lines)


def geometric_mean(values: Sequence[float]) -> float:
    if not values:
        return float("nan")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def summarize_speedups(results: Sequence[BenchResult], method: str = "systec") -> float:
    """Geometric-mean speedup of a method over naive across results."""
    return geometric_mean([r.speedups[method] for r in results if method in r.speedups])


def dump_json(results: Sequence[BenchResult], path: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    with open(path, "w") as f:
        json.dump([r.to_json() for r in results], f, indent=2)
