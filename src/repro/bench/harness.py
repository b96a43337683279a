"""Timing, reporting, and the persistent performance trajectory.

The paper's methodology (Section 5.2): timings are the minimum over many
runs; the time to rearrange data before or after each kernel — packing,
transposition, replicating the output — is not included.  We mirror that:
:func:`time_compiled_kernel` binds one execution plan outside the timed
region and times only its calls — the generated loops.

Beyond one-off reports, :func:`record` maintains a *perf trajectory*
file (``BENCH_backends.json`` at the repo root by convention): a merged,
diffable map of ``kernel x backend x threads -> {min, median, speedup}``
plus a machine fingerprint, so performance claims made by one change are
comparable against the history the previous changes checked in.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence

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
    measured runs (int or ``"auto"``).  Preparation, output allocation
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


def format_table(results: Sequence[BenchResult], title: str = "") -> str:
    """Render results as the rows the paper's figures plot."""
    if not results:
        return "(no results)"
    methods = sorted({m for r in results for m in r.times} - {"naive"})
    header = ["workload", "naive(s)"] + [
        "%s x" % m for m in methods
    ] + ["expected x"]
    rows = [header]
    for r in results:
        row = [r.workload, "%.4f" % r.times.get("naive", float("nan"))]
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
    import math

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


# ----------------------------------------------------------------------
# the persistent perf trajectory
# ----------------------------------------------------------------------
#: bump when the trajectory file schema changes shape.
TRAJECTORY_VERSION = 1

#: conventional trajectory filename (written at the repo root).
TRAJECTORY_FILENAME = "BENCH_backends.json"


_fingerprint_cache: Optional[Dict[str, object]] = None


def machine_fingerprint(refresh: bool = False) -> Dict[str, object]:
    """Enough machine identity to judge whether two entries are comparable.

    The fingerprint is computed once per process and cached (the toolchain
    probe behind it is subprocess-backed, and ``record`` used to pay it on
    every merge); ``refresh=True`` recomputes — for tests that change the
    probe's environment mid-process.  Callers get a copy they may mutate.
    """
    global _fingerprint_cache
    if _fingerprint_cache is None or refresh:
        import platform

        from repro.codegen.backends import ctoolchain
        from repro.core.config import cpu_count

        tc = ctoolchain.probe()
        _fingerprint_cache = {
            "platform": platform.platform(),
            "system": platform.system(),
            "machine": platform.machine(),
            "python": platform.python_version(),
            "cpus": cpu_count(),
            "toolchain": tc.describe() if tc else None,
            "openmp": bool(tc and tc.openmp),
        }
    return dict(_fingerprint_cache)


def load_trajectory(path: str) -> Optional[Dict[str, object]]:
    """The trajectory document at *path*, or None when absent/unreadable."""
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, ValueError):
        return None
    if not isinstance(doc, dict) or doc.get("version") != TRAJECTORY_VERSION:
        return None
    return doc


def _stamp_dtype(key: str, entry: Dict[str, object]) -> Dict[str, object]:
    """Ensure an entry carries its element dtype.

    Every measurement is made in a concrete dtype; entries that predate
    the dtype axis (or sweeps that forgot to tag it) are stamped from the
    key convention — a ``/f32`` suffix means float32, everything else is
    the float64 default — so consumers never have to guess.
    """
    if "dtype" not in entry:
        entry["dtype"] = "float32" if key.endswith("/f32") else "float64"
    return entry


def _stamp_obs(
    entry: Dict[str, object], state: Optional[str] = None
) -> Dict[str, object]:
    """Ensure an entry records the observability state it was measured in.

    Instrumented runs are not comparable to clean ones: a trajectory entry
    measured under ``REPRO_TRACE=1`` carries per-call span recording that
    an ``obs: off`` entry does not.  New measurements are stamped with the
    live :func:`repro.obs.state`; entries that predate the axis default to
    ``"off"`` (nothing before it could have been instrumented).
    """
    if "obs" not in entry:
        entry["obs"] = "off" if state is None else state
    return entry


def record(
    path: str,
    entries: Mapping[str, Mapping[str, object]],
    note: Optional[str] = None,
) -> Dict[str, object]:
    """Merge *entries* into the trajectory file at *path* and rewrite it.

    ``entries`` maps stable keys (``"<kernel>/<backend>@t<threads>"`` by
    convention — see :func:`trajectory_entries`) to measurement dicts.
    Existing entries under other keys survive, re-measured keys are
    overwritten, and the machine fingerprint + timestamp are refreshed —
    so consecutive benchmark runs produce a meaningful diff, not a
    rewrite.  Every entry (new or surviving) is guaranteed ``dtype`` and
    ``obs`` stamps on the way out (new measurements record the live
    observability state; pre-axis survivors default to ``"off"``).
    Returns the merged document.
    """
    from repro.obs import state as obs_state

    doc = load_trajectory(path) or {
        "version": TRAJECTORY_VERSION,
        "entries": {},
    }
    merged = {
        key: _stamp_obs(_stamp_dtype(key, dict(value)))
        for key, value in doc.get("entries", {}).items()
    }
    live = obs_state()
    for key, value in entries.items():
        merged[key] = _stamp_obs(_stamp_dtype(key, dict(value)), live)
    doc["version"] = TRAJECTORY_VERSION
    doc["updated"] = time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime())
    doc["machine"] = machine_fingerprint()
    if note is not None:
        doc["note"] = note
    doc["entries"] = {key: merged[key] for key in sorted(merged)}
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=False)
        f.write("\n")
    os.replace(tmp, path)
    return doc


def trajectory_entries(
    results: Sequence[BenchResult],
    threads: int = 1,
    dtype: str = "float64",
) -> Dict[str, Dict[str, object]]:
    """Flatten figure-driver results into trajectory entries.

    Every ``(workload, method)`` timing becomes one entry keyed
    ``"<figure>/<workload>/<method>@t<threads>"`` carrying the measured
    seconds, the workload parameters, and the speedup over the row's
    naive baseline where one was measured.  Non-default dtypes append a
    ``/f32``-style suffix so precision sweeps never overwrite the
    float64 history.
    """
    entries: Dict[str, Dict[str, object]] = {}
    suffix = "" if dtype == "float64" else "/f32"
    for result in results:
        speedups = result.speedups
        for method, seconds in result.times.items():
            key = "%s/%s/%s@t%d%s" % (
                result.figure, result.workload, method, threads, suffix
            )
            entry: Dict[str, object] = {
                "seconds": seconds,
                "threads": threads,
                "dtype": dtype,
                "params": dict(result.params),
            }
            if method in speedups:
                entry["speedup_vs_naive"] = speedups[method]
            entries[key] = entry
    return entries
