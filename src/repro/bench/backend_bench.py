"""Microbenchmark: Python vs C execution backend on the figure kernels.

The two backends run the *same* generated loop structure over the same
prepared fibertree arrays; the only difference is interpreted Python vs a
``cc -O3`` shared object — and, with OpenMP, how many cores the C loops
use.  Timings follow the paper's methodology (only the kernel's timed
region; preparation excluded), and results reuse the
:class:`~repro.bench.harness.BenchResult` JSON shape the other benchmark
drivers emit — ``times["naive"]`` holds the Python-backend time so the
standard ``speedups`` accounting reports the C speedup directly; each
additional thread count adds a ``c@t<N>`` column.

Before any timing is reported, every configuration's output is checked:
the C backend must be **bit-identical** to Python (per element dtype —
the ``-ffp-contract=off`` / weak-scalar-mirroring contract the renderer
makes), and every threaded run must be bit-identical to ``threads=1``
(reduction-safe scheduling).
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from repro.bench.harness import (
    BenchResult,
    TimingStats,
    time_callable_stats,
)
from repro.core.config import DEFAULT
from repro.data.random_tensors import erdos_renyi_symmetric, random_dense
from repro.frontend.parser import parse_assignment
from repro.kernels.library import get_kernel

#: kernels compared by default: two sparse matrix kernels and one higher
#: order tensor kernel, matching the figure suite's spread.
BACKEND_BENCH_KERNELS = ("ssymv", "ssyrk", "mttkrp3d")

#: the historical problem size; its trajectory keys stay unsuffixed so the
#: perf history committed before the size axis existed remains diffable.
LEGACY_N = 2000

#: the serial -> parallel crossover sweep: sizes (with denser rows at the
#: top end) that bracket where the cost model should flip ``threads=auto``
#: from serial to a team.
CROSSOVER_SIZES = (2000, 8000, 20000)


def _inputs_for(name: str, n: int, nnz_per_row: float, seed: int = 11) -> Dict:
    spec = get_kernel(name)
    if name == "mttkrp3d":
        side = max(24, int(round(n ** (2.0 / 3.0))))
        density = min(1.0, 6.0 * nnz_per_row / (side * side))
        A = erdos_renyi_symmetric(side, 3, density, seed=seed)
        return {"A": A, "B": random_dense((side, 16), seed=seed + 1)}
    density = min(1.0, nnz_per_row / n)
    A = erdos_renyi_symmetric(n, 2, density, seed=seed)
    args: Dict = {"A": A}
    for acc in parse_assignment(spec.einsum).accesses:
        if acc.tensor != "A" and acc.tensor not in args:
            args[acc.tensor] = random_dense((n,) * len(acc.indices), seed=seed + 2)
    return args


def _method_name(thread_count: int) -> str:
    return "c" if thread_count == 1 else "c@t%d" % thread_count


def _bind(kernel, prepared, shape, threads=None):
    """``(plan, output)``: the plan a configuration is timed through,
    bound here so no timed call includes a bind, and a copy of its
    finalized warm-up result (the plan's buffer is reused by every call)."""
    plan = kernel.bound.plan_prepared(prepared, shape, threads=threads)
    return plan, np.array(kernel.finalize(plan()))


def bench_backends(
    names: Sequence[str] = BACKEND_BENCH_KERNELS,
    n: int = 1500,
    nnz_per_row: float = 12.0,
    repeats: int = 5,
    threads: Sequence[int] = (1,),
    dtype: str = "float64",
    auto: bool = False,
) -> List[BenchResult]:
    """Time each kernel under both backends (and thread counts) on
    identical inputs.  Raises when any configuration's output diverges.

    ``dtype`` selects the element precision both backends run in —
    float32 halves the value-array traffic of these bandwidth-bound
    kernels, and the cross-backend bit-identity contract holds per dtype.
    ``auto`` additionally measures ``threads="auto"`` — the cost-model
    resolution — as a ``c@auto`` column, with the count it resolved to in
    the row's params.
    """
    thread_counts = sorted({max(1, int(t)) for t in threads} | {1})
    results: List[BenchResult] = []
    for name in names:
        spec = get_kernel(name)
        inputs = _inputs_for(name, n, nnz_per_row)
        stats: Dict[str, TimingStats] = {}

        # preparation (the paper's untimed setup) runs once per backend and
        # each configuration binds its plan outside the timed region
        kernel = spec.compile(options=DEFAULT.but(backend="python", dtype=dtype))
        prepared, shape = kernel.prepare(**inputs)
        plan, py_out = _bind(kernel, prepared, shape)
        stats["naive"] = time_callable_stats(plan, repeats=repeats)

        kernel = spec.compile(options=DEFAULT.but(backend="c", dtype=dtype))
        prepared, shape = kernel.prepare(**inputs)
        plan, base_out = _bind(kernel, prepared, shape, threads=1)
        if not np.array_equal(py_out, base_out):
            raise AssertionError(
                "backend outputs diverge on %s (%s) — refusing to report "
                "timings" % (name, dtype)
            )
        for count in thread_counts:
            if count > 1:
                plan, threaded = _bind(kernel, prepared, shape, threads=count)
                if not np.array_equal(base_out, threaded):
                    raise AssertionError(
                        "threads=%d output of %s is not bit-identical to "
                        "threads=1 — refusing to report timings" % (count, name)
                    )
            stats[_method_name(count)] = time_callable_stats(plan, repeats=repeats)
        resolved_auto = None
        if auto:
            plan, auto_out = _bind(kernel, prepared, shape, threads="auto")
            resolved_auto = plan.threads
            if not np.array_equal(base_out, auto_out):
                raise AssertionError(
                    "threads=auto output of %s is not bit-identical to "
                    "threads=1 — refusing to report timings" % name
                )
            stats["c@auto"] = time_callable_stats(plan, repeats=repeats)

        times = {method: s.best for method, s in stats.items()}
        nnz = inputs["A"].nnz
        params = {
            "n": n,
            "nnz_canonical": int(nnz),
            "threads": thread_counts,
            "dtype": dtype,
        }
        if resolved_auto is not None:
            params["auto_resolved_threads"] = int(resolved_auto)
        result = BenchResult(
            figure="backends",
            workload=name,
            params=params,
            times=times,
            expected_speedup=10.0,
        )
        result.stats = stats  # medians ride along for the trajectory
        results.append(result)
    return results


#: the pass-set acceptance sweep: (kernel, n, nnz_per_row, REPRO_PASSES
#: spec).  ssyrk's dense-row output is where cache-blocking pays — the
#: row-block tile keeps the written C-rows resident while the fiber walk
#: streams A; measured win on a 1-core container: ~1.6x at this shape.
PASS_BENCH_CONFIGS = (("ssyrk", 2000, 64.0, "none,tile"),)


def bench_pass_sets(
    configs: Sequence = PASS_BENCH_CONFIGS,
    repeats: int = 5,
    dtype: str = "float64",
) -> List[BenchResult]:
    """Time kernels under a loop-pass selection against the unoptimized
    pipeline (the ``none`` pass set), single-threaded.

    Both builds run the same prepared arguments and must agree bitwise
    before any timing is reported — the pass pipeline's contract is
    "faster, not different".  ``times["naive"]`` holds the pass-less
    build so the standard ``speedups`` accounting reports the pass win
    directly.
    """
    from dataclasses import replace

    from repro.codegen.passes import PassConfig, parse_passes
    from repro.service.keys import canonicalize

    results: List[BenchResult] = []
    for name, n, nnz_per_row, passes in configs:
        spec = get_kernel(name)
        inputs = _inputs_for(name, int(n), float(nnz_per_row))
        request = canonicalize(
            spec.einsum,
            symmetric=dict(spec.symmetric),
            loop_order=spec.loop_order,
            formats=dict(spec.formats),
            options=DEFAULT.but(backend="c", dtype=dtype),
        )
        stats: Dict[str, TimingStats] = {}
        outputs = {}
        # the same resolved request twice, differing only in the pass set
        for column, enabled in (("naive", ()), ("c", parse_passes(passes))):
            config = replace(request.codegen, passes=PassConfig(enabled))
            kernel = replace(request, codegen=config).compile()
            prepared, shape = kernel.prepare(**inputs)
            plan, outputs[column] = _bind(kernel, prepared, shape, threads=1)
            stats[column] = time_callable_stats(plan, repeats=repeats)
        signature = config.passes.signature()
        if not np.array_equal(outputs["naive"], outputs["c"]):
            raise AssertionError(
                "pass set %r changes %s output — refusing to report "
                "timings" % (signature, name)
            )

        result = BenchResult(
            figure="passes",
            workload=name,
            params={
                "n": int(n),
                "nnz_per_row": float(nnz_per_row),
                "nnz_canonical": int(inputs["A"].nnz),
                "passes": signature,
                "dtype": dtype,
            },
            times={m: s.best for m, s in stats.items()},
            expected_speedup=1.15,
        )
        result.stats = stats
        results.append(result)
    return results


def pass_trajectory_entries(
    results: Sequence[BenchResult],
) -> Dict[str, Dict[str, object]]:
    """``kernel@n<size>d<nnz>/c@t1/passes=<signature>`` -> measurement.

    Each pass-bench row lands as two entries — the pass-less baseline
    (``passes=none``) and the selection under test, the latter carrying
    ``speedup_vs_none`` (the acceptance number; the bar is a >= 1.15x
    median win on at least one figure kernel).
    """
    entries: Dict[str, Dict[str, object]] = {}
    for result in results:
        stats: Dict[str, TimingStats] = getattr(result, "stats", {})
        base = "%s@n%dd%d/c@t1/passes=" % (
            result.workload,
            result.params["n"],
            int(result.params["nnz_per_row"]),
        )
        none = stats.get("naive")
        for method, key in (("naive", base + "none"),
                            ("c", base + result.params["passes"])):
            stat = stats.get(method)
            if stat is None:
                continue
            entry: Dict[str, object] = {
                "min_s": stat.best,
                "median_s": stat.median,
                "runs": stat.runs,
                "n": result.params["n"],
                "nnz_canonical": result.params["nnz_canonical"],
                "dtype": result.params["dtype"],
            }
            if method == "c" and none is not None and stat.median:
                entry["speedup_vs_none"] = none.median / stat.median
            entries[key] = entry
    return entries


def format_pass_report(results: Sequence[BenchResult]) -> str:
    header = "%-10s %8s %10s %-24s %12s %12s %9s" % (
        "kernel", "n", "nnz", "passes", "none(s)", "passes(s)", "speedup"
    )
    lines = [header]
    for r in results:
        none = r.stats["naive"].median
        opt = r.stats["c"].median
        lines.append(
            "%-10s %8d %10d %-24s %12.6f %12.6f %8.2fx"
            % (
                r.workload,
                r.params["n"],
                r.params["nnz_canonical"],
                r.params["passes"],
                none,
                opt,
                none / opt if opt else float("nan"),
            )
        )
    return "\n".join(lines)


def backend_trajectory_entries(
    results: Sequence[BenchResult],
) -> Dict[str, Dict[str, object]]:
    """``kernel[@n<size>]/backend@t<threads>[/f32]`` -> measurement.

    The speedup reference is the Python backend (``speedup_vs_python``),
    and threaded entries additionally report their scaling over the
    single-threaded C run (``speedup_vs_c1``) — the serial -> parallel
    crossover signal; a ``c@auto`` sweep lands under ``c@auto`` keys with
    the thread count the cost model resolved to.  Sizes other than the
    historical :data:`LEGACY_N` tag the kernel segment (``ssymv@n8000``)
    so the size axis never overwrites the n=2000 history.  float32 runs
    append a ``/f32`` key suffix, keeping the float64 history diffable;
    pair the two sweeps with :func:`annotate_f32_speedups` to record the
    precision speedup itself.
    """
    entries: Dict[str, Dict[str, object]] = {}
    for result in results:
        stats: Dict[str, TimingStats] = getattr(result, "stats", {})
        dtype = result.params.get("dtype", "float64")
        suffix = "" if dtype == "float64" else "/f32"
        n = result.params["n"]
        workload = result.workload
        if n != LEGACY_N:
            workload = "%s@n%d" % (workload, n)
        python = stats.get("naive")
        c_serial = stats.get("c")
        for method, stat in stats.items():
            if method == "naive":
                key = "%s/python@t1%s" % (workload, suffix)
            elif method == "c":
                key = "%s/c@t1%s" % (workload, suffix)
            elif method == "c@auto":
                key = "%s/c@auto%s" % (workload, suffix)
            else:  # "c@tN"
                key = "%s/c@t%s%s" % (workload, method.split("@t")[1], suffix)
            entry: Dict[str, object] = {
                "min_s": stat.best,
                "median_s": stat.median,
                "runs": stat.runs,
                "n": n,
                "nnz_canonical": result.params["nnz_canonical"],
                "dtype": dtype,
            }
            if method == "c@auto" and "auto_resolved_threads" in result.params:
                entry["resolved_threads"] = result.params[
                    "auto_resolved_threads"
                ]
            if python is not None and method != "naive" and stat.best:
                entry["speedup_vs_python"] = python.best / stat.best
            if c_serial is not None and method.startswith("c@") and stat.best:
                entry["speedup_vs_c1"] = c_serial.best / stat.best
            entries[key] = entry
    return entries


def format_crossover_table(results: Sequence[BenchResult]) -> str:
    """Per kernel x size: serial time, thread scaling, and what ``auto`` did.

    The table the README's performance guide embeds — it reads the
    serial -> parallel crossover straight off a multi-size sweep.
    """
    header = "%-10s %8s %10s %10s" % ("kernel", "n", "nnz", "c@t1(s)")
    methods = sorted(
        {m for r in results for m in r.times if m.startswith("c@t")},
        key=lambda m: int(m.split("@t")[1]),
    )
    for method in methods:
        header += " %9s" % ("t%s/t1" % method.split("@t")[1])
    header += " %10s" % "auto"
    lines = [header]
    for r in sorted(results, key=lambda r: (r.workload, r.params["n"])):
        c1 = r.times.get("c")
        line = "%-10s %8d %10d %10.6f" % (
            r.workload,
            r.params["n"],
            r.params["nnz_canonical"],
            c1 if c1 else float("nan"),
        )
        for method in methods:
            t = r.times.get(method)
            line += " %8.2fx" % (c1 / t) if (c1 and t) else " %9s" % "-"
        if "c@auto" in r.times:
            line += " %10s" % ("t=%d" % r.params.get("auto_resolved_threads", 1))
        else:
            line += " %10s" % "-"
        lines.append(line)
    return "\n".join(lines)


def annotate_f32_speedups(
    entries: Dict[str, Dict[str, object]]
) -> Dict[str, Dict[str, object]]:
    """Add ``speedup_vs_f64`` to every ``/f32`` entry with a float64 twin.

    The ratio is min-over-min of the same kernel/backend/threads cell —
    the memory-bandwidth win of halving the element size (up to ~2x on
    the bandwidth-bound kernels).  Entries without a twin are left alone.
    """
    for key, entry in entries.items():
        if not key.endswith("/f32"):
            continue
        twin = entries.get(key[: -len("/f32")])
        if twin and twin.get("min_s") and entry.get("min_s"):
            entry["speedup_vs_f64"] = twin["min_s"] / entry["min_s"]
    return entries


def format_backend_report(results: Sequence[BenchResult]) -> str:
    methods = ["naive", "c"] + sorted(
        {m for r in results for m in r.times if m.startswith("c@t")},
        key=lambda m: int(m.split("@t")[1]),
    )
    if any("c@auto" in r.times for r in results):
        methods.append("c@auto")
    header = "%-10s %8s" % ("kernel", "nnz")
    for method in methods:
        label = "python(s)" if method == "naive" else "%s(s)" % method
        header += " %12s" % label
    header += " %9s" % "speedup"
    lines = [header]
    for r in results:
        line = "%-10s %8d" % (r.workload, r.params["nnz_canonical"])
        for method in methods:
            line += (
                " %12.6f" % r.times[method] if method in r.times else " %12s" % "-"
            )
        best_c = min(
            (t for m, t in r.times.items() if m != "naive" and t), default=None
        )
        if best_c:
            line += " %8.1fx" % (r.times["naive"] / best_c)
        lines.append(line)
    return "\n".join(lines)
