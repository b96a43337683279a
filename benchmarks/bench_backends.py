"""Execution-backend microbenchmark: Python vs C (x threads) on figure kernels.

Demonstrates the backend-layer acceptance bars: the C backend is >= 10x
faster than the Python backend on at least one sparse kernel at n >= 1000
(in practice it is hundreds of times faster — compiled loops vs
interpreted ``pos``/``idx`` walks over the same arrays), and with OpenMP
and >= 4 visible cores the threaded C backend beats single-threaded C by
>= 2x on at least two figure kernels, bit-identically.

Run standalone (prints a report, optionally updates the perf trajectory)::

    PYTHONPATH=src python benchmarks/bench_backends.py [--quick] \\
        [--threads 1,2,4] [--dtypes float64,float32] \\
        [--sizes 2000,8000,20000] [--nnz 12] [--auto] \\
        [--passes] [--json out.json] [--trajectory [PATH]]

``--passes`` additionally times the loop-pass pipeline's acceptance
sweep (serial C with a pass selection vs ``REPRO_PASSES=none``; the
tile pass's cache-blocking win on ssyrk) and merges its
``passes=<signature>`` keys into the trajectory.

``--trajectory`` merges the measurements into ``BENCH_backends.json`` at
the repo root (or PATH), the diffable perf-trajectory file every change
with performance claims should refresh.  ``--sizes`` sweeps several
problem sizes (sizes beyond the historical n=2000 get ``@n<size>``
trajectory keys) so the file records the serial -> parallel crossover per
kernel; ``--nnz`` sets the rows' nonzero density; ``--auto`` adds a
``c@auto`` column timing the cost-model thread resolution.

or through pytest (asserts the bars; skipped without a C toolchain /
enough cores)::

    PYTHONPATH=src python -m pytest benchmarks/bench_backends.py -q
"""

from __future__ import annotations

import os
import sys

import pytest

from repro.bench.backend_bench import (
    BACKEND_BENCH_KERNELS,
    annotate_f32_speedups,
    backend_trajectory_entries,
    bench_backends,
    bench_pass_sets,
    format_backend_report,
    format_crossover_table,
    format_pass_report,
    pass_trajectory_entries,
)
from repro.bench.harness import TRAJECTORY_FILENAME, dump_json, record
from repro.codegen.backends import get_backend
from repro.codegen.backends.ctoolchain import probe
from repro.core.config import cpu_count

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

needs_cc = pytest.mark.skipif(
    not get_backend("c").is_available(), reason="no working C toolchain"
)


def _openmp() -> bool:
    tc = probe()
    return bool(tc and tc.openmp)


@needs_cc
def test_c_backend_at_least_10x_on_a_sparse_kernel():
    """Acceptance: >= 10x over the Python backend, sparse kernel, n >= 1000."""
    results = bench_backends(names=("ssymv",), n=1200, repeats=3)
    speedup = results[0].speedups["c"]
    assert results[0].params["n"] >= 1000
    assert speedup >= 10.0, "C backend only %.1fx over Python" % speedup


@needs_cc
def test_backends_agree_across_the_suite():
    """bench_backends itself asserts allclose outputs before reporting."""
    results = bench_backends(n=600, repeats=1)
    assert {r.workload for r in results} == set(BACKEND_BENCH_KERNELS)


@needs_cc
def test_threaded_runs_are_bit_identical():
    """bench_backends aborts unless threads=N output equals threads=1."""
    results = bench_backends(names=("ssymv", "ssyrk"), n=600, repeats=1, threads=(1, 4))
    if _openmp():
        assert all("c@t4" in r.times for r in results)


@needs_cc
def test_float32_backends_agree_bit_identically():
    """bench_backends enforces python-vs-c (and threaded) bit-identity
    per dtype before timing; a float32 sweep must survive it too."""
    results = bench_backends(
        names=("ssymv", "mttkrp3d"), n=600, repeats=1, threads=(1, 2),
        dtype="float32",
    )
    assert all(r.params["dtype"] == "float32" for r in results)
    entries = backend_trajectory_entries(results)
    assert all(key.endswith("/f32") for key in entries)


@needs_cc
@pytest.mark.skipif(
    not _openmp() or cpu_count() < 4,
    reason="needs OpenMP and >= 4 visible cores",
)
def test_threaded_c_at_least_2x_on_two_figure_kernels():
    """Acceptance: >= 2x at 4 threads over single-threaded C on >= 2
    figure kernels at the largest benchmarked size (multicore hosts)."""
    results = bench_backends(n=2000, repeats=3, threads=(1, 4))
    scaled = [
        r.workload
        for r in results
        if r.times["c"] / r.times["c@t4"] >= 2.0
    ]
    assert len(scaled) >= 2, "only %s reached 2x at 4 threads" % (scaled,)


def main(argv) -> int:
    if not get_backend("c").is_available():
        print("no working C toolchain — nothing to compare")
        return 1
    quick = "--quick" in argv
    n = 1000 if quick else 2000  # the acceptance bar is stated at n >= 1000
    repeats = 3 if quick else 5
    if "--threads" in argv:
        threads = tuple(
            int(t) for t in argv[argv.index("--threads") + 1].split(",")
        )
    else:
        cores = cpu_count()
        threads = tuple(sorted({1, 2, 4, cores} & set(range(1, cores + 1))))
    if "--dtypes" in argv:
        dtypes = tuple(argv[argv.index("--dtypes") + 1].split(","))
    else:
        dtypes = ("float64",)
    if "--sizes" in argv:
        sizes = tuple(
            int(s) for s in argv[argv.index("--sizes") + 1].split(",")
        )
    else:
        sizes = (n,)
    nnz_per_row = (
        float(argv[argv.index("--nnz") + 1]) if "--nnz" in argv else 12.0
    )
    auto = "--auto" in argv
    all_results = []
    entries = {}
    for dtype in dtypes:
        for size in sizes:
            results = bench_backends(
                n=size,
                nnz_per_row=nnz_per_row,
                repeats=repeats,
                threads=threads,
                dtype=dtype,
                auto=auto,
            )
            all_results.extend(results)
            entries.update(backend_trajectory_entries(results))
            print(
                "== backend comparison (python vs c, %s, n=%d, timed region "
                "only; openmp: %s, cpus: %d) =="
                % (dtype, size, "yes" if _openmp() else "no", cpu_count())
            )
            print(format_backend_report(results))
            print()
    annotate_f32_speedups(entries)
    if "--passes" in argv:
        pass_results = bench_pass_sets(repeats=repeats)
        entries.update(pass_trajectory_entries(pass_results))
        print("== loop-pass pipeline (serial C, vs REPRO_PASSES=none) ==")
        print(format_pass_report(pass_results))
        print()
    if len(sizes) > 1:
        print("== serial -> parallel crossover ==")
        print(
            format_crossover_table(
                [r for r in all_results if r.params["dtype"] == dtypes[0]]
            )
        )
        print()
    results = [
        r
        for r in all_results
        if r.params["dtype"] == dtypes[0] and r.params["n"] == sizes[0]
    ]
    best = max(r.speedups["c"] for r in results)
    print("best C-backend speedup: %.0fx (acceptance bar: 10x at n >= 1000)" % best)
    multi = [t for t in threads if t > 1]
    if multi and _openmp():
        top = max(multi)
        scaled = [
            (r.workload, r.times["c"] / r.times["c@t%d" % top])
            for r in results
            if "c@t%d" % top in r.times
        ]
        print(
            "thread scaling at t=%d vs t=1: %s"
            % (top, ", ".join("%s %.2fx" % pair for pair in scaled))
        )
    f32 = [
        (key[: -len("/c@t1/f32")], entry["speedup_vs_f64"])
        for key, entry in entries.items()
        if key.endswith("/c@t1/f32") and "speedup_vs_f64" in entry
    ]
    if f32:
        print(
            "float32 vs float64 (c@t1): %s"
            % ", ".join("%s %.2fx" % pair for pair in sorted(f32))
        )
    if "--json" in argv:
        path = argv[argv.index("--json") + 1]
        dump_json(all_results, path)
        print("wrote %s" % path)
    if "--trajectory" in argv:
        idx = argv.index("--trajectory") + 1
        if idx < len(argv) and not argv[idx].startswith("--"):
            path = argv[idx]
        else:
            path = os.path.join(REPO_ROOT, TRAJECTORY_FILENAME)
        record(path, entries)
        print("updated trajectory %s" % path)
    return 0 if best >= 10.0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
