"""Experiment drivers — one per table/figure of the paper's evaluation.

Every driver returns a list of :class:`BenchResult` rows: per workload, the
naive-Finch-equivalent time (our naive generated kernel), the SySTeC time,
and hand-written baselines where the paper compares against them (a
TACO-style kernel; scipy as the compiled-library stand-in for MKL, reported
separately since a C library cannot be compared head-to-head with
interpreted loops).

Scales default to sizes that finish in minutes under pure Python; pass a
larger ``scale`` / ``n`` to stress the same shapes at larger sizes.  The
paper's artifact reduces its TTM/MTTKRP datasets for exactly this reason.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.bench.harness import BenchResult, time_callable, time_compiled_kernel
from repro.core.config import DEFAULT, CompilerOptions
from repro.data.matrices import load_matrix, table
from repro.data.random_tensors import erdos_renyi_symmetric, random_dense
from repro.kernels.baselines import scipy_spmv, taco_style_mttkrp3, taco_style_spmv, taco_style_syprd
from repro.kernels.library import get_kernel, mttkrp_spec

#: a representative subset of Table 2 used by the quick benchmarks
#: (one per structure profile and size class; pass names=None for all 30).
DEFAULT_MATRICES: Tuple[str, ...] = (
    "saylr4",
    "sherman5",
    "gemat11",
    "lnsp3937",
    "orani678",
    "rdist1",
    "memplus",
    "bayer02",
)


def _matrix_rows(
    figure: str,
    kernel_name: str,
    extra_methods,
    scale: float,
    names: Optional[Sequence[str]],
    repeats: int,
    backend: str = "python",
    threads=None,
    dtype: str = "float64",
) -> List[BenchResult]:
    spec = get_kernel(kernel_name)
    options = DEFAULT.but(backend=backend, dtype=dtype)
    if threads is not None:
        options = options.but(threads=threads)
    naive = spec.compile(naive=True, options=options)
    systec = spec.compile(options=options)
    results = []
    for info in table():
        if names is not None and info.name not in names:
            continue
        A = load_matrix(info.name, scale=scale)
        dense_args = _dense_args_for(spec, A.shape[0])
        times: Dict[str, float] = {}
        times["naive"] = time_compiled_kernel(
            naive, repeats=repeats, A=A, **dense_args
        )
        times["systec"] = time_compiled_kernel(
            systec, repeats=repeats, A=A, **dense_args
        )
        for method, fn in extra_methods(A, dense_args):
            if fn is None:
                continue
            times[method] = time_callable(fn, repeats=repeats)
        results.append(
            BenchResult(
                figure=figure,
                workload=info.name,
                params={"scale": scale, "n": A.shape[0], "nnz": A.nnz},
                times=times,
                expected_speedup=spec.expected_speedup,
            )
        )
    return results


def _dense_args_for(spec, n: int) -> Dict[str, np.ndarray]:
    from repro.frontend.parser import parse_assignment

    args = {}
    for acc in parse_assignment(spec.einsum).accesses:
        if acc.tensor == "A":
            continue
        if acc.tensor not in args:
            args[acc.tensor] = random_dense((n,) * len(acc.indices), seed=17)
    return args


# ----------------------------------------------------------------------
# Figures 6-9: the Table 2 matrix kernels
# ----------------------------------------------------------------------
def run_fig06_ssymv(
    scale: float = 0.03,
    names: Optional[Sequence[str]] = DEFAULT_MATRICES,
    repeats: int = 3,
    with_library: bool = True,
    backend: str = "python",
    threads=None,
    dtype: str = "float64",
) -> List[BenchResult]:
    """Figure 6: SSYMV.  SySTeC ~1.45x naive, bounded by 2x."""

    def extras(A, dense):
        x = dense["x"]
        yield "taco", lambda: taco_style_spmv(A, x)
        if with_library:
            result = scipy_spmv(A, x)
            if result is not None:
                yield "scipy(MKL proxy)", lambda: scipy_spmv(A, x)

    return _matrix_rows(
        "fig06", "ssymv", extras, scale, names, repeats, backend, threads, dtype
    )


def run_fig07_bellmanford(
    scale: float = 0.03,
    names: Optional[Sequence[str]] = DEFAULT_MATRICES,
    repeats: int = 3,
    backend: str = "python",
    threads=None,
    dtype: str = "float64",
) -> List[BenchResult]:
    """Figure 7: one Bellman-Ford relaxation (min-plus SSYMV shape)."""

    def extras(A, dense):
        return ()

    return _matrix_rows(
        "fig07", "bellmanford", extras, scale, names, repeats, backend, threads, dtype
    )


def run_fig08_syprd(
    scale: float = 0.03,
    names: Optional[Sequence[str]] = DEFAULT_MATRICES,
    repeats: int = 3,
    backend: str = "python",
    threads=None,
    dtype: str = "float64",
) -> List[BenchResult]:
    """Figure 8: SYPRD x'Ax.  SySTeC ~1.79x naive, bounded by 2x."""

    def extras(A, dense):
        x = dense["x"]
        yield "taco", lambda: taco_style_syprd(A, x)

    return _matrix_rows(
        "fig08", "syprd", extras, scale, names, repeats, backend, threads, dtype
    )


def run_fig09_ssyrk(
    scale: float = 0.02,
    names: Optional[Sequence[str]] = ("saylr4", "sherman5", "gemat11", "lnsp3937"),
    repeats: int = 3,
    backend: str = "python",
    threads=None,
    dtype: str = "float64",
) -> List[BenchResult]:
    """Figure 9: SSYRK A A'.  SySTeC ~2.2x naive (compute bound, 2x work)."""

    def extras(A, dense):
        return ()

    return _matrix_rows(
        "fig09", "ssyrk", extras, scale, names, repeats, backend, threads, dtype
    )


# ----------------------------------------------------------------------
# Figure 10: TTM over density x rank
# ----------------------------------------------------------------------
def run_fig10_ttm(
    n: int = 40,
    densities: Sequence[float] = (0.01, 0.1, 0.3),
    ranks: Sequence[int] = (4, 16, 64),
    repeats: int = 3,
    backend: str = "python",
    threads=None,
    dtype: str = "float64",
) -> List[BenchResult]:
    """Figure 10: mode-1 TTM with a fully symmetric 3-D tensor.

    The paper sees ~2x at high density / low rank, and SySTeC *loses* at
    high rank where initializing the dense output dominates — the crossover
    this sweep reproduces.
    """
    spec = get_kernel("ttm")
    options = DEFAULT.but(backend=backend, dtype=dtype)
    if threads is not None:
        options = options.but(threads=threads)
    naive = spec.compile(naive=True, options=options)
    systec = spec.compile(options=options)
    results = []
    for density in densities:
        A = erdos_renyi_symmetric(n, 3, density, seed=23)
        for rank in ranks:
            B = random_dense((n, rank), seed=29)
            times = {
                "naive": time_compiled_kernel(naive, repeats=repeats, A=A, B=B),
                "systec": time_compiled_kernel(systec, repeats=repeats, A=A, B=B),
            }
            results.append(
                BenchResult(
                    figure="fig10",
                    workload="n=%d d=%.2g r=%d" % (n, density, rank),
                    params={"n": n, "density": density, "rank": rank, "nnz": A.nnz},
                    times=times,
                    expected_speedup=spec.expected_speedup,
                )
            )
    return results


# ----------------------------------------------------------------------
# Figure 11: MTTKRP 3/4/5-D over sparsity x rank
# ----------------------------------------------------------------------
#: default side length and density sweep per tensor order.  Sides are large
#: enough that strict (off-diagonal) coordinates dominate — matching the
#: paper's tensors, whose speedups approach the asymptotic n! bounds —
#: while keeping the expanded naive input small enough for pure Python.
_MTTKRP_SIDES = {3: 40, 4: 22, 5: 30}
_MTTKRP_DENSITIES = {
    3: (0.02, 0.1, 0.4),
    4: (0.005, 0.02, 0.08),
    5: (0.002, 0.008),
}


def run_fig11_mttkrp(
    orders: Sequence[int] = (3, 4, 5),
    n: Optional[int] = None,
    densities: Optional[Sequence[float]] = None,
    ranks: Sequence[int] = (4, 16),
    repeats: int = 3,
    with_taco: bool = True,
    backend: str = "python",
    threads=None,
    dtype: str = "float64",
) -> List[BenchResult]:
    """Figure 11: N-D MTTKRP.  Expected speedups 2x / 6x / 24x; the paper
    observes up to 3.38x / 7.35x / 29.8x thanks to register reuse."""
    results = []
    for order in orders:
        spec = mttkrp_spec(order)
        options = DEFAULT.but(backend=backend, dtype=dtype)
        if threads is not None:
            options = options.but(threads=threads)
        naive = spec.compile(naive=True, options=options)
        systec = spec.compile(options=options)
        side = n if n is not None else _MTTKRP_SIDES[order]
        sweep = densities if densities is not None else _MTTKRP_DENSITIES[order]
        for density in sweep:
            A = erdos_renyi_symmetric(side, order, density, seed=31 + order)
            for rank in ranks:
                B = random_dense((side, rank), seed=37)
                times = {
                    "naive": time_compiled_kernel(naive, repeats=repeats, A=A, B=B),
                    "systec": time_compiled_kernel(systec, repeats=repeats, A=A, B=B),
                }
                if order == 3 and with_taco:
                    times["taco"] = time_callable(
                        lambda: taco_style_mttkrp3(A, B), repeats=repeats
                    )
                results.append(
                    BenchResult(
                        figure="fig11",
                        workload="%dD n=%d d=%.2g r=%d" % (order, side, density, rank),
                        params={
                            "order": order,
                            "n": side,
                            "density": density,
                            "rank": rank,
                            "nnz_canonical": A.nnz,
                        },
                        times=times,
                        expected_speedup=spec.expected_speedup,
                    )
                )
    return results


# ----------------------------------------------------------------------
# Table 2
# ----------------------------------------------------------------------
def run_table2(scale: float = 0.02) -> List[Dict[str, object]]:
    """Table 2: the matrix collection — published stats next to the
    synthesized stand-ins actually used at the given scale."""
    rows = []
    for info in table():
        t = load_matrix(info.name, scale=scale)
        rows.append(
            {
                "name": info.name,
                "paper_dimension": info.dimension,
                "paper_nnz": info.nnz,
                "profile": info.profile,
                "generated_dimension": t.shape[0],
                "generated_nnz": t.nnz,
            }
        )
    return rows
