"""The paper's figure drivers: timing, speedup tables, one driver per figure.

:mod:`repro.bench.harness` times prepared kernels the way the paper does —
minimum over repeated runs, data rearrangement excluded.
:mod:`repro.bench.figures` regenerates every figure of Section 5.2 as a
table of speedups normalized to naive (the red line), with the paper's
expected speedup (the purple line) alongside.  ``repro bench figNN`` is the
command-line entry; the repository's benchmark is ``benchmarks/e2e``.
"""

from repro.bench.harness import (
    BenchResult,
    format_table,
    time_callable,
    time_compiled_kernel,
)
from repro.bench.figures import (
    run_fig06_ssymv,
    run_fig07_bellmanford,
    run_fig08_syprd,
    run_fig09_ssyrk,
    run_fig10_ttm,
    run_fig11_mttkrp,
    run_table2,
)

__all__ = [
    "BenchResult",
    "format_table",
    "run_fig06_ssymv",
    "run_fig07_bellmanford",
    "run_fig08_syprd",
    "run_fig09_ssyrk",
    "run_fig10_ttm",
    "run_fig11_mttkrp",
    "run_table2",
    "time_callable",
    "time_compiled_kernel",
]
