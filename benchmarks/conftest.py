"""Shared benchmark fixtures.

Every ``bench_*`` file regenerates one table or figure of the paper's
evaluation (see DESIGN.md's experiment index).  Benchmarks time only the
kernel's timed region — inputs are prepared and bound into one execution
plan per case, and each timed call is one call of that plan, mirroring
the paper's methodology of excluding data rearrangement.

Run with::

    pytest benchmarks/ --benchmark-only
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.matrices import load_matrix
from repro.data.random_tensors import erdos_renyi_symmetric, random_dense

#: matrices exercised by the per-figure matrix benchmarks (a spread of
#: structure profiles; the full 30-matrix sweep lives in the figure drivers)
BENCH_MATRICES = ("saylr4", "sherman5", "gemat11", "orani678")
BENCH_SCALE = 0.03


collect_ignore_glob: list = []


def pytest_collection_modifyitems(config, items):
    """Group benchmarks by their figure for readable reports."""
    for item in items:
        module = item.module.__name__ if item.module else ""
        if module.startswith("bench_"):
            item.add_marker(pytest.mark.benchmark(group=module))


@pytest.fixture(scope="session")
def matrices():
    return {
        name: load_matrix(name, scale=BENCH_SCALE) for name in BENCH_MATRICES
    }


@pytest.fixture(scope="session")
def vectors(matrices):
    return {
        name: random_dense((t.shape[0],), seed=17) for name, t in matrices.items()
    }


def prepared_runner(kernel, **tensors):
    """Bind a compiled kernel's inputs once; return the timed callable."""
    plan = kernel.execution_plan(**tensors)
    plan()  # warm-up + validation of the binding
    return plan
