"""Edge cases across backends and dtypes.

The differential fuzzer sweeps the bulk of the space; these are the
corners it deliberately leaves out: empty payloads, degenerate shape-1
dimensions, duplicate coordinates (summed at COO construction), and
values near the dtype's floor and ceiling (denormal / inf-adjacent),
all through both backends in both dtypes — plus the symbolic plan
verifier on the degenerate side=1 index cube, where every triangle,
diagonal and mirror coincides.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.codegen.backends import get_backend
from repro.core.compiler import compile_kernel, plan_kernel
from repro.core.config import DEFAULT
from repro.core.verify import verify_plan_coverage
from repro.frontend.parser import parse_assignment
from repro.kernels.library import KERNELS, get_kernel
from repro.tensor.coo import COO
from repro.tensor.tensor import Tensor

HAVE_CC = get_backend("c").is_available()

DTYPES = ("float64", "float32")

BACKENDS = ("python", "c") if HAVE_CC else ("python",)


def _run_everywhere(spec_name, inputs, dtype):
    """Run a library kernel on every backend (and threads=3 for c),
    asserting bitwise agreement; returns the python output."""
    spec = get_kernel(spec_name)
    outs = {}
    for backend in BACKENDS:
        kernel = spec.compile(options=DEFAULT.but(backend=backend, dtype=dtype))
        prepared, shape = kernel.prepare(**inputs)
        outs[backend] = np.asarray(
            kernel.finalize(kernel.run(prepared, shape, threads=1))
        )
        if backend == "c":
            threaded = np.asarray(
                kernel.finalize(kernel.run(prepared, shape, threads=3))
            )
            assert np.array_equal(outs["c"], threaded, equal_nan=True)
    if "c" in outs:
        assert np.array_equal(outs["python"], outs["c"], equal_nan=True)
    assert outs["python"].dtype == np.dtype(dtype)
    return outs["python"]


# ----------------------------------------------------------------------
# nnz = 0
# ----------------------------------------------------------------------
@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("name", ("ssymv", "syprd", "ssyrk", "mttkrp3d"))
def test_empty_tensor_yields_identity_output(name, dtype):
    spec = get_kernel(name)
    n = 5
    assignment = parse_assignment(spec.einsum)
    inputs = {}
    for acc in assignment.accesses:
        t = acc.tensor
        if t in inputs:
            continue
        shape = (n,) * len(acc.indices) if t != "B" else (n, 3)
        if spec.formats.get(t) == "sparse":
            sym = ((tuple(range(len(acc.indices))),) if t in spec.symmetric else ())
            inputs[t] = Tensor(COO.empty(shape, dtype=dtype), sym)
        else:
            inputs[t] = np.ones(shape, dtype=dtype)
    out = _run_everywhere(name, inputs, dtype)
    assert np.all(out == 0.0)


@pytest.mark.parametrize("dtype", DTYPES)
def test_empty_tensor_min_reduction_yields_inf(dtype):
    A = Tensor(COO.empty((4, 4), dtype=dtype), ((0, 1),))
    d = np.zeros(4, dtype=dtype)
    out = _run_everywhere("bellmanford", {"A": A, "d": d}, dtype)
    assert np.all(np.isinf(out)) and np.all(out > 0)


# ----------------------------------------------------------------------
# shape-1 dimensions
# ----------------------------------------------------------------------
@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("name", sorted(KERNELS))
def test_shape_one_dimensions(name, dtype):
    """Every extent 1: loops of a single iteration, every triangle is the
    diagonal, the canonical packing keeps exactly one entry."""
    spec = get_kernel(name)
    assignment = parse_assignment(spec.einsum)
    inputs = {}
    for acc in assignment.accesses:
        t = acc.tensor
        if t not in inputs:
            inputs[t] = np.full((1,) * len(acc.indices), 2.0, dtype=dtype)
    out = _run_everywhere(name, inputs, dtype)
    expected = spec.reference(
        **{k: np.asarray(v, dtype=np.float64) for k, v in inputs.items()}
    )
    np.testing.assert_allclose(out.astype(np.float64), expected, rtol=1e-6)


# ----------------------------------------------------------------------
# all-duplicate coordinates
# ----------------------------------------------------------------------
@pytest.mark.parametrize("dtype", DTYPES)
def test_all_duplicate_coordinates_are_summed_once(dtype):
    """A COO whose every entry shares one coordinate collapses to a single
    summed entry at construction — and the kernels see only the sum."""
    coords = np.array([[2, 2, 2, 2], [1, 1, 1, 1]])
    vals = np.array([0.25, 0.5, 1.0, 2.0], dtype=dtype)
    coo = COO(coords, vals, (4, 4))
    assert coo.nnz == 1
    assert coo.dtype == np.dtype(dtype)
    # symmetric wrap: the (2,1) canonical entry mirrors to (1,2)
    A = Tensor(coo, ((0, 1),), canonical=True)
    x = np.ones(4, dtype=dtype)
    out = _run_everywhere("ssymv", {"A": A, "x": x}, dtype)
    dense = A.to_dense().astype(np.float64)
    np.testing.assert_allclose(out.astype(np.float64), dense @ np.ones(4), rtol=1e-6)


# ----------------------------------------------------------------------
# denormal / inf-adjacent values
# ----------------------------------------------------------------------
@pytest.mark.parametrize("dtype", DTYPES)
def test_denormal_values_survive_bit_identically(dtype):
    """Denormal magnitudes flow through both backends without flush-to-
    zero (no -ffast-math): results stay bit-identical and nonzero."""
    tiny = 1e-310 if dtype == "float64" else np.float64(1e-42)
    arr = np.zeros((4, 4), dtype=dtype)
    arr[2, 1] = arr[1, 2] = np.dtype(dtype).type(tiny)
    arr[3, 3] = np.dtype(dtype).type(tiny)
    A = Tensor.from_dense(arr, ((0, 1),))
    x = np.ones(4, dtype=dtype)
    out = _run_everywhere("ssymv", {"A": A, "x": x}, dtype)
    assert out[1] != 0.0 and out[2] != 0.0  # not flushed to zero


@pytest.mark.parametrize("dtype", DTYPES)
def test_inf_adjacent_values_overflow_consistently(dtype):
    """Values near the dtype ceiling: products overflow to inf the same
    way on every backend (exactly where IEEE says so)."""
    big = float(np.finfo(np.dtype(dtype)).max) * 0.75
    arr = np.zeros((3, 3))
    arr[1, 0] = arr[0, 1] = big
    arr[2, 2] = big
    A = Tensor.from_dense(arr.astype(dtype), ((0, 1),))
    x = np.full(3, 4.0, dtype=dtype)
    with np.errstate(over="ignore"):
        out = _run_everywhere("ssymv", {"A": A, "x": x}, dtype)
    assert np.isinf(out[0]) and np.isinf(out[1]) and np.isinf(out[2])


@pytest.mark.parametrize("dtype", DTYPES)
def test_bellmanford_with_infinite_distances(dtype):
    """+inf distances stay absorbing through the min-plus semiring."""
    arr = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 2.0], [0.0, 2.0, 0.0]])
    A = Tensor.from_dense(arr.astype(dtype), ((0, 1),))
    d = np.array([0.0, np.inf, np.inf], dtype=dtype)
    out = _run_everywhere("bellmanford", {"A": A, "d": d}, dtype)
    expected = get_kernel("bellmanford").reference(
        A=arr, d=np.array([0.0, np.inf, np.inf])
    )
    np.testing.assert_allclose(out.astype(np.float64), expected)


# ----------------------------------------------------------------------
# the symbolic verifier on degenerate cubes
# ----------------------------------------------------------------------
@pytest.mark.parametrize("side", (1, 2))
@pytest.mark.parametrize("name", sorted(KERNELS))
def test_plan_coverage_on_degenerate_cubes(name, side):
    """verify.py's exhaustive coverage check at side=1 (every coordinate
    equal — pure diagonal) and side=2 (smallest cube with a strict
    triangle): each update performed exactly once, even where all the
    symmetry orbits collapse."""
    spec = get_kernel(name)
    assignment = parse_assignment(spec.einsum)
    symmetric_modes = {
        t: (tuple(range(len(acc.indices))),)
        for acc in assignment.accesses
        for t in [acc.tensor]
        if t in spec.symmetric
    }
    plan = plan_kernel(assignment, symmetric_modes, spec.loop_order)
    assert verify_plan_coverage(plan, side=side) == []


@pytest.mark.parametrize("side", (1, 2))
def test_naive_plan_coverage_on_degenerate_cubes(side):
    kernel = compile_kernel(
        "y[i] += A[i, j] * x[j]", symmetric={"A": True},
        loop_order=("j", "i"), naive=True,
    )
    assert verify_plan_coverage(kernel.plan, side=side) == []
