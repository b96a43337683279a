"""Randomized cross-backend differential fuzzing.

The pipeline's strongest correctness claim is that the *same* lowered
loop structure produces **bit-identical** outputs however it executes:
interpreted Python, compiled C, and OpenMP-threaded C (the renderer's
reduction-safe scheduling contract) — per element dtype.  Hand-picked
cases cannot cover the cross product of kernels x symmetry groups x
densities x shapes x dtypes, so this module drives a seeded generator
through every library *and* extension kernel and asserts:

* python == c (threads=1), bitwise, per dtype;
* c (threads=1) == c (threads=3), bitwise (reduction-safe scheduling);
* the result tracks the dense numpy reference (allclose, per-dtype
  tolerance) — and, where a TACO-style baseline exists, that oracle too.

Two sweep sizes share one case table:

* the **CI subset** (default, unmarked): one seed per kernel x dtype —
  quick enough for tier-1, still every kernel through every backend;
* the **full sweep** (``-m slow``): every seed in the table, ~200+
  compiled cases, run as its own CI leg.

Without a C toolchain the backend comparison degrades to python-vs-
reference so the generator and the python path stay covered everywhere.
"""

from __future__ import annotations

import itertools
import zlib

import numpy as np
import pytest

from repro.codegen.backends import get_backend
from repro.core.config import DEFAULT
from repro.frontend.parser import parse_assignment
from repro.kernels.baselines import taco_style_mttkrp3, taco_style_spmv, taco_style_syprd
from repro.kernels.extensions import EXTENSIONS
from repro.kernels.library import KERNELS
from repro.tensor import coo as coo_mod
from repro.tensor.coo import COO
from repro.tensor.tensor import Tensor

HAVE_CC = get_backend("c").is_available()

ALL_SPECS = {**KERNELS, **EXTENSIONS}

#: per-dtype tolerance against the float64 dense reference.
REFERENCE_RTOL = {"float64": 1e-9, "float32": 5e-4}

#: seeds of the full sweep; the CI subset takes the first one only.
FULL_SEEDS = tuple(range(8))

#: (n, density) profiles cycled by seed — varying size and fill together
#: with the seed keeps every case distinct without exploding the matrix.
PROFILES = ((7, 0.5), (5, 0.9), (11, 0.2), (4, 1.0), (9, 0.35), (6, 0.7),
            (13, 0.12), (8, 0.05))

#: higher-order tensors shrink so the dense reference stays cheap.
MAX_SIDE_BY_NDIM = {3: 7, 4: 5, 5: 4}


def _symmetrize(arr: np.ndarray, parts) -> np.ndarray:
    """Make *arr* symmetric within each declared mode group (max over the
    group's permutations, preserving the sparsity pattern's spirit)."""
    out = arr
    for part in parts:
        if len(part) < 2:
            continue
        acc = np.zeros_like(out)
        for perm in itertools.permutations(part):
            order = list(range(out.ndim))
            for src, dst in zip(part, perm):
                order[src] = dst
            acc = np.maximum(acc, np.transpose(out, order))
        out = acc
    return out


def fuzz_inputs(spec, seed: int, dtype: str, rank=None):
    """Seeded random inputs for *spec*: symmetric where declared, sparse
    where formatted sparse, dense factors elsewhere — in *dtype*.  The
    factor ``B`` has *rank* columns, drawn from 2..5 when it is None."""
    # crc32, not hash(): PYTHONHASHSEED randomization would make the
    # "seeded" inputs differ per process and CI failures unreproducible
    name_salt = zlib.crc32(spec.name.encode("utf-8")) % 997
    rng = np.random.default_rng(0xD1F + 1000 * seed + name_salt)
    n, density = PROFILES[seed % len(PROFILES)]
    r = int(rng.integers(2, 6))
    if rank is not None:
        r = rank
    inputs = {}
    assignment = parse_assignment(spec.einsum)
    # indices are shared across tensors, so one side fits all: the widest
    # access caps it (dense references of 4-/5-way tensors stay cheap)
    max_ndim = max(len(acc.indices) for acc in assignment.accesses)
    side = min(n, MAX_SIDE_BY_NDIM.get(max_ndim, n))
    for acc in assignment.accesses:
        name = acc.tensor
        if name in inputs:
            continue
        ndim = len(acc.indices)
        shape = (side,) * ndim
        if name in spec.symmetric:
            arr = rng.random(shape) * (rng.random(shape) < density)
            parts = (
                tuple(range(ndim))
                if spec.symmetric[name] is True
                else spec.symmetric[name]
            )
            parts = (parts,) if parts and isinstance(parts[0], int) else parts
            arr = _symmetrize(arr, [tuple(p) for p in parts])
        elif spec.formats.get(name) == "sparse":
            arr = rng.random(shape) * (rng.random(shape) < density)
        elif ndim == 2 and name == "B":
            arr = rng.random((side, r))
        else:
            arr = rng.random(shape)
        inputs[name] = arr.astype(dtype)
    return inputs


def run_differential_case(name: str, seed: int, dtype: str, rank=None) -> None:
    """One fuzz case: compile + run on every backend — and through the
    repeat-execution plan fast path — compare bitwise."""
    spec = ALL_SPECS[name]
    inputs = fuzz_inputs(spec, seed, dtype, rank)
    py_kernel = spec.compile(options=DEFAULT.but(backend="python", dtype=dtype))
    py = np.asarray(py_kernel(**inputs))
    assert py.dtype == np.dtype(dtype)

    # the plan path must be indistinguishable from one-shot execution,
    # including on repeat calls against the reused output buffer
    py_plan = py_kernel.execution_plan(**inputs)
    for repeat in range(2):
        assert np.array_equal(
            np.asarray(py_kernel.finalize(py_plan())), py
        ), "%s seed=%d dtype=%s: python plan() diverges (repeat %d)" % (
            name, seed, dtype, repeat,
        )

    ref_inputs = {k: np.asarray(v, dtype=np.float64) for k, v in inputs.items()}
    expected = spec.reference(**ref_inputs)
    rtol = REFERENCE_RTOL[dtype]
    np.testing.assert_allclose(
        py.astype(np.float64), expected, rtol=rtol, atol=rtol,
        err_msg="%s seed=%d dtype=%s: python vs reference" % (name, seed, dtype),
    )

    if not HAVE_CC:
        return
    kernel = spec.compile(options=DEFAULT.but(backend="c", dtype=dtype))
    prepared, shape = kernel.prepare(**inputs)
    c1 = np.asarray(kernel.finalize(kernel.run(prepared, shape, threads=1)))
    c3 = np.asarray(kernel.finalize(kernel.run(prepared, shape, threads=3)))
    assert np.array_equal(py, c1), (
        "%s seed=%d dtype=%s: python and c diverge (max |d|=%g)"
        % (name, seed, dtype, float(np.max(np.abs(py - c1))))
    )
    assert np.array_equal(c1, c3), (
        "%s seed=%d dtype=%s: c@threads=3 is not bit-identical to threads=1"
        % (name, seed, dtype)
    )

    # plan fast path: repeat calls, serial and threaded, all bitwise equal
    # to the fresh runs above (the pooled scatter log is exercised twice)
    c_plan = kernel.execution_plan(**inputs)
    for threads in (1, 3, 3, 1):
        got = np.asarray(kernel.finalize(c_plan(threads=threads)))
        assert np.array_equal(c1, got), (
            "%s seed=%d dtype=%s: c plan(threads=%d) diverges from run()"
            % (name, seed, dtype, threads)
        )


# ----------------------------------------------------------------------
# CI subset: every kernel x dtype, one seed — runs in tier-1
# ----------------------------------------------------------------------
@pytest.mark.parametrize("dtype", ("float64", "float32"))
@pytest.mark.parametrize("name", sorted(ALL_SPECS))
def test_differential_ci_subset(name, dtype):
    run_differential_case(name, FULL_SEEDS[0], dtype)


# ----------------------------------------------------------------------
# full sweep: every kernel x dtype x seed (~200+ cases) — `-m slow`
# ----------------------------------------------------------------------
@pytest.mark.slow
@pytest.mark.parametrize("seed", FULL_SEEDS[1:])
@pytest.mark.parametrize("dtype", ("float64", "float32"))
@pytest.mark.parametrize("name", sorted(ALL_SPECS))
def test_differential_full_sweep(name, dtype, seed):
    run_differential_case(name, seed, dtype)


# ----------------------------------------------------------------------
# vector ranks around the register-blocking width of 16: below it, at
# it, between multiples and at one (padded rows staged and copied back
# unless the rank is a multiple).  The draw above reaches only 2..5.
# ----------------------------------------------------------------------
VECTOR_SPECS = ("mttkrp3d", "mttkrp4d", "mttkrp5d", "ttm", "ttm4d")


def test_every_vector_kernel_is_in_the_wide_rank_sweep():
    options = DEFAULT.but(backend="python")
    assert VECTOR_SPECS == tuple(
        name
        for name, spec in sorted(ALL_SPECS.items())
        if spec.compile(options=options).lowered.vector_index is not None
    )


@pytest.mark.parametrize("rank", (1, 4, 5, 8, 12, 15, 16, 17, 24, 32))
@pytest.mark.parametrize("dtype", ("float64", "float32"))
@pytest.mark.parametrize("name", VECTOR_SPECS)
def test_differential_wide_rank(name, dtype, rank):
    run_differential_case(name, FULL_SEEDS[0], dtype, rank)


# ----------------------------------------------------------------------
# min/max on signed-zero ties and NaN operands, from a supplied payload
# (the draw above makes neither): the first of two tied values and the
# accumulator against a NaN win, as Python's min/max decide, on every leg
# ----------------------------------------------------------------------
@pytest.mark.skipif(not HAVE_CC, reason="no C compiler")
@pytest.mark.parametrize("dtype", ("float64", "float32"))
@pytest.mark.parametrize("name", ("bellmanford", "widestpath"))
def test_minmax_ties_and_nan_operands_are_bit_identical(name, dtype):
    nan = float("nan")
    # the stored triangle of a symmetric A, explicit zeros of both signs
    coords = np.array([[0, 1, 1, 2, 2, 3, 3, 3, 4, 4], [0, 0, 1, 0, 2, 0, 1, 3, 2, 4]])
    vals = np.array([0.0, -0.0, nan, 0.0, -0.0, 1.5, -0.0, nan, -0.0, 0.0], dtype=dtype)
    A = Tensor(COO(coords, vals, (5, 5), sum_duplicates=False), ((0, 1),), canonical=True)
    d = np.array([-0.0, 0.0, -0.0, nan, 0.0], dtype=dtype)
    spec = ALL_SPECS[name]
    py = np.asarray(spec.compile(options=DEFAULT.but(backend="python", dtype=dtype))(A=A, d=d))
    # both signs of zero reach the output: the ties were decided
    assert np.signbit(py[py == 0]).any() and not np.signbit(py[py == 0]).all()
    kernel = spec.compile(options=DEFAULT.but(backend="c", dtype=dtype))
    prepared, shape = kernel.prepare(A=A, d=d)
    for threads in (1, 3):
        got = np.asarray(kernel.finalize(kernel.run(prepared, shape, threads=threads)))
        assert got.tobytes() == py.tobytes(), (name, dtype, threads, got, py)


# ----------------------------------------------------------------------
# index widths: an argument set whose indices need 64 bits runs the wide
# object of the same source, bit for bit what the narrow one computes.
# Lowering the width limit sends these small inputs down the wide path.
# ----------------------------------------------------------------------
PAPER_KERNELS = ("mttkrp3d", "mttkrp4d", "ssymv", "ssyrk", "syprd", "ttm")


@pytest.mark.skipif(not HAVE_CC, reason="no C compiler")
@pytest.mark.parametrize("dtype", ("float64", "float32"))
@pytest.mark.parametrize("name", PAPER_KERNELS)
def test_narrow_and_wide_objects_are_bit_identical(name, dtype, monkeypatch):
    spec = ALL_SPECS[name]
    inputs = fuzz_inputs(spec, FULL_SEEDS[0], dtype)
    py = np.asarray(spec.compile(options=DEFAULT.but(backend="python", dtype=dtype))(**inputs))
    kernel = spec.compile(options=DEFAULT.but(backend="c", dtype=dtype))
    narrow, shape = kernel.prepare(**inputs)
    monkeypatch.setattr(coo_mod, "INDEX_LIMIT", 0)
    wide, _ = kernel.prepare(**inputs)
    for prepared, width in ((narrow, np.int32), (wide, np.int64)):
        indices = [arr for key, arr in prepared.items() if "_pos" in key or "_idx" in key]
        assert indices and all(arr.dtype == width for arr in indices)
        for threads in (1, 3):
            got = np.asarray(kernel.finalize(kernel.run(prepared, shape, threads=threads)))
            assert np.array_equal(py, got), (name, dtype, width, threads)
        plan = kernel.bound.plan_prepared(prepared, shape)
        for threads in (1, 3, 3, 1):
            assert np.array_equal(py, np.asarray(kernel.finalize(plan(threads=threads))))
    exe = kernel.bound.executable
    assert exe.index_dtype == np.int32 and exe.wide().index_dtype == np.int64


# ----------------------------------------------------------------------
# TACO-style baselines as an independent oracle (matrix kernels)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", FULL_SEEDS[:2])
def test_taco_baselines_agree_with_fuzzed_kernels(seed):
    rng = np.random.default_rng(31 + seed)
    n = 9
    A_arr = _symmetrize(rng.random((n, n)) * (rng.random((n, n)) < 0.4), [(0, 1)])
    A = Tensor.from_dense(A_arr, ((0, 1),))
    x = rng.random(n)
    spmv = KERNELS["ssymv"].compile()(A=A, x=x)
    np.testing.assert_allclose(spmv, taco_style_spmv(A, x), rtol=1e-10)
    syprd = KERNELS["syprd"].compile()(A=A, x=x)
    np.testing.assert_allclose(syprd, taco_style_syprd(A, x), rtol=1e-10)

    T_arr = _symmetrize(
        rng.random((5, 5, 5)) * (rng.random((5, 5, 5)) < 0.4), [(0, 1, 2)]
    )
    T = Tensor.from_dense(T_arr, ((0, 1, 2),))
    B = rng.random((5, 3))
    mttkrp = KERNELS["mttkrp3d"].compile()(A=T, B=B)
    np.testing.assert_allclose(mttkrp, taco_style_mttkrp3(T, B), rtol=1e-10)
