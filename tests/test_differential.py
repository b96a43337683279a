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
from repro.core.compiler import compile_kernel
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
# — the scalar reductions of Bellman-Ford and widest path, and the row
# reductions (``np.copyto(t, v, where=v < t)``) of the two row-form
# einsums of the rendering corpus
# ----------------------------------------------------------------------
MINMAX_CASES = ("bellmanford", "widestpath", "extra:row_min", "extra:row_min_ws")


def _signed_canonical(ndim, n, dtype):
    """Every canonical coordinate of an ``n``-sided symmetric tensor,
    valued with zeros of both signs, NaNs and a 1.5."""
    grid = np.indices((n,) * ndim).reshape(ndim, -1)
    coords = grid[:, np.all(grid[:-1] >= grid[1:], axis=0)]
    cycle = np.array([0.0, -0.0, float("nan"), -0.0, 1.5, 0.0, -0.0], dtype=dtype)
    return coords, np.resize(cycle, coords.shape[1])


def _minmax_case(name, dtype):
    """``(compile(backend), inputs)`` of one :data:`MINMAX_CASES` entry."""
    nan = float("nan")
    if name.startswith("extra:"):
        from tests.render_corpus import EXTRAS

        einsum, symmetric, loop_order, formats = EXTRAS[name[len("extra:"):]]
        ndim = len(parse_assignment(einsum).operands[0].indices)
        coords, vals = _signed_canonical(ndim, 4, dtype)
        A = Tensor(COO(coords, vals, (4,) * ndim, sum_duplicates=False), (tuple(range(ndim)),), canonical=True)
        B = np.resize(np.array([-0.0, 0.0, 2.0, nan, -0.0], dtype=dtype), (4, 3))

        def build(backend):
            return compile_kernel(
                einsum, symmetric=symmetric, loop_order=loop_order, formats=formats,
                options=DEFAULT.but(backend=backend, dtype=dtype),
            )

        return build, {"A": A, "B": B}
    # the stored triangle of a symmetric A, explicit zeros of both signs
    coords = np.array([[0, 1, 1, 2, 2, 3, 3, 3, 4, 4], [0, 0, 1, 0, 2, 0, 1, 3, 2, 4]])
    vals = np.array([0.0, -0.0, nan, 0.0, -0.0, 1.5, -0.0, nan, -0.0, 0.0], dtype=dtype)
    A = Tensor(COO(coords, vals, (5, 5), sum_duplicates=False), ((0, 1),), canonical=True)
    d = np.array([-0.0, 0.0, -0.0, nan, 0.0], dtype=dtype)
    spec = ALL_SPECS[name]
    return (lambda backend: spec.compile(options=DEFAULT.but(backend=backend, dtype=dtype))), {"A": A, "d": d}


@pytest.mark.skipif(not HAVE_CC, reason="no C compiler")
@pytest.mark.parametrize("dtype", ("float64", "float32"))
@pytest.mark.parametrize("name", MINMAX_CASES)
def test_minmax_ties_and_nan_operands_are_bit_identical(name, dtype):
    build, inputs = _minmax_case(name, dtype)
    py = np.asarray(build("python")(**inputs))
    # both signs of zero reach the output: the ties were decided
    assert np.signbit(py[py == 0]).any() and not np.signbit(py[py == 0]).all()
    kernel = build("c")
    prepared, shape = kernel.prepare(**inputs)
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
# the raw buffer: the generated program clears the region it writes at
# every call, so repeat calls reproduce a one-shot run byte for byte, and
# no call writes the non-canonical region of a symmetric output (which
# holds the identity from bind on)
# ----------------------------------------------------------------------
LEGS = (("python", 1), ("c", 1), ("c", 3))

#: the kernels whose output is replicated from a canonical region
REPLICATED = ("ssyrk", "ttm", "ttm4d")


def test_every_replicated_kernel_is_in_the_raw_buffer_checks():
    options = DEFAULT.but(backend="python")
    assert REPLICATED == tuple(
        name
        for name, spec in sorted(ALL_SPECS.items())
        if spec.compile(options=options).lowered.output.replication_parts
    )


def _legs(spec, dtype):
    """``(kernel, threads)`` for python, c and c@threads (c without a
    compiler: python only)."""
    for backend, threads in LEGS:
        if backend == "c" and not HAVE_CC:
            continue
        yield spec.compile(options=DEFAULT.but(backend=backend, dtype=dtype)), threads


def _non_canonical(lowered, shape) -> np.ndarray:
    """Mask, in the kernel's output layout, of the entries outside the
    canonical region: some replication group whose coordinates increase
    somewhere (built from the output spec, not from the clear)."""
    index = np.indices(shape)
    canonical = np.ones(shape, dtype=bool)
    for part in lowered.output.replication_parts:
        modes = sorted(part)
        for a, b in zip(modes, modes[1:]):
            canonical &= index[a] >= index[b]
    return ~np.transpose(canonical, lowered.output.layout)


@pytest.mark.parametrize("dtype", ("float64", "float32"))
@pytest.mark.parametrize("name", sorted(ALL_SPECS))
def test_three_plan_calls_leave_the_raw_buffer_of_a_one_shot_run(name, dtype):
    inputs = fuzz_inputs(ALL_SPECS[name], FULL_SEEDS[0], dtype)
    for kernel, threads in _legs(ALL_SPECS[name], dtype):
        prepared, shape = kernel.prepare(**inputs)
        once = kernel.run(prepared, shape, threads=threads).tobytes()
        plan = kernel.bound.plan_prepared(prepared, shape, threads=threads)
        raws = [plan().tobytes() for _ in range(3)]
        assert raws == [once] * 3, (name, dtype, kernel.backend, threads)


def _ssyrk_over_two_blocks(dtype):
    """512 rows of 4 KiB: the tile pass's run-time block count is two."""
    rng = np.random.default_rng(11)
    A = rng.standard_normal((512, 64)) * (rng.random((512, 64)) < 0.05)
    return {"A": A.astype(dtype)}


def test_a_whole_rows_clear_tiled_over_two_blocks_repeats_its_one_shot_run():
    """``C[j, i] += A[k, j] * B[k, i]`` over two sparse operands is tiled
    like SSYRK (one fiber per output row) but its output is not
    symmetric: each of the two blocks clears its whole rows just before
    it accumulates into them."""
    rng = np.random.default_rng(12)
    inputs = {
        name: rng.standard_normal((64, 512)) * (rng.random((64, 512)) < 0.05)
        for name in "AB"
    }
    for backend, threads in LEGS:
        if backend == "c" and not HAVE_CC:
            continue
        kernel = compile_kernel(
            "C[j, i] += A[k, j] * B[k, i]", loop_order=("k", "j", "i"),
            formats={"A": "sparse", "B": "sparse"}, options=DEFAULT.but(backend=backend),
        )
        prepared, shape = kernel.prepare(**inputs)
        once = kernel.run(prepared, shape, threads=threads).tobytes()
        plan = kernel.bound.plan_prepared(prepared, shape, threads=threads)
        assert [plan().tobytes() for _ in range(3)] == [once] * 3, (backend, threads)
        assert ("rp_tile" in kernel.backend_source) is (backend == "c")


@pytest.mark.parametrize("dtype", ("float64", "float32"))
@pytest.mark.parametrize(
    "name, rank",
    [("ssyrk", None), ("ssyrk", "blocks"), ("ttm", None), ("ttm", 16),
     ("ttm4d", None), ("ttm4d", 16)],
)
def test_calls_never_write_the_non_canonical_region(name, rank, dtype):
    """NaN written outside the canonical region after bind is still there
    after three calls, on every leg — a staged (rank off 16) and an
    unstaged register-blocked output, and a tiled one over two blocks —
    and the finalized result is the one a clean buffer gives."""
    spec = ALL_SPECS[name]
    if rank == "blocks":
        inputs = _ssyrk_over_two_blocks(dtype)
    else:
        inputs = fuzz_inputs(spec, FULL_SEEDS[0], dtype, rank)
    for kernel, threads in _legs(spec, dtype):
        prepared, shape = kernel.prepare(**inputs)
        want = np.asarray(kernel.finalize(kernel.run(prepared, shape, threads=threads)))
        plan = kernel.bound.plan_prepared(prepared, shape, threads=threads)
        outside = _non_canonical(kernel.lowered, shape)
        assert outside.any()
        plan.out[outside] = np.nan
        for _ in range(3):
            raw = plan()
            assert np.isnan(raw[outside]).all(), (name, kernel.backend, threads)
            got = np.asarray(kernel.finalize(raw))
            assert got.tobytes() == want.tobytes(), (name, kernel.backend, threads)
        if rank == "blocks" and kernel.backend == "c":
            assert "rp_tile" in kernel.backend_source


@pytest.mark.parametrize("n", (1, 7, 17))
def test_a_staged_vector_output_is_copied_back_inside_its_buffer(n):
    """``y[j] += M[i, j] * x[i]`` lowered as the naive baseline: a 1-D
    output register-blocked over j (no workspace keeps it out of the
    nest), staged when ``n`` is off a multiple of 16, under a clear of
    the whole buffer.  Bound to the head of a larger NaN-filled array,
    the kernel writes its ``n`` entries and nothing after them."""
    rng = np.random.default_rng(n)
    M, x = rng.standard_normal((5, n)), rng.standard_normal(5)
    for backend, threads in LEGS:
        if backend == "c" and not HAVE_CC:
            continue
        kernel = compile_kernel(
            "y[j] += M[i, j] * x[i]", loop_order=("i", "j"), naive=True,
            options=DEFAULT.but(backend=backend),
        )
        backing = np.full(4096, np.nan)
        plan = kernel.execution_plan(threads=threads, out=backing[:n], M=M, x=x)
        for _ in range(3):
            np.testing.assert_allclose(plan(), M.T @ x, rtol=1e-12)
            assert np.isnan(backing[n:]).all(), (n, backend, threads)
        if backend == "c":
            assert "rp_w" in kernel.backend_source


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
