"""Unit tests for runtime helpers (output allocation, replication), and
the generated finish entry point against the replication gather."""

import functools
import itertools
import zlib

import numpy as np
import pytest

from repro.codegen.backends import get_backend
from repro.codegen.runtime import apply_reduce, make_output, replicate_output
from repro.core.compiler import compile_kernel
from repro.core.config import DEFAULT
from repro.kernels.extensions import EXTENSIONS
from repro.kernels.library import KERNELS
from repro.tensor import coo as coo_mod
from repro.tensor.coo import COO
from repro.tensor.tensor import Tensor
from tests.render_corpus import EXTRAS


def test_make_output_identities():
    assert make_output((2, 2), "+").tolist() == [[0.0, 0.0], [0.0, 0.0]]
    assert np.all(np.isposinf(make_output((3,), "min")))
    assert np.all(np.isneginf(make_output((3,), "max")))


def test_make_output_scalar():
    out = make_output((), "+")
    assert out.shape == ()


def test_apply_reduce_ops():
    y = np.zeros(3)
    apply_reduce("+", y, 1, 5.0)
    assert y[1] == 5.0
    y = np.full(3, np.inf)
    apply_reduce("min", y, 0, 2.0)
    apply_reduce("min", y, 0, 7.0)
    assert y[0] == 2.0
    y = np.full(3, -np.inf)
    apply_reduce("max", y, 2, 4.0)
    assert y[2] == 4.0


def test_apply_reduce_unknown():
    with pytest.raises(ValueError):
        apply_reduce("xor", np.zeros(2), 0, 1.0)


def test_replicate_matrix_lower_to_upper(rng):
    arr = np.tril(rng.random((5, 5)))
    full = replicate_output(arr, ((0, 1),))
    np.testing.assert_array_equal(full, np.tril(arr) + np.tril(arr, -1).T)
    assert np.allclose(full, full.T)


def test_replicate_preserves_canonical_entries(rng):
    arr = np.tril(rng.random((4, 4)))
    full = replicate_output(arr, ((0, 1),))
    np.testing.assert_array_equal(np.tril(full), arr)


def test_replicate_3d_group(rng):
    """TTM-style: replicate across output modes 1 and 2."""
    arr = rng.random((3, 4, 4))
    # zero the non-canonical (increasing) part, fill from canonical
    for a in range(4):
        for b in range(4):
            if a < b:
                arr[:, a, b] = 0.0
    full = replicate_output(arr, ((1, 2),))
    for a in range(4):
        for b in range(4):
            np.testing.assert_array_equal(
                full[:, a, b], arr[:, max(a, b), min(a, b)]
            )


def test_replicate_trivial_parts_is_identity(rng):
    arr = rng.random((3, 3))
    assert replicate_output(arr, ()) is arr
    np.testing.assert_array_equal(replicate_output(arr, ((0,), (1,))), arr)


def _replicate_by_gather(arr, mode_parts):
    """The original implementation: full index grids, sorted descending
    within each group, one gather.  Kept as the reference."""
    index = list(np.indices(arr.shape))
    for group in (sorted(p) for p in mode_parts if len(p) >= 2):
        stacked = -np.sort(-np.stack([index[m] for m in group]), axis=0)
        for t, m in enumerate(group):
            index[m] = stacked[t]
    return arr[tuple(index)]


def _groupings(ndim):
    """Every single group of 2..ndim modes, and every pair of disjoint
    2-mode groups."""
    modes = range(ndim)
    singles = [
        (group,) for size in range(2, ndim + 1) for group in itertools.combinations(modes, size)
    ]
    pairs = [
        (a, b)
        for a, b in itertools.combinations(itertools.combinations(modes, 2), 2)
        if not set(a) & set(b)
    ]
    return singles + pairs


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize(
    "ndim, parts", [(ndim, parts) for ndim in (2, 3, 4) for parts in _groupings(ndim)]
)
def test_replicate_matches_the_gather_reference(rng, ndim, parts, dtype):
    grouped = {m for part in parts for m in part}
    shape = tuple(4 if m in grouped else 3 + m for m in range(ndim))
    arr = rng.random(shape).astype(dtype)
    # what finalize passes: a transposed (non-contiguous) view of the buffer
    layout = tuple(reversed(range(ndim)))
    transposed = np.transpose(np.ascontiguousarray(np.transpose(arr, layout)), np.argsort(layout))
    assert not transposed.flags["C_CONTIGUOUS"]
    for given in (arr, transposed):
        got = replicate_output(given, parts)
        want = _replicate_by_gather(given, parts)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.flags["C_CONTIGUOUS"]
        assert got.tobytes() == want.tobytes()
        assert not np.shares_memory(got, given)


@pytest.mark.parametrize("shape, pair", [((5, 5), (0, 1)), ((4, 3, 4), (0, 2)), ((3, 4, 4), (1, 2))])
def test_single_pair_replication_leaves_its_input_alone(rng, shape, pair):
    """On C, Fortran and swapped layouts the result is a fresh array and
    the input is not written.  Signed zeros and NaNs come through bit for
    bit."""
    arr = rng.random(shape)
    arr.flat[::3] = -0.0
    arr.flat[1::7] = np.nan
    for given in (arr, np.asfortranarray(arr), np.swapaxes(np.ascontiguousarray(np.swapaxes(arr, *pair)), *pair)):
        before = given.copy()
        got = replicate_output(given, (pair,))
        assert got.tobytes() == _replicate_by_gather(given, (pair,)).tobytes()
        assert got.flags["C_CONTIGUOUS"] and not np.shares_memory(got, given)
        assert given.tobytes() == before.tobytes()


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("n", [0, 1, 127, 128, 129, 600])
def test_pair_mirror_equals_the_gather_bitwise(n, dtype):
    """The mirror of one 2-mode group, at sides around 128 and beyond, on
    C and transposed layouts, with signed zeros and NaNs: the reference
    gather's bytes exactly."""
    rng = np.random.default_rng(n)
    arr = (rng.random((n, n)) - 0.5).astype(dtype)
    arr.flat[::5] = -0.0
    arr.flat[2::5] = 0.0
    arr.flat[1::11] = np.nan
    for given in (arr, np.ascontiguousarray(arr.T).T):
        got = replicate_output(given, ((0, 1),))
        want = _replicate_by_gather(given, ((0, 1),))
        assert got.dtype == want.dtype and got.flags["C_CONTIGUOUS"]
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("shape, pair", [((3, 129, 129), (1, 2)), ((130, 2, 130), (0, 2))])
def test_pair_mirror_inside_a_larger_output(shape, pair, dtype):
    rng = np.random.default_rng(sum(shape))
    arr = rng.random(shape).astype(dtype)
    arr.flat[::4] = -0.0
    arr.flat[3::13] = np.nan
    got = replicate_output(arr, (pair,))
    assert got.tobytes() == _replicate_by_gather(arr, (pair,)).tobytes()


# ----------------------------------------------------------------------
# the generated finish entry point against the gather
# ----------------------------------------------------------------------
#: (backend, wide index arrays): every leg the finish entry point runs on
LEGS = [("python", False)] + (
    [("c", False), ("c", True)] if get_backend("c").is_available() else []
)
SIDES = (0, 1, 63, 64, 65)


@functools.lru_cache(maxsize=None)
def _compiled(key: str, backend: str, dtype: str):
    """The render-corpus lowering *key* (``kind|variant``), compiled for
    *backend* and *dtype*."""
    name, variant = key.split("|")
    options = DEFAULT.but(backend=backend, dtype=dtype, threads=1)
    if name.startswith("extra:"):
        einsum, symmetric, loop_order, formats, *levels = EXTRAS[name[len("extra:"):]]
        return compile_kernel(einsum, symmetric=symmetric, loop_order=loop_order,
                              formats=formats, options=options,
                              sparse_levels=levels[0] if levels else None)
    return {**KERNELS, **EXTENSIONS}[name].compile(naive=variant == "naive", options=options)


def _finished_keys():
    """Every corpus lowering with a finish entry point: a symmetric output,
    a layout that moves an axis, or both."""
    keys = ["%s|%s" % (name, variant) for name in sorted({**KERNELS, **EXTENSIONS})
            for variant in ("systec", "naive")]
    keys += ["extra:%s|systec" % name for name in sorted(EXTRAS)]
    return [key for key in keys if _compiled(key, "python", "float64").lowered.program.finish]


def _inputs(kernel, n: int, rng):
    """Random operands at side *n* along every symmetric mode (of an input
    or of the output), 3 along the others; sparse ones as a few canonical
    coordinates, signed zeros among their values."""
    plan, output = kernel.plan, kernel.lowered.output
    wide = {output.index_names[m] for part in output.replication_parts for m in part}
    for acc in plan.original.accesses:
        for part in plan.symmetric_modes.get(acc.tensor, ()):
            wide.update(acc.indices[m] for m in part)
    inputs = {}
    for acc in plan.original.accesses:
        if acc.tensor in inputs:
            continue
        shape = tuple(n if i in wide else 3 for i in acc.indices)
        if kernel.formats.get(acc.tensor) != "sparse":
            inputs[acc.tensor] = rng.standard_normal(shape)
            continue
        coords = np.stack([rng.integers(0, max(s, 1), 3 * n) for s in shape])
        parts = plan.symmetric_modes.get(acc.tensor, ())
        for part in parts:
            coords[list(part)] = -np.sort(-coords[list(part)], axis=0)
        vals = rng.standard_normal(coords.shape[1])
        vals[::4] = -0.0
        inputs[acc.tensor] = Tensor(COO(tuple(coords), vals, shape), parts, canonical=bool(parts))
    return inputs


@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("backend, wide", LEGS)
@pytest.mark.parametrize("key", _finished_keys())
def test_finished_results_are_the_gather_bit_for_bit(key, backend, wide, dtype, monkeypatch):
    """The one-shot result, ``plan.finalized()`` and ``finalize(out)`` are
    the gather of the raw buffer (``np.transpose`` back, then
    :func:`replicate_output`) byte for byte, at sides around 64 and at the
    edges, on every backend, dtype and index width; ``finalized()`` leaves
    ``plan.out`` as the kernel left it, and ``finalize`` its argument."""
    if wide:
        monkeypatch.setattr(coo_mod, "INDEX_LIMIT", 0)
    kernel = _compiled(key, backend, dtype)
    output = kernel.lowered.output
    assert kernel.backend == backend
    rng = np.random.default_rng(zlib.crc32(key.encode()))
    for n in SIDES:
        inputs = _inputs(kernel, n, rng)
        plan = kernel.execution_plan(**inputs)
        raw = plan().copy()
        indices = {str(v.dtype) for name, v in plan.prepared.items() if "_idx" in name}
        assert indices == {"int64" if wide else "int32"}
        want = np.ascontiguousarray(replicate_output(
            np.transpose(raw, np.argsort(output.layout)), output.replication_parts))
        assert kernel(**inputs).tobytes() == want.tobytes(), n
        for _ in range(2):
            assert plan.finalized().tobytes() == want.tobytes(), n
            assert plan.out.tobytes() == raw.tobytes(), n
        given = raw.copy()
        got = kernel.finalize(given)
        assert got.tobytes() == want.tobytes() and got.dtype == want.dtype, n
        assert given.tobytes() == raw.tobytes() and not np.shares_memory(got, given)
