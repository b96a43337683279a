"""Unit tests for runtime helpers (output allocation, replication)."""

import itertools

import numpy as np
import pytest

from repro.codegen.runtime import apply_reduce, make_output, replicate_output


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
    """The copy-then-overwrite branch on every layout finalize can hand it:
    the swap of a transposed buffer is a C-contiguous view of that buffer,
    so an in-place write must go to a fresh array.  Signed zeros and NaNs
    come through bit for bit."""
    arr = rng.random(shape)
    arr.flat[::3] = -0.0
    arr.flat[1::7] = np.nan
    for given in (arr, np.asfortranarray(arr), np.swapaxes(np.ascontiguousarray(np.swapaxes(arr, *pair)), *pair)):
        before = given.copy()
        got = replicate_output(given, (pair,))
        assert got.tobytes() == _replicate_by_gather(given, (pair,)).tobytes()
        assert got.flags["C_CONTIGUOUS"] and not np.shares_memory(got, given)
        assert given.tobytes() == before.tobytes()
