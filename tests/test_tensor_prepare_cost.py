"""What tensor preparation may cost, as counts (never timings).

A payload already in storage order builds its fibertree with no sort, any
other pays exactly one single-key stable sort per view, and packing plus
splitting a full payload is one mask pass.  The ``np.lexsort`` reference the
sort is compared against lives only here.
"""

import itertools

import numpy as np
import pytest

from repro.tensor import symmetry_ops
from repro.tensor.coo import COO, _lex_order
from repro.tensor.fiber import FiberTensor
from repro.tensor.tensor import Tensor, default_levels


@pytest.fixture
def sorts(monkeypatch):
    """Calls made to numpy's two sorting entry points, by name."""
    calls = {"argsort": 0, "lexsort": 0}

    def counting(name):
        real = getattr(np, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(np, "argsort", counting("argsort"))
    monkeypatch.setattr(np, "lexsort", counting("lexsort"))
    return calls


def _columns(rng, shape, nnz, arrangement):
    """(ndim, nnz) coordinates: duplicate-heavy when *shape* is small."""
    if not shape:
        return np.zeros((0, nnz), dtype=np.int64)
    coords = np.stack([rng.integers(0, n, size=nnz) for n in shape])
    if arrangement == "shuffled":
        return coords
    ordered = coords[:, np.lexsort(coords[::-1])]
    return ordered if arrangement == "sorted" else ordered[:, ::-1].copy()


def _assert_same_permutation(coords, shape):
    want = np.lexsort(coords[::-1]) if coords.shape[0] else np.arange(coords.shape[1])
    got = _lex_order(coords, shape)
    if got is None:  # "already sorted": the stable reference is the identity
        got = np.arange(coords.shape[1])
    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("arrangement", ["sorted", "reversed", "shuffled"])
@pytest.mark.parametrize("ndim", [0, 1, 2, 3, 4])
def test_lex_order_is_the_lexsort_permutation(ndim, arrangement):
    rng = np.random.default_rng(ndim * 7 + len(arrangement))
    for extent, nnz in itertools.product((1, 2, 3, 50), (0, 1, 2, 7, 200)):
        shape = tuple(extent + m for m in range(ndim))
        _assert_same_permutation(_columns(rng, shape, nnz, arrangement), shape)


def test_lex_order_is_stable_under_heavy_duplicates():
    rng = np.random.default_rng(3)
    coords = _columns(rng, (2, 2, 2), 500, "shuffled")
    order = _lex_order(coords, (2, 2, 2))
    np.testing.assert_array_equal(order, np.lexsort(coords[::-1]))
    # equal columns keep their input order
    keys = np.ravel_multi_index(tuple(coords[:, order]), (2, 2, 2))
    assert all(np.all(np.diff(order[keys == k]) > 0) for k in range(8))


def test_lex_order_falls_back_when_the_key_overflows_int64(sorts):
    shape = (2**41, 2**41)
    rng = np.random.default_rng(4)
    coords = np.stack([rng.integers(0, 2**41, size=300) for _ in shape])
    coords[:, 100:200] = coords[:, :100]  # duplicates, far apart
    order = _lex_order(coords, shape)
    assert sorts == {"argsort": 0, "lexsort": 1}
    np.testing.assert_array_equal(order, np.lexsort(coords[::-1]))
    ordered = coords[:, order]
    assert all(tuple(a) <= tuple(b) for a, b in zip(ordered.T, ordered.T[1:]))
    # and the fibertree of such a tensor is built from it
    fiber = FiberTensor(COO(coords, np.ones(300), shape, sum_duplicates=False), ("sparse",) * 2)
    np.testing.assert_array_equal(fiber.idx[1], ordered[1])


# ----------------------------------------------------------------------
# fibertree arrays, byte for byte against the lexsort reference
# ----------------------------------------------------------------------
def _fiber_bytes(fiber):
    return {name: (arr.dtype, arr.tobytes()) for name, arr in fiber.arrays().items()}


@pytest.mark.parametrize("arrangement", ["sorted", "reversed", "shuffled"])
@pytest.mark.parametrize("shape", [(9,), (6, 6), (2, 2), (5, 4, 5), (3, 3, 3, 3)])
def test_fibertree_bytes_match_a_lexsorted_build(shape, arrangement):
    rng = np.random.default_rng(len(shape))
    coords = _columns(rng, shape, 120, arrangement)  # duplicate-bearing
    vals = rng.random(120)
    order = np.lexsort(coords[::-1])
    reference = COO(coords[:, order], vals[order], shape, sum_duplicates=False)
    for levels in (default_levels(len(shape)), ("sparse",) * len(shape)):
        got = FiberTensor(COO(coords, vals, shape, sum_duplicates=False), levels)
        assert _fiber_bytes(got) == _fiber_bytes(FiberTensor(reference, levels))


# ----------------------------------------------------------------------
# counts
# ----------------------------------------------------------------------
def _full_symmetric_coo(rng, n=12, ndim=2, shuffled=False):
    """Both triangles of a symmetric tensor, as a user would pass them."""
    dense = rng.random((n,) * ndim) * (rng.random((n,) * ndim) < 0.4)
    for perm in itertools.permutations(range(ndim)):
        dense = np.maximum(dense, np.transpose(dense, perm))
    coo = COO.from_dense(dense)
    if shuffled:
        pick = rng.permutation(coo.nnz)
        coo = COO(coo.coords[:, pick], coo.vals[pick], coo.shape, sum_duplicates=False)
    return coo


def test_sorted_payload_builds_every_view_without_sorting(rng, sorts):
    coo = _full_symmetric_coo(rng)
    tensor = Tensor(coo, ((0, 1),))
    for tensor_filter in ("full", "all", "strict", "diagonal"):
        view = tensor.view((0, 1), default_levels(2), tensor_filter)
        assert view.presorted
    assert sorts == {"argsort": 0, "lexsort": 0}


def test_filter_and_identity_permute_of_a_sorted_coo_do_not_sort(rng, sorts):
    ordered = _full_symmetric_coo(rng, shuffled=True).sorted_lex()
    assert sorts == {"argsort": 1, "lexsort": 0}
    derived = ordered.filter(ordered.coords[0] > 2).permute((0, 1))
    assert FiberTensor(derived, default_levels(2)).presorted
    assert sorts == {"argsort": 1, "lexsort": 0}


def test_derived_coos_inherit_sortedness(rng):
    shuffled = _full_symmetric_coo(rng, shuffled=True)
    assert not shuffled._sorted  # a user-built COO never carries the bit
    ordered = shuffled.sorted_lex()
    assert ordered._sorted
    assert ordered.filter(ordered.coords[0] >= ordered.coords[1])._sorted
    assert ordered.permute((0, 1))._sorted
    assert ordered.astype(np.float32)._sorted
    assert not ordered.permute((1, 0))._sorted
    assert not shuffled.filter(shuffled.coords[0] > 1)._sorted


def test_non_identity_permute_sorts_once(rng, sorts):
    coo = _full_symmetric_coo(rng).sorted_lex()
    fiber = FiberTensor(coo.permute((1, 0)), default_levels(2))
    assert not fiber.presorted
    assert sorts == {"argsort": 1, "lexsort": 0}


def test_shuffled_payload_sorts_once_per_view(rng, sorts):
    tensor = Tensor(_full_symmetric_coo(rng, shuffled=True), ((0, 1),))
    views = [
        tensor.view(order, default_levels(2), tensor_filter)
        for tensor_filter in ("strict", "diagonal")
        for order in ((0, 1), (1, 0))
    ]
    assert not any(view.presorted for view in views)
    assert sorts == {"argsort": len(views), "lexsort": 0}
    tensor.view((0, 1), default_levels(2), "strict")  # memoized
    assert sorts["argsort"] == len(views)


def test_pack_and_split_of_a_full_payload_is_one_mask_pass(rng, monkeypatch):
    calls = {"mask": 0, "filter": 0}
    real_mask, real_filter = symmetry_ops.canonical_coords_mask, COO.filter

    def mask(*args, **kwargs):
        calls["mask"] += 1
        return real_mask(*args, **kwargs)

    def filter_(self, keep):
        calls["filter"] += 1
        return real_filter(self, keep)

    monkeypatch.setattr(symmetry_ops, "canonical_coords_mask", mask)
    monkeypatch.setattr(COO, "filter", filter_)
    tensor = Tensor(_full_symmetric_coo(rng, ndim=3, n=6), ((0, 1, 2),))
    tensor.view((0, 1, 2), default_levels(3), "strict")
    tensor.view((0, 1, 2), default_levels(3), "diagonal")
    # the canonical mask and the strict mask, each once; one filter per half
    assert calls == {"mask": 2, "filter": 2}


def test_sortedness_is_never_cached_on_a_user_coo(rng):
    coo = _full_symmetric_coo(rng, n=8)
    levels = default_levels(2)
    before = Tensor(coo).view((0, 1), levels)
    assert before.presorted
    coo.coords[:] = coo.coords[:, ::-1].copy()  # in place: now reverse-sorted
    coo.vals[:] = coo.vals[::-1].copy()
    after = Tensor(coo).view((0, 1), levels)
    assert not after.presorted
    assert _fiber_bytes(after) == _fiber_bytes(before)


def test_dense_arguments_are_scanned_once_and_never_for_a_shape(rng, monkeypatch):
    """``COO.from_dense`` (a nonzero scan and gather of the whole array)
    runs once per distinct dense argument in ``kernel.prepare`` and not at
    all to answer ``output_shape`` — that only reads ``.shape``."""
    from repro.core.compiler import compile_kernel

    calls = []
    real = COO.from_dense

    def from_dense(arr, fill=0.0):
        calls.append(np.shape(arr))
        return real(arr, fill)

    monkeypatch.setattr(COO, "from_dense", staticmethod(from_dense))
    kernel = compile_kernel(
        "C[i, j] += A[i, k] * B[k, j]", loop_order=("i", "k", "j")
    )
    A, B = rng.random((4, 5)), rng.random((5, 3))
    assert kernel.output_shape(A=A, B=B) == (4, 3)
    assert kernel.output_shape(A=A.tolist(), B=Tensor.from_dense(B)) == (4, 3)
    assert calls == [(5, 3)]  # the explicit Tensor.from_dense above
    del calls[:]
    prepared, shape = kernel.prepare(A=A, B=B)
    assert shape == (4, 3) and calls == [(4, 5), (5, 3)]
    del calls[:]
    square = rng.random((4, 4))
    kernel.prepare(A=square, B=square)  # one object under two names
    assert calls == [(4, 4)]
