"""Unit tests for the logical Tensor wrapper and its views."""

import re

import numpy as np
import pytest

from repro.tensor.coo import COO
from repro.tensor.fiber import FiberTensor
from repro.tensor.symmetry_ops import pack_canonical, split_diagonal
from repro.tensor.tensor import Tensor, default_levels
from tests.conftest import make_symmetric_matrix, make_symmetric_tensor


def test_from_dense_roundtrip(rng):
    arr = rng.random((4, 4)) * (rng.random((4, 4)) < 0.5)
    t = Tensor.from_dense(arr)
    np.testing.assert_array_equal(t.to_dense(), arr)
    assert t.nnz == np.count_nonzero(arr)


def test_canonical_payload_expands_to_full(rng):
    A = make_symmetric_matrix(rng, 6, 0.7)
    canonical = COO.from_dense(np.tril(A))
    t = Tensor(canonical, symmetric_modes=((0, 1),), canonical=True)
    np.testing.assert_array_equal(t.to_dense(), A)


def test_filter_views_partition(rng):
    A = make_symmetric_tensor(rng, 5, 3, 0.6)
    t = Tensor.from_dense(A, symmetric_modes=((0, 1, 2),))
    full, canon, strict, diag = (
        t.view((0, 1, 2), default_levels(3), name)
        for name in ("full", "all", "strict", "diagonal")
    )
    assert strict.nnz + diag.nnz == canon.nnz
    assert full.nnz == np.count_nonzero(A)
    assert canon.nnz <= full.nnz


def test_unknown_filter_rejected(rng):
    t = Tensor.from_dense(np.eye(3))
    with pytest.raises(ValueError):
        t.view((0, 1), default_levels(2), "upper")


def test_view_is_cached(rng):
    t = Tensor.from_dense(make_symmetric_matrix(rng, 5), ((0, 1),))
    v1 = t.view((0, 1), ("dense", "sparse"), "all")
    v2 = t.view((0, 1), ("dense", "sparse"), "all")
    assert v1 is v2


def test_view_permutes_modes(rng):
    arr = rng.random((3, 5)) * (rng.random((3, 5)) < 0.6)
    t = Tensor.from_dense(arr)
    v = t.view((1, 0), ("dense", "sparse"), "full")
    np.testing.assert_array_equal(v.to_coo().to_dense(), arr.T)


def test_default_levels():
    assert default_levels(1) == ("dense",)
    assert default_levels(2) == ("dense", "sparse")
    assert default_levels(3) == ("dense", "sparse", "sparse")
    assert default_levels(0) == ()


def test_repr_mentions_symmetry(rng):
    t = Tensor.from_dense(np.eye(3), ((0, 1),))
    assert "symmetric" in repr(t)


# ----------------------------------------------------------------------
# declared assumptions are checked
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "shape, modes, message",
    [
        ((3, 4), ((0, 1),), "unequal extents"),
        ((3, 3), ((0, 2),), "out of range"),
        ((3, 3), ((-1, 0),), "out of range"),
        ((3, 3, 3), ((0, 1), (1, 2)), "twice"),
        ((3, 3), ((0, 0),), "twice"),
    ],
)
def test_invalid_symmetric_modes_rejected(shape, modes, message):
    with pytest.raises(ValueError, match=message):
        Tensor(COO.empty(shape), modes)


def test_valid_symmetric_modes_accepted():
    Tensor(COO.empty((3, 4, 3)), ((0, 2), (1,)))
    Tensor(COO.empty((3, 3, 5, 5)), [[0, 1], [2, 3]])
    Tensor(COO.empty(()), ())


def test_canonical_flag_over_a_full_payload_is_rejected(rng):
    A = make_symmetric_matrix(rng, 6, 0.7)
    full = COO.from_dense(A)
    offending = tuple(int(c) for c in full.coords[:, np.argmax(full.coords[0] < full.coords[1])])
    tensor = Tensor(full, ((0, 1),), canonical=True)
    for tensor_filter in ("strict", "diagonal"):
        with pytest.raises(ValueError, match="declared canonical.*" + re.escape(str(offending))):
            tensor.view((0, 1), default_levels(2), tensor_filter)
    # a payload that is canonical passes, and loses nothing
    packed = Tensor(COO.from_dense(np.tril(A)), ((0, 1),), canonical=True)
    strict, diag = (packed.view((0, 1), default_levels(2), name) for name in ("strict", "diagonal"))
    assert strict.nnz + diag.nnz == packed.nnz


# ----------------------------------------------------------------------
# strict / diagonal straight from a full payload
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "order, modes",
    [(2, ((0, 1),)), (3, ((0, 1, 2),)), (4, ((0, 1, 2, 3),)), (3, ((0, 1),)), (4, ((0, 1), (2, 3)))],
)
def test_fused_split_equals_pack_then_split(rng, order, modes):
    coo = COO.from_dense(make_symmetric_tensor(rng, 5, order, 0.5))
    pick = rng.permutation(coo.nnz)
    shuffled = COO(coo.coords[:, pick], coo.vals[pick], coo.shape, sum_duplicates=False)
    mode_order = tuple(reversed(range(order)))
    for payload in (coo, shuffled):
        strict, diag = split_diagonal(pack_canonical(payload, modes), modes)
        for name, want in (("strict", strict), ("diagonal", diag)):
            levels = default_levels(order)
            view = Tensor(payload, modes).view(mode_order, levels, name)
            reference = FiberTensor(want.permute(mode_order), levels)
            for key, arr in reference.arrays().items():
                assert view.arrays()[key].tobytes() == arr.tobytes(), key
