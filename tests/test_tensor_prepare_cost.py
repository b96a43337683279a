"""What tensor preparation may cost, as counts (never timings), and what
it must produce, byte for byte.

``Tensor.view`` walks the symmetric pairs once per split, gathers each
half once straight into storage order and checks order on one
hand-linearised key: a payload already in storage order builds its
fibertree with no sort; any other pays one default (unstable, SIMD)
argsort per view, and a stable one on top only when two of its
coordinates are equal — never for distinct ones.  ``pos`` comes from run
boundaries: nothing calls ``np.bincount`` or ``np.ravel_multi_index``.
The ``np.lexsort`` and ``np.bincount`` references the results are
compared against live only here.  The one-pass native split of a sorted
matrix or 3-mode payload (:mod:`repro.tensor.native`) is checked against
the numpy route byte for byte, with its size rule lowered to one entry,
and its AVX-512 object against the same source built without AVX-512.
"""

import contextlib
import ctypes
import functools
import itertools
import math
import os
import subprocess

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.codegen.backends import ctoolchain, get_backend
from repro.core.config import DEFAULT
from repro.kernels.extensions import EXTENSIONS
from repro.kernels.library import KERNELS
from repro.obs import metrics as obs_metrics
from repro.obs import trace
from repro.tensor import coo as coo_mod
from repro.tensor import native, symmetry_ops
from repro.tensor import tensor as tensor_mod
from repro.tensor.coo import COO, _lex_order, index_dtype
from repro.tensor.fiber import FiberTensor
from repro.tensor.symmetry_ops import expand_symmetric, pack_canonical, split_diagonal
from repro.tensor.tensor import Tensor, default_levels

FILTERS = ("full", "all", "strict", "diagonal")


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


@pytest.fixture
def argsort_kinds(monkeypatch):
    """The ``kind`` of every ``np.argsort`` call (None for the default)."""
    kinds = []
    real = np.argsort

    def wrapper(*args, **kwargs):
        kinds.append(kwargs.get("kind"))
        return real(*args, **kwargs)

    monkeypatch.setattr(np, "argsort", wrapper)
    return kinds


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


def _every_view(tensor):
    """Every filter of *tensor* in two storage orders and both level forms."""
    ndim = tensor.ndim
    orders = (tuple(range(ndim)), tuple(reversed(range(ndim))))
    return [
        tensor.view(order, levels, tensor_filter)
        for order in orders
        for levels in (default_levels(ndim), ("sparse",) * ndim)
        for tensor_filter in FILTERS
    ]


def test_building_a_view_never_counts_with_bincount(rng, monkeypatch):
    calls = []
    real = np.bincount
    monkeypatch.setattr(np, "bincount", lambda *a, **k: calls.append(a) or real(*a, **k))
    for ndim, parts in ((2, ((0, 1),)), (3, ((0, 1, 2),)), (3, ((1, 2),))):
        for shuffled, canonical in itertools.product((False, True), (False, True)):
            coo = _full_symmetric_coo(rng, ndim=ndim, n=6, shuffled=shuffled)
            if canonical:
                coo = pack_canonical(coo, parts)
            assert all(v.nnz for v in _every_view(Tensor(coo, parts, canonical=canonical)))
    assert calls == []


def test_distinct_coordinates_never_take_a_stable_sort(rng, argsort_kinds):
    for ndim, parts in ((2, ((0, 1),)), (3, ((0, 1, 2),))):
        views = _every_view(Tensor(_full_symmetric_coo(rng, ndim=ndim, n=7, shuffled=True), parts))
        assert not all(view.presorted for view in views)
    # a canonical payload's full view expands it: its replicas are distinct too
    for ndim, parts in ((2, ((0, 1),)), (3, ((0, 1, 2),)), (4, ((0, 1), (2, 3)))):
        canonical = pack_canonical(_full_symmetric_coo(rng, ndim=ndim, n=5, shuffled=True), parts)
        Tensor(canonical, parts, canonical=True).view(tuple(range(ndim)), default_levels(ndim))
    assert argsort_kinds and "stable" not in argsort_kinds


def test_duplicate_coordinates_take_one_stable_sort_per_view(rng, argsort_kinds):
    coo = _full_symmetric_coo(rng, n=9)
    twice = np.concatenate([coo.coords, coo.coords], axis=1)
    pick = rng.permutation(twice.shape[1])
    doubled = COO(twice[:, pick], np.tile(coo.vals, 2)[pick], coo.shape, sum_duplicates=False)
    views = _every_view(Tensor(doubled, ((0, 1),)))
    assert not any(view.presorted for view in views)
    # an unstable sort finds the tie, one stable sort decides it
    assert argsort_kinds.count("stable") == len(views)
    assert argsort_kinds.count(None) == len(views)


def test_pack_and_split_of_a_full_payload_is_one_mask_pass(rng, monkeypatch):
    calls = {"walk": 0, "mask": 0, "filter": 0}
    real_walk, real_mask, real_filter = (
        symmetry_ops.split_masks, symmetry_ops.canonical_coords_mask, COO.filter
    )

    def counted(name, real):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return wrapper

    for module in (symmetry_ops, tensor_mod):
        monkeypatch.setattr(module, "split_masks", counted("walk", real_walk))
        monkeypatch.setattr(module, "canonical_coords_mask", counted("mask", real_mask))
    monkeypatch.setattr(COO, "filter", counted("filter", real_filter))
    # the native pass, where it runs, is the one walk of its split
    monkeypatch.setattr(native, "_run", counted("walk", native._run))
    monkeypatch.setattr(native, "MIN_ENTRIES", 1)
    tensor = Tensor(_full_symmetric_coo(rng, ndim=3, n=6), ((0, 1, 2),))
    tensor.view((0, 1, 2), default_levels(3), "strict")
    tensor.view((0, 1, 2), default_levels(3), "diagonal")
    tensor.view((2, 1, 0), default_levels(3), "diagonal")
    # one walk per split (both halves of one storage order come from it),
    # gathered without an intermediate COO
    assert calls == {"walk": 2, "mask": 0, "filter": 0}
    tensor.view((0, 1, 2), default_levels(3), "all")
    assert calls == {"walk": 2, "mask": 1, "filter": 0}
    matrix = Tensor(_full_symmetric_coo(rng), ((0, 1),))
    for order in ((0, 1), (1, 0)):  # native (or numpy without cc), then numpy
        matrix.view(order, default_levels(2), "strict")
        matrix.view(order, default_levels(2), "diagonal")
    assert calls == {"walk": 4, "mask": 1, "filter": 0}


def test_views_never_ravel_and_cache_only_finished_views(rng, monkeypatch):
    calls = []
    real = np.ravel_multi_index
    monkeypatch.setattr(np, "ravel_multi_index", lambda *a, **k: calls.append(a) or real(*a, **k))
    for shuffled in (False, True):
        tensor = Tensor(_full_symmetric_coo(rng, ndim=3, n=6, shuffled=shuffled), ((0, 1, 2),))
        for order in ((0, 1, 2), (2, 0, 1)):
            tensor.view(order, default_levels(3), "strict")
            tensor.view(order, ("sparse",) * 3, "all")
            tensor.view(order, default_levels(3), "full")
        # asking for the strict half built the diagonal one beside it
        assert len(tensor._view_cache) == 8
        assert all(isinstance(v, FiberTensor) for v in tensor._view_cache.values())
        # no split, packed or permuted COO is held: only the payload itself
        held = [v for v in vars(tensor).values() if isinstance(v, COO)]
        assert held and all(v is tensor.coo for v in held)
    assert calls == []


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
    runs once per distinct argument that feeds a sparse view in
    ``kernel.prepare``, never for one that feeds only dense views, and not
    at all to answer ``output_shape`` — that only reads ``.shape``."""
    from repro.core.compiler import compile_kernel

    calls = []
    real = COO.from_dense

    def from_dense(arr, fill=0.0):
        calls.append(np.shape(arr))
        return real(arr, fill)

    monkeypatch.setattr(COO, "from_dense", staticmethod(from_dense))
    kernel = compile_kernel(
        "C[i, j] += A[i, k] * B[k, j]", loop_order=("i", "k", "j"), formats={"A": "sparse"}
    )
    A, B = rng.random((4, 5)), rng.random((5, 3))
    assert kernel.output_shape(A=A, B=B) == (4, 3)
    assert kernel.output_shape(A=A.tolist(), B=Tensor.from_dense(B)) == (4, 3)
    assert calls == [(5, 3)]  # the explicit Tensor.from_dense above
    del calls[:]
    prepared, shape = kernel.prepare(A=A, B=B)
    assert shape == (4, 3) and calls == [(4, 5)]  # B feeds a dense view only
    assert prepared["B"].tobytes() == B.tobytes() and not np.shares_memory(prepared["B"], B)
    del calls[:]
    square = rng.random((4, 4))
    kernel.prepare(A=square, B=square)  # one object under two names
    assert calls == [(4, 4)]


# ----------------------------------------------------------------------
# Tensor.view against the public route, byte for byte
# ----------------------------------------------------------------------
_PARTS = {
    1: [()],
    2: [(), ((0, 1),)],
    3: [((0, 1, 2),), ((0, 2),)],
    4: [((0, 1, 2, 3),), ((0, 1), (2, 3))],
}


def _symmetric_dense(rng, ndim, parts, n=4):
    dense = rng.random((n,) * ndim) * (rng.random((n,) * ndim) < 0.5)
    for part in parts:
        for perm in itertools.permutations(part):
            axes = list(range(ndim))
            for src, dst in zip(part, perm):
                axes[dst] = src
            dense = np.maximum(dense, np.transpose(dense, axes))
    return dense


def _arranged(coo, arrangement, rng):
    pick = {
        "sorted": np.arange(coo.nnz),
        "reversed": np.arange(coo.nnz)[::-1],
        "shuffled": rng.permutation(coo.nnz),
    }[arrangement]
    return COO(coo.coords[:, pick], coo.vals[pick], coo.shape, sum_duplicates=False)


def _public_route(coo, parts, canonical, tensor_filter):
    """The kept public helpers, chained the way ``Tensor.view`` once did."""
    nontrivial = tuple(p for p in parts if len(p) >= 2)
    if tensor_filter == "full":
        return expand_symmetric(coo, nontrivial) if canonical and nontrivial else coo
    if tensor_filter == "all":
        return coo if canonical or not nontrivial else pack_canonical(coo, nontrivial)
    strict, diagonal = split_diagonal(coo, nontrivial, check=canonical)
    return strict if tensor_filter == "strict" else diagonal


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("ndim", [1, 2, 3, 4])
def test_views_match_the_public_route_byte_for_byte(ndim, dtype):
    rng = np.random.default_rng(ndim)
    orders = sorted({tuple(range(ndim)), tuple(reversed(range(ndim))), tuple(np.roll(range(ndim), 1))})
    for parts, canonical in itertools.product(_PARTS[ndim], (False, True)):
        full = COO.from_dense(_symmetric_dense(rng, ndim, parts).astype(dtype))
        payload = pack_canonical(full, parts) if canonical else full
        for arrangement in ("sorted", "reversed", "shuffled"):
            coo = _arranged(payload, arrangement, rng)
            tensor = Tensor(coo, parts, canonical=canonical)
            for order, levels, tensor_filter in itertools.product(
                orders, (default_levels(ndim), ("sparse",) * ndim), FILTERS
            ):
                want = FiberTensor(
                    _public_route(coo, parts, canonical, tensor_filter).permute(order), levels
                )
                got = tensor.view(order, levels, tensor_filter)
                assert _fiber_bytes(got) == _fiber_bytes(want), (parts, canonical, arrangement, order, levels, tensor_filter)
                assert got.presorted == want.presorted
                assert got.vals.dtype == dtype


# ----------------------------------------------------------------------
# every kernel's prepared arguments, against a build that lives here
# ----------------------------------------------------------------------
def _reference_fiber(coords, vals, shape, levels):
    """pos/idx/vals of a fibertree from explicit column groupings, in the
    index width the one rule gives its shape and nnz."""
    width = index_dtype(shape, coords.shape[1])
    order = np.lexsort(coords[::-1])
    coords, vals = coords[:, order], vals[order]
    ndim, nnz = coords.shape
    dense_prefix = list(levels).count("dense")
    out = {"vals": vals}
    parent_of, n_parents = None, None
    for level in range(dense_prefix, ndim):
        if level == ndim - 1:
            nodes = [tuple(c) for c in coords.T]
        else:
            nodes = sorted({tuple(c[: level + 1]) for c in coords.T})
        if level == dense_prefix:
            n_parents = int(np.prod(shape[:dense_prefix]))
            parents = [int(np.ravel_multi_index(node[:dense_prefix], shape[:dense_prefix])) if dense_prefix else 0 for node in nodes]
        else:
            parents = [parent_of[node[:level]] for node in nodes]
        counts = np.bincount(np.asarray(parents, dtype=np.int64), minlength=n_parents)
        out["pos%d" % level] = np.concatenate(([0], np.cumsum(counts))).astype(width)
        out["idx%d" % level] = np.asarray([node[level] for node in nodes], dtype=width)
        parent_of, n_parents = {node: i for i, node in enumerate(nodes)}, len(nodes)
    return out


def _masks(coords, parts):
    canonical = np.ones(coords.shape[1], dtype=bool)
    strict = np.ones(coords.shape[1], dtype=bool)
    for part in parts:
        for a, b in zip(sorted(part), sorted(part)[1:]):
            canonical &= coords[a] >= coords[b]
            strict &= coords[a] > coords[b]
    return {"full": None, "all": canonical, "strict": strict, "diagonal": canonical & ~strict}


def _arguments(spec, rng, n=4):
    kernel = spec.compile()
    parts = kernel.plan.symmetric_modes
    sparse = {view.tensor for view in kernel.lowered.sparse_views}
    ndims = {acc.tensor: acc.ndim for acc in kernel.plan.original.accesses}
    dense = {name: _symmetric_dense(rng, ndim, parts.get(name, ()), n) for name, ndim in ndims.items()}
    for name in set(dense) - sparse:
        dense[name] = rng.random((n,) * ndims[name]) - 0.5
    return kernel, parts, sparse, dense


@pytest.mark.parametrize("name", sorted(KERNELS) + sorted(EXTENSIONS))
def test_prepared_arguments_match_a_reference_build(name):
    spec = KERNELS.get(name) or EXTENSIONS[name]
    rng = np.random.default_rng(len(name))
    kernel, parts, sparse, dense = _arguments(spec, rng)
    for canonical in (False, True):
        args = {}
        for tensor_name, arr in dense.items():
            if tensor_name not in sparse:
                args[tensor_name] = arr
                continue
            coo = _arranged(COO.from_dense(arr), "shuffled", rng)
            nontrivial = tuple(p for p in parts.get(tensor_name, ()) if len(p) >= 2)
            if canonical and nontrivial:
                coo = coo.filter(_masks(coo.coords, nontrivial)["all"])
            args[tensor_name] = Tensor(coo, parts.get(tensor_name, ()), canonical=canonical and bool(nontrivial))
        prepared, _ = kernel.prepare(**args)
        for view in kernel.lowered.sparse_views:
            full = COO.from_dense(dense[view.tensor])
            nontrivial = tuple(p for p in parts.get(view.tensor, ()) if len(p) >= 2)
            mask = _masks(full.coords, nontrivial)[view.tensor_filter]
            coords, vals = (full.coords, full.vals) if mask is None else (full.coords[:, mask], full.vals[mask])
            shape = tuple(full.shape[m] for m in view.mode_order)
            want = _reference_fiber(coords[list(view.mode_order)], vals, shape, view.levels)
            for arr_name, arr in want.items():
                got = prepared["%s_%s" % (view.name, arr_name)]
                assert got.dtype == arr.dtype and got.flags["C_CONTIGUOUS"]
                assert got.tobytes() == arr.tobytes(), (view, arr_name, canonical)
        for view in kernel.lowered.dense_views:
            want = np.ascontiguousarray(np.transpose(dense[view.tensor], view.perm))
            got = prepared[view.name]
            assert got.dtype == want.dtype and got.flags["C_CONTIGUOUS"]
            assert got.tobytes() == want.tobytes()


@pytest.mark.skipif(not get_backend("c").is_available(), reason="no C compiler")
@pytest.mark.parametrize("name", ["ssymv", "bellmanford", "mttkrp3d"])
def test_negative_zero_in_a_dense_operand_is_bitwise_equal_across_backends(name):
    """A dense operand reaches the kernel as given — ``-0.0`` keeps its
    sign bit — and python and c agree on it bit for bit."""
    spec = KERNELS[name]
    rng = np.random.default_rng(9)
    kernel, parts, sparse, dense = _arguments(spec, rng, n=6)
    (operand,) = set(dense) - sparse
    dense[operand].flat[::2] = -0.0
    prepared, _ = kernel.prepare(**dense)
    assert np.signbit(prepared[operand]).sum() >= dense[operand].size // 2
    outputs = [
        spec.compile(options=DEFAULT.but(backend=backend))(**dense)
        for backend in ("python", "c")
    ]
    assert outputs[0].tobytes() == outputs[1].tobytes()


# ----------------------------------------------------------------------
# narrow coordinates whose linearised key does not fit 32 bits: every
# product of coordinates is taken in the key's width, never in theirs
# ----------------------------------------------------------------------
WIDE_KEY_SHAPES = [(70_000, 70_000), (2_000,) * 3]


def _narrow_payload(shape, nnz=3_000, seed=11):
    """Shuffled in-bounds columns with ~1/3 of them repeated elsewhere,
    as a COO kept raw (narrow, unsorted, duplicates intact)."""
    rng = np.random.default_rng(seed)
    coords = np.stack([rng.integers(0, n, size=nnz) for n in shape])
    coords[:, nnz // 3 : 2 * nnz // 3] = coords[:, : nnz // 3]
    coords = coords[:, rng.permutation(nnz)]
    vals = rng.integers(1, 9, size=nnz).astype(np.float64)  # sums are exact
    coo = COO(coords, vals, shape, sum_duplicates=False)
    assert coo.coords.dtype == np.int32 and math.prod(shape) > 2**31
    return coo


@pytest.mark.parametrize("shape", WIDE_KEY_SHAPES)
def test_lex_order_of_narrow_coordinates_is_the_lexsort_permutation(shape):
    coo = _narrow_payload(shape)
    np.testing.assert_array_equal(
        _lex_order(coo.coords, shape), np.lexsort(coo.coords[::-1])
    )


@pytest.mark.parametrize("shape", WIDE_KEY_SHAPES)
def test_sum_duplicates_of_narrow_coordinates_merges_exactly_the_equal_pairs(shape):
    raw = _narrow_payload(shape)
    merged = COO(raw.coords, raw.vals, shape)
    columns, inverse = np.unique(raw.coords.T, axis=0, return_inverse=True)
    sums = np.zeros(len(columns))
    np.add.at(sums, inverse.ravel(), raw.vals)
    assert merged.nnz == len(columns) < raw.nnz
    np.testing.assert_array_equal(merged.coords, columns.T)
    np.testing.assert_array_equal(merged.vals, sums)


@pytest.mark.parametrize("shape", WIDE_KEY_SHAPES)
def test_dense_prefix_fibertree_of_narrow_coordinates_equals_the_int64_build(shape):
    raw = _narrow_payload(shape)
    levels = ("dense",) * (len(shape) - 1) + ("sparse",)
    fiber = FiberTensor(raw, levels)
    want = _reference_fiber(raw.coords.astype(np.int64), raw.vals, shape, levels)
    got = fiber.arrays()
    assert sorted(got) == sorted(want) and not fiber.presorted
    for name, arr in want.items():
        assert got[name].dtype == arr.dtype
        np.testing.assert_array_equal(got[name], arr, err_msg=name)


def test_expand_symmetric_of_narrow_coordinates_matches_its_int64_result(monkeypatch):
    from repro.tensor import coo as coo_mod

    shape, parts = (70_000, 70_000), ((0, 1),)
    raw = _narrow_payload(shape)
    canonical = np.sort(raw.coords, axis=0)[::-1]  # row >= column
    narrow = expand_symmetric(COO(canonical, raw.vals, shape), parts)
    monkeypatch.setattr(coo_mod, "INDEX_LIMIT", 0)
    wide = expand_symmetric(COO(canonical, raw.vals, shape), parts)
    assert narrow.coords.dtype == np.int32 and wide.coords.dtype == np.int64
    np.testing.assert_array_equal(narrow.coords, wide.coords)
    np.testing.assert_array_equal(narrow.vals, wide.vals)
    assert narrow.nnz > COO(canonical, raw.vals, shape).nnz


# ----------------------------------------------------------------------
# Tensor.view as a property, against the references above: every filter,
# storage order and level form of random payloads and of the edge cases
# ----------------------------------------------------------------------
def _expanded(coords, vals, parts):
    """A canonical payload's full tensor, from first principles: every
    coordinate each within-group permutation makes, in
    ``itertools.permutations`` order, the first occurrence kept."""
    groups = [sorted(p) for p in parts]
    seen = {}
    for choice in itertools.product(*(itertools.permutations(g) for g in groups)):
        order = list(range(coords.shape[0]))
        for group, perm in zip(groups, choice):
            for src, dst in zip(group, perm):
                order[dst] = src
        for column, value in zip(coords[order].T.tolist(), vals):
            seen.setdefault(tuple(column), value)
    keys = sorted(seen)
    return (
        np.array(keys, dtype=np.int64).reshape(len(keys), coords.shape[0]).T,
        np.array([seen[k] for k in keys], dtype=vals.dtype),
    )


def _check_views(coords, vals, shape, parts, canonical, order, levels):
    """Every filter of one payload, by dtype and bytes, against
    :func:`_reference_fiber` over :func:`_masks` (and :func:`_expanded`)."""
    nontrivial = tuple(p for p in parts if len(p) >= 2)
    tensor = Tensor(COO(coords, vals, shape, sum_duplicates=False), parts, canonical=canonical)
    masks = _masks(coords, nontrivial)
    if canonical or not nontrivial:
        masks["all"] = None
    for tensor_filter in FILTERS:
        mask = masks[tensor_filter]
        if tensor_filter == "full" and canonical and nontrivial:
            picked = _expanded(coords, vals, nontrivial)
        else:
            picked = (coords, vals) if mask is None else (coords[:, mask], vals[mask])
        view_shape = tuple(shape[m] for m in order)
        want = _reference_fiber(picked[0][list(order)], picked[1], view_shape, levels)
        got = tensor.view(order, levels, tensor_filter).arrays()
        assert sorted(got) == sorted(want), tensor_filter
        for name, arr in want.items():
            assert got[name].dtype == arr.dtype, (tensor_filter, name)
            assert got[name].tobytes() == arr.tobytes(), (tensor_filter, name)


#: ndim -> the symmetry declarations the property draws from
_PROPERTY_PARTS = {
    2: [(), ((0, 1),)],
    3: [((0, 1, 2),), ((1, 2),), ((0, 2),)],
    4: [((0, 1), (2, 3)), ((0, 1, 2, 3),)],
}


@st.composite
def _payloads(draw):
    """A payload, its declaration and one storage order.  Coordinates stay
    inside ``[lo, hi)`` of each extent (empty leading and trailing rows),
    repeat when drawn twice, and may all sit on the diagonal."""
    ndim = draw(st.sampled_from((2, 3, 4)))
    n = draw(st.integers(1, 7 if ndim < 4 else 4))
    lo = draw(st.integers(0, n - 1))
    hi = draw(st.integers(lo + 1, n))
    nnz = draw(st.integers(0, 40))
    coords = np.array(
        draw(st.lists(st.lists(st.integers(lo, hi - 1), min_size=ndim, max_size=ndim),
                      min_size=nnz, max_size=nnz)),
        dtype=np.int64,
    ).reshape(nnz, ndim).T
    if draw(st.booleans()):  # all diagonal: every mode repeats mode 0
        coords[1:] = coords[0]
    parts = draw(st.sampled_from(_PROPERTY_PARTS[ndim]))
    canonical = bool(parts) and draw(st.booleans())
    if canonical:
        coords = np.ascontiguousarray(coords[:, _masks(coords, parts)["all"]])
    dtype = draw(st.sampled_from((np.float64, np.float32)))
    vals = np.array(
        draw(st.lists(st.sampled_from((0.5, -0.0, 0.0, 2.0, float("nan"))),
                      min_size=coords.shape[1], max_size=coords.shape[1])),
        dtype=dtype,
    )
    order = tuple(draw(st.permutations(range(ndim))))
    levels = draw(st.sampled_from((default_levels(ndim), ("sparse",) * ndim)))
    return coords, vals, (n,) * ndim, parts, canonical, order, levels


@contextlib.contextmanager
def _index_limit(limit):
    saved, coo_mod.INDEX_LIMIT = coo_mod.INDEX_LIMIT, limit
    try:
        yield
    finally:
        coo_mod.INDEX_LIMIT = saved


@settings(max_examples=100, deadline=None)
@given(_payloads(), st.booleans())
def test_views_match_the_references_as_a_property(payload, wide):
    with _index_limit(0 if wide else coo_mod.INDEX_LIMIT):
        _check_views(*payload)


def _edge(coords, shape, parts=((0, 1),), canonical=False, order=None, dtype=np.float64):
    coords = np.array(coords, dtype=np.int64).reshape(len(shape), -1)
    vals = (np.arange(coords.shape[1]) - 1.5).astype(dtype)
    order = tuple(range(len(shape))) if order is None else order
    return coords, vals, shape, parts, canonical, order


EDGE_PAYLOADS = {
    "empty": _edge([[], []], (4, 4)),
    "empty canonical": _edge([[], []], (4, 4), canonical=True),
    "single entry": _edge([[2], [1]], (4, 4)),
    "single diagonal entry": _edge([[3], [3]], (4, 4), canonical=True),
    "empty leading and trailing rows": _edge([[3, 2, 3, 4], [1, 2, 3, 1]], (7, 7), order=(1, 0)),
    "all diagonal": _edge([[0, 2, 1, 3], [0, 2, 1, 3], [0, 2, 1, 3]], (4, 4, 4), ((0, 1, 2),)),
    "duplicates": _edge([[2, 1, 2, 2, 1, 0], [1, 1, 1, 2, 1, 0]], (3, 3), order=(1, 0)),
    "canonical duplicates": _edge([[2, 1, 2, 2, 1], [1, 1, 1, 2, 1]], (3, 3), canonical=True),
    "two symmetric parts": _edge(
        [[3, 1, 2, 3, 0], [1, 1, 0, 3, 0], [2, 3, 2, 0, 1], [2, 0, 1, 0, 1]], (4, 4, 4, 4),
        ((0, 1), (2, 3)), canonical=True, order=(2, 3, 0, 1),
    ),
    "transposed 3-D": _edge([[2, 3, 1, 2], [2, 1, 1, 0], [0, 1, 0, 0]], (4, 4, 4), ((0, 1, 2),), order=(2, 0, 1)),
    "float32": _edge([[2, 0, 3, 3], [1, 0, 3, 0]], (4, 4), order=(1, 0), dtype=np.float32),
}


@pytest.mark.parametrize("wide", [False, True], ids=["narrow", "index_limit_0"])
@pytest.mark.parametrize("name", sorted(EDGE_PAYLOADS))
def test_views_match_the_references_on_edge_payloads(name, wide):
    coords, vals, shape, parts, canonical, order = EDGE_PAYLOADS[name]
    ndim = len(shape)
    with _index_limit(0 if wide else coo_mod.INDEX_LIMIT):
        for levels in (default_levels(ndim), ("sparse",) * ndim):
            _check_views(coords, vals, shape, parts, canonical, order, levels)


@settings(max_examples=50, deadline=None)
@given(_payloads())
def test_expand_symmetric_keeps_the_first_copy_of_any_payload(payload):
    """Replicas that reorder equal coordinates are skipped; what is left
    keeps, per coordinate, the copy the full concatenation would have
    kept first — on any payload, canonical or not, duplicates included."""
    coords, vals, shape, parts, _, _, _ = payload
    nontrivial = tuple(p for p in parts if len(p) >= 2)
    assume(nontrivial and coords.shape[1])
    got = expand_symmetric(COO(coords, vals, shape, sum_duplicates=False), nontrivial)
    want_coords, want_vals = _expanded(coords, vals, nontrivial)
    assert got.coords.astype(np.int64).tobytes() == want_coords.tobytes()
    assert got.vals.tobytes() == want_vals.tobytes()


# ----------------------------------------------------------------------
# the native split of a matrix payload: the numpy route's bytes
# ----------------------------------------------------------------------
HAVE_CC = get_backend("c").is_available()


@contextlib.contextmanager
def _native_minimum(entries):
    saved, native.MIN_ENTRIES = native.MIN_ENTRIES, entries
    try:
        yield
    finally:
        native.MIN_ENTRIES = saved


def split_routes(coords, vals, shape, canonical):
    """The strict and diagonal views of one payload, fully symmetric, in
    the identity storage order, built by each route, as ``(route,
    result)``: *result* is a dtype/shape/bytes summary per view, or the
    text of the ``ValueError``; *route* is ``"native"`` when the native
    pass built the views."""
    results, modes = [], tuple(range(len(shape)))
    for minimum in (1, 2**62):  # the native pass where it can, then numpy
        taken = obs_metrics.to_dict()["counters"].get("tensor.split.native", 0)
        with _native_minimum(minimum):
            try:
                tensor = Tensor(COO(coords, vals, shape, sum_duplicates=False), (modes,), canonical=canonical)
                views = [tensor.view(modes, default_levels(len(modes)), f) for f in ("strict", "diagonal")]
            except ValueError as exc:
                results.append(("error", str(exc)))
                continue
        native_now = obs_metrics.to_dict()["counters"].get("tensor.split.native", 0) > taken
        results.append((
            "native" if native_now else "numpy",
            [(v.shape, v.levels, v.presorted, _fiber_bytes(v)) for v in views],
        ))
    return results


@contextlib.contextmanager
def _metrics():
    previous = obs_metrics.enabled()
    obs_metrics.enable()
    try:
        yield
    finally:
        if not previous:
            obs_metrics.disable()


@st.composite
def _split_payloads(draw, ndim):
    """A payload of *ndim* modes: sorted or not, with duplicates or not,
    on one row or many (rows outside ``[lo, hi)`` stay empty), canonical or
    full; a canonical one may carry one non-canonical entry anywhere."""
    n = draw(st.integers(1, 9))
    lo = draw(st.integers(0, n - 1))
    hi = draw(st.integers(lo + 1, n))
    nnz = draw(st.integers(0, 150))  # the native pass takes 16 a step: often three blocks and a tail
    entry = st.tuples(st.integers(lo, hi - 1), *[st.integers(0, n - 1)] * (ndim - 1))
    entries = draw(st.lists(entry, min_size=nnz, max_size=nnz))
    coords = np.array(entries, dtype=np.int64).reshape(nnz, ndim).T
    if draw(st.booleans()):  # one row
        coords[0] = coords[0, :1] if nnz else 0
    if nnz and draw(st.booleans()):  # duplicates
        coords = np.concatenate([coords, coords[:, : draw(st.integers(1, nnz))]], axis=1)
    canonical = draw(st.booleans())
    if canonical:
        coords = coords[:, (coords[:-1] >= coords[1:]).all(axis=0)]
    if draw(st.booleans()):
        coords = coords[:, np.lexsort(coords[::-1])]
    if draw(st.booleans()):  # no diagonal entry: every block takes the native pass's block step
        coords = coords[:, (coords[:-1] != coords[1:]).all(axis=0)]
    if canonical and n > 1 and draw(st.booleans()):
        at = draw(st.integers(0, coords.shape[1]))
        coords = np.insert(coords, [at], [[0], [n - 1]] + [[0]] * (ndim - 2), axis=1)
    dtype = draw(st.sampled_from((np.float64, np.float32)))
    vals = np.array(draw(st.lists(st.sampled_from((0.5, -0.0, 2.0, float("nan"))),
                                  min_size=coords.shape[1], max_size=coords.shape[1])),
                    dtype=dtype)
    return np.ascontiguousarray(coords), vals, (n,) * ndim, canonical


@settings(max_examples=200, deadline=None)
@given(_split_payloads(2))
def test_the_native_split_is_the_numpy_split_byte_for_byte(payload):
    _check_split_routes(payload)


@settings(max_examples=200, deadline=None)
@given(_split_payloads(3))
def test_the_native_3_mode_split_is_the_numpy_split_byte_for_byte(payload):
    _check_split_routes(payload)


def _check_split_routes(payload):
    with _metrics():
        (route, native_result), (numpy_route, numpy_result) = split_routes(*payload)
    assert numpy_route in ("numpy", "error")
    assert native_result == numpy_result
    coords, vals, shape, _ = payload
    in_order = (np.diff(functools.reduce(lambda key, row: key * shape[0] + row, coords)) >= 0).all()
    if HAVE_CC and in_order and len(vals) and vals.dtype == np.float64 and route != "error":
        assert route == "native"


def _block_edge(ndim, edit="", at=0, entry=None, canonical=False):
    """A payload of 40 or more strict entries in storage order, edited at
    entry *at*, as ``(coords, canonical, extent)``.  The native pass takes
    entries 0..15 and 16..31 a block at a time and 32.. in its scalar tail.
    Unedited: a 12x12 matrix's first 40 strict entries (row 6 spans entries
    15..20, row 8 28..35), or an 8x8x8 tensor's last 40 (row 6 spans
    entries 4..18 and its ``(6, 5)`` head 14..18, row 7 entries 19..39)."""
    n = 12 if ndim == 2 else 8
    entries = sorted(c[::-1] for c in itertools.combinations(range(n), ndim))
    entries = entries[:40] if ndim == 2 else entries[16:]
    if edit == "descent":  # below the entry before it
        entries[at - 1 : at + 1] = entries[at], entries[at - 1]
    elif edit == "insert":  # a copy of the entry before, unless given
        entries.insert(at, entry or entries[at - 1])
    elif edit == "bound":  # out of bounds, every later entry turned non-canonical
        entries[at:] = [entry] + [c[::-1] for c in entries[at + 1 :]]
    elif edit == "full":  # every permutation of the first entries: both halves and the rest
        entries = sorted({p for c in entries[: 80 // math.factorial(ndim)] for p in itertools.permutations(c)})
    return [list(c) for c in zip(*entries)], canonical, n


#: adversarial payloads for the native pass: ``(coords, canonical)`` of a
#: 5x5 matrix or a 5x5x5 tensor, or ``(coords, canonical, extent)`` (also
#: split under AddressSanitizer: ``tests/test_staging.py``)
ADVERSARIAL_SPLITS = {
    "descent first": ([[2, 1, 4], [1, 0, 2]], False),
    "descent last": ([[0, 2, 3, 4, 4, 3], [0, 1, 3, 1, 4, 2]], False),
    "duplicates": ([[1, 1, 3, 3, 3, 4], [0, 0, 3, 3, 3, 4]], False),
    "rows at extent - 1": ([[4, 4, 4, 4, 4], [0, 1, 3, 4, 4]], False),
    "empty strict half": ([[0, 1, 2, 4], [0, 1, 2, 4]], True),
    "empty diagonal half": ([[1, 2, 4, 4], [0, 1, 0, 3]], True),
    "upper triangle only": ([[0, 1, 3], [4, 2, 4]], False),
    "bad entry first": ([[0, 1, 2, 3], [3, 1, 2, 3]], True),
    "bad entry last": ([[1, 2, 3, 0], [1, 2, 3, 4]], True),
    # three modes: a descent of (i, j), then of k under one (i, j)
    "3-mode descent first": ([[3, 2, 4], [2, 1, 3], [1, 0, 2]], False),
    "3-mode descent last": ([[0, 2, 3, 4, 4, 4], [0, 1, 3, 2, 4, 2], [0, 0, 3, 1, 4, 0]], False),
    "3-mode diagonal descent": ([[2, 1, 4], [2, 1, 3], [0, 1, 1]], False),
    "3-mode duplicates": ([[1, 1, 3, 3, 4, 4, 4], [0, 0, 3, 3, 3, 3, 3], [0, 0, 1, 1, 1, 2, 2]], False),
    "3-mode coordinates at extent - 1": ([[4, 4, 4, 4, 4], [0, 3, 3, 4, 4], [0, 0, 2, 4, 4]], False),
    "3-mode empty strict half": ([[0, 1, 2, 4], [0, 1, 2, 4], [0, 0, 1, 4]], True),
    "3-mode empty diagonal half": ([[2, 3, 4, 4], [1, 2, 1, 3], [0, 1, 0, 2]], True),
    "3-mode non-canonical only": ([[0, 2, 3], [4, 1, 4], [0, 3, 1]], False),
    "3-mode bad entry first": ([[0, 1, 2, 3], [3, 1, 2, 3], [0, 0, 1, 2]], True),
    "3-mode bad entry last": ([[1, 2, 3, 3], [1, 2, 3, 1], [0, 1, 2, 2]], True),
}
# the edges of the native pass's 16-entry blocks, in both routines; in three
# modes also 45 heads of one entry each (a row's last entry opens a head)
ADVERSARIAL_SPLITS["3-mode block one entry per head"] = (
    [[i for i in range(2, 11) for j in range(1, i)], [j for i in range(2, 11) for j in range(1, i)], [0] * 45],
    False, 11,
)
for _ndim, _prefix in ((2, "block "), (3, "3-mode block ")):
    _n = 12 if _ndim == 2 else 8
    ADVERSARIAL_SPLITS.update({
        _prefix + "rows across edges": _block_edge(_ndim),
        _prefix + "full payload": _block_edge(_ndim, "full"),
        _prefix + "duplicates across an edge": _block_edge(_ndim, "insert", 16),
        _prefix + "diagonal entry at lane 15": _block_edge(_ndim, "insert", 15, (5, 5) if _ndim == 2 else (6, 5, 5)),
        _prefix + "bad bound n at lane 15": _block_edge(_ndim, "bound", 15, (_n, 1, 0)[:_ndim]),
        _prefix + "bad bound -1 at lane 15": _block_edge(_ndim, "bound", 15, (6, -1) if _ndim == 2 else (7, 0, -1)),
        # the numpy route names the first non-canonical entry: second block, then tail
        _prefix + "bad entry 20": _block_edge(_ndim, "insert", 20, (0, _n - 1, 0)[:_ndim], canonical=True),
        _prefix + "bad entry 35": _block_edge(_ndim, "insert", 35, (0, _n - 1, 0)[:_ndim], canonical=True),
        **{_prefix + "descent at entry %d" % at: _block_edge(_ndim, "descent", at) for at in (1, 15, 16, 32)},
    })


def adversarial_payload(name):
    """``(coords, vals, shape, canonical)`` of an adversarial payload."""
    coords, canonical, *extent = ADVERSARIAL_SPLITS[name]
    coords = np.array(coords, dtype=np.int64)
    vals = np.arange(coords.shape[1], dtype=np.float64) - 0.5
    return coords, vals, (extent[0] if extent else 5,) * len(coords), canonical


def routine_split(fns, coords, vals, shape, canonical):
    """What the routines *fns* (``native.bind``'s) make of a float64
    payload: a summary per view as :func:`split_routes` gives it, or
    ``None`` when they give up.  The coordinates reach them unchecked (a
    ``COO`` refuses any out of bounds), so their own bounds checks count."""
    ndim = len(shape)
    coo = COO(np.zeros_like(coords), vals, shape, sum_duplicates=False)
    coo.coords = np.ascontiguousarray(coords, dtype=index_dtype(shape))
    views = native._run(fns[ndim], coo, canonical, default_levels(ndim))
    return views and [(v.shape, v.levels, v.presorted, _fiber_bytes(v)) for v in views.values()]


@pytest.mark.parametrize("name", sorted(ADVERSARIAL_SPLITS))
def test_adversarial_splits_match_the_numpy_route(name):
    payload = adversarial_payload(name)
    with _metrics():
        (route, native_result), (_, numpy_result) = split_routes(*payload)
    assert native_result == numpy_result
    gives_up = "descent" in name or "bad" in name
    if "bad entry" in name:
        at = name.rsplit(" ", 1)[1]
        assert route == "error" and "entry %s" % {"first": 0, "last": 3}.get(at, at) in native_result
    elif "bad bound" in name:  # a COO refuses it first
        assert route == "error" and "out of bounds" in native_result
    elif HAVE_CC:
        assert route == ("numpy" if gives_up else "native")
    if HAVE_CC:  # the routine itself, out-of-bounds coordinates included
        assert routine_split(native._routine(), *payload) == (None if gives_up else native_result)


@pytest.fixture(scope="module")
def scalar_routines(tmp_path_factory):
    """The routines built with the probed flags plus ``-mno-avx512f``: the
    scalar loop alone, all an AVX2 host runs.  Skipped where the default
    object has no 16-entry block step either."""
    tc = ctoolchain.probe()
    if tc is None:
        pytest.skip("no working C toolchain")
    target = [flag for flag in tc.flags if flag.startswith("-m")]
    macros = subprocess.run([tc.cc, *target, "-dM", "-E", "-x", "c", os.devnull],
                            capture_output=True, text=True).stdout
    if "__AVX512F__" not in macros or "__clang__" in macros:
        pytest.skip("the default object is scalar already")
    src = tmp_path_factory.mktemp("scalar") / "split.c"
    src.write_text(native.source())
    out = str(src.with_suffix(".so"))
    ctoolchain._run_cc(tc.cc, tc.object_flags(False) + ("-mno-avx512f",), str(src), out)
    return native.bind(ctypes.CDLL(out))


def _check_scalar_object(fns, coords, vals, shape, canonical):
    payload = coords, vals.astype(np.float64), shape, canonical
    assert routine_split(fns, *payload) == routine_split(native._routine(), *payload)


@pytest.mark.parametrize("name", sorted(ADVERSARIAL_SPLITS))
def test_the_scalar_object_splits_adversarial_payloads_as_the_default_one(scalar_routines, name):
    _check_scalar_object(scalar_routines, *adversarial_payload(name))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from((2, 3)).flatmap(_split_payloads))
def test_the_scalar_object_splits_any_payload_as_the_default_one(scalar_routines, payload):
    _check_scalar_object(scalar_routines, *payload)


def test_only_the_identity_order_of_a_3_mode_group_takes_the_native_pass():
    """MTTKRP-4D's view (four modes), every other storage order of a 3-mode
    tensor, a partial symmetry and all-sparse levels take the numpy route,
    counted as ``layout``."""
    rng = np.random.default_rng(11)
    four, three = _full_symmetric_coo(rng, n=5, ndim=4), _full_symmetric_coo(rng, n=6, ndim=3)
    with _metrics():
        before = dict(obs_metrics.to_dict()["counters"])
        with _native_minimum(1):
            Tensor(four, ((0, 1, 2, 3),)).view((0, 1, 2, 3), default_levels(4), "strict")
            for order in itertools.permutations(range(3)):
                Tensor(three, ((0, 1, 2),)).view(order, default_levels(3), "diagonal")
            Tensor(three, ((0, 1),)).view((0, 1, 2), default_levels(3), "strict")
            Tensor(three, ((0, 1, 2),)).view((0, 1, 2), ("sparse",) * 3, "strict")
        after = obs_metrics.to_dict()["counters"]
    moved = {k: after[k] - before.get(k, 0) for k in after if k.startswith("tensor.split.")}
    assert {k: v for k, v in moved.items() if v} == {
        "tensor.split.numpy.layout": 1 + 5 + 2,
        "tensor.split.native" if HAVE_CC else "tensor.split.numpy.no_toolchain": 1,
    }


def test_a_native_split_counts_its_route_and_a_skipped_sort():
    coo = _full_symmetric_coo(np.random.default_rng(3), n=40)
    with _metrics():
        before = dict(obs_metrics.to_dict()["counters"])
        with _native_minimum(1):
            Tensor(coo, ((0, 1),)).view((0, 1), default_levels(2), "strict")
            Tensor(coo, ((0, 1),)).view((1, 0), default_levels(2), "strict")
            Tensor(coo.astype(np.float32), ((0, 1),)).view((0, 1), default_levels(2), "diagonal")
        Tensor(coo, ((0, 1),)).view((0, 1), default_levels(2), "strict")
        after = obs_metrics.to_dict()["counters"]
    moved = {k: after[k] - before.get(k, 0) for k in after if after[k] != before.get(k, 0)}
    taken = 1 if HAVE_CC else 0
    assert moved.pop("tensor.split.native", 0) == taken
    assert moved.pop("tensor.split.numpy.no_toolchain", 0) == 1 - taken
    for reason in ("layout", "dtype", "small"):
        assert moved.pop("tensor.split.numpy." + reason) == 1
    # a native view skips the sort as a numpy one in storage order does;
    # only the transposed strict half is out of order
    assert moved == {"tensor.sort.skipped": 7, "tensor.sort.linear": 1}


def test_a_split_below_the_size_rule_never_probes_or_builds(monkeypatch):
    def refuse():
        raise AssertionError("the toolchain was probed")

    monkeypatch.setattr(ctoolchain, "probe", refuse)
    monkeypatch.setattr(native, "_loaded", {})
    rows = np.arange(native.MIN_ENTRIES - 1)
    coo = COO(np.stack([rows, rows // 2]), np.ones(len(rows)), (len(rows),) * 2)
    with trace.tracing() as rec:
        tensor = Tensor(coo, ((0, 1),))
        assert tensor.view((0, 1), default_levels(2), "strict").nnz
    assert not [e for e in rec.events if e.name in ("cc", "dlopen")]
    assert native._loaded == {}


@pytest.mark.skipif(not HAVE_CC, reason="no working C toolchain")
def test_the_split_routine_is_built_once_under_its_own_stem(monkeypatch, tmp_path):
    monkeypatch.setattr(ctoolchain, "_build_dir", str(tmp_path))
    monkeypatch.setattr(native, "_loaded", {})
    coo = _full_symmetric_coo(np.random.default_rng(5), n=30)
    with trace.tracing() as rec, _native_minimum(1):
        for _ in range(3):
            Tensor(coo, ((0, 1),)).view((0, 1), default_levels(2), "strict")
    (cc,) = [e for e in rec.events if e.name == "cc"]
    assert cc.args["stem"] == "tensor_split"
    assert [e.name for e in rec.events if e.name == "dlopen"] == ["dlopen"]
    assert len(list(tmp_path.glob("ck_*-serial-*.so"))) == 1


@pytest.mark.skipif(not HAVE_CC, reason="no working C toolchain")
def test_a_split_routine_that_fails_to_load_is_rebuilt_once(monkeypatch, tmp_path):
    """The routine loads through the kernels' loader: its ``dlopen`` is a
    fault point, and an object that does not load costs one forced
    rebuild, after which the split is native."""
    from repro import faults

    monkeypatch.setattr(ctoolchain, "_build_dir", str(tmp_path))
    monkeypatch.setattr(native, "_loaded", {})
    coo = _full_symmetric_coo(np.random.default_rng(7), n=30)
    with faults.injecting("dlopen=fail*1") as plan, trace.tracing() as rec, _metrics():
        taken = obs_metrics.to_dict()["counters"].get("tensor.split.native", 0)
        with _native_minimum(1):
            Tensor(coo, ((0, 1),)).view((0, 1), default_levels(2), "strict")
        assert obs_metrics.to_dict()["counters"]["tensor.split.native"] == taken + 1
    assert plan.fired() == {"dlopen": 1}
    assert [e.args["stem"] for e in rec.events if e.name == "cc"] == ["tensor_split"] * 2
    assert [e.name for e in rec.events if e.name == "dlopen"] == ["dlopen"] * 2
