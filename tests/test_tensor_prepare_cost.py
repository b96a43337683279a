"""What tensor preparation may cost, as counts (never timings), and what
it must produce, byte for byte.

``Tensor.view`` walks the symmetric pairs once per split, gathers each
half once straight into storage order and checks order on one
hand-linearised key: a payload already in storage order builds its
fibertree with no sort, any other pays exactly one single-key stable sort
per view, and nothing calls ``np.ravel_multi_index``.  The ``np.lexsort``
references the results are compared against live only here.
"""

import itertools

import numpy as np
import pytest

from repro.codegen.backends import get_backend
from repro.core.config import DEFAULT
from repro.kernels.extensions import EXTENSIONS
from repro.kernels.library import KERNELS
from repro.tensor import symmetry_ops
from repro.tensor import tensor as tensor_mod
from repro.tensor.coo import COO, _lex_order
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
    tensor = Tensor(_full_symmetric_coo(rng, ndim=3, n=6), ((0, 1, 2),))
    tensor.view((0, 1, 2), default_levels(3), "strict")
    tensor.view((0, 1, 2), default_levels(3), "diagonal")
    tensor.view((2, 1, 0), default_levels(3), "diagonal")
    # one walk per split (both halves of one storage order come from it),
    # gathered without an intermediate COO
    assert calls == {"walk": 2, "mask": 0, "filter": 0}
    tensor.view((0, 1, 2), default_levels(3), "all")
    assert calls == {"walk": 2, "mask": 1, "filter": 0}


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
    """pos/idx/vals of a fibertree from explicit column groupings."""
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
        out["pos%d" % level] = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
        out["idx%d" % level] = np.asarray([node[level] for node in nodes], dtype=np.int64)
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
