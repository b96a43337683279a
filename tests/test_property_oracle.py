"""The oracle is the math, not a sibling backend.

Hierarchical workspaces change the last bits of every factored kernel, so
bit-identity with an earlier build is gone by design, and bit-identity
between backends cannot see a factoring that is wrong on all of them.
Here every library and extension kernel, SySTeC and naive, on python /
c / c at two threads, in both dtypes, is held against
``KernelSpec.reference`` (plain numpy over the densified inputs) on
structures chosen to reach the edges of the factoring: empty fibers,
fibers of one entry, stored zeros, an all-diagonal tensor, rank 1 and
ranks that are no multiple of a SIMD width.  Two metamorphic properties
hold exactly, not within a tolerance: doubling the sparse operand scales
the output by a power of two, and permuting a symmetric operand's modes
changes no output bit.
"""

import functools
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import COO, Tensor
from repro.codegen.backends import ctoolchain, get_backend
from repro.core.compiler import resolve_request
from repro.core.config import DEFAULT
from repro.frontend.parser import parse_assignment
from repro.kernels.extensions import EXTENSIONS
from repro.kernels.library import KERNELS

SPECS = {**KERNELS, **EXTENSIONS}

BACKENDS = [("python", 1)]
if get_backend("c").is_available():
    BACKENDS.append(("c", 1))
    if ctoolchain.openmp_flags():
        BACKENDS.append(("c", 2))

KINDS = ("random", "empty_fibers", "length1", "diagonal", "stored_zeros")

#: the e2e harness's tolerance for float64; float32 carries ~1e-7 per
#: operation through sums of up to a few thousand terms
TOLERANCE = {
    "float64": {"rtol": 1e-9, "atol": 1e-12},
    "float32": {"rtol": 2e-4, "atol": 1e-5},
}


@functools.lru_cache(maxsize=None)
def _kernel(name, naive, dtype, backend, threads):
    options = DEFAULT.but(backend=backend, threads=threads, dtype=dtype)
    return SPECS[name].compile(naive=naive, options=options)


@functools.lru_cache(maxsize=None)
def _shape_of(name):
    """(assignment, indices bound by a sparse access, symmetric parts)."""
    spec = SPECS[name]
    assignment = parse_assignment(spec.einsum)
    sparse = {
        i
        for acc in assignment.accesses
        if spec.formats.get(acc.tensor) == "sparse"
        for i in acc.indices
    }
    symmetric = resolve_request(
        assignment, dict(spec.symmetric), spec.loop_order, dict(spec.formats)
    )[0]
    return assignment, sparse, symmetric


def _symmetrize(arr, parts, combine):
    """*arr* made invariant under every permutation of each part's modes."""
    for part in parts:
        base = arr
        for perm in itertools.permutations(part):
            axes = list(range(arr.ndim))
            for src, dst in zip(part, perm):
                axes[src] = dst
            arr = combine(arr, np.transpose(base, axes))
    return arr


def make_inputs(name, kind, n, rank, seed, banned=()):
    """``(tensors, dense)``: what the kernel receives and the same data
    densified for the reference.  No stored coordinate of a sparse operand
    uses an index in *banned*."""
    spec = SPECS[name]
    assignment, sparse_indices, symmetric = _shape_of(name)
    rng = np.random.default_rng(seed)
    if kind == "stored_zeros" and assignment.reduce_op != "+":
        kind = "random"  # the min/max references read 0 as "no edge"
    tensors, dense = {}, {}
    for acc in assignment.accesses:
        if acc.tensor in tensors:
            continue
        shape = tuple(n if i in sparse_indices else rank for i in acc.indices)
        vals = rng.random(shape) + 0.1
        if spec.formats.get(acc.tensor) != "sparse":
            tensors[acc.tensor] = dense[acc.tensor] = vals
            continue
        parts = tuple(tuple(p) for p in symmetric.get(acc.tensor, ()))
        grid = np.indices(shape)
        if kind == "diagonal":
            stored = np.all(grid == grid[0], axis=0)
        else:
            stored = rng.random(shape) < (1.0 / n if kind == "length1" else 0.5)
        if kind == "empty_fibers":
            banned = tuple(banned) + tuple(np.nonzero(rng.random(n) < 0.4)[0])
        for index in banned:
            stored &= ~np.any(grid == index, axis=0)
        stored = _symmetrize(stored, parts, np.logical_or)
        vals = _symmetrize(vals, parts, np.maximum)
        if kind == "stored_zeros":
            vals = vals * _symmetrize(rng.random(shape) < 0.5, parts, np.logical_and)
        coords = np.stack(np.nonzero(stored))
        tensors[acc.tensor] = Tensor(
            COO(coords, vals[stored], shape, sum_duplicates=False), parts
        )
        dense[acc.tensor] = np.where(stored, vals, 0.0)
    return tensors, dense


@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("name", sorted(SPECS))
@settings(max_examples=3, deadline=None, derandomize=True)
@given(
    n=st.integers(min_value=2, max_value=5),
    rank=st.sampled_from([1, 3, 4, 5]),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_every_kernel_matches_its_reference(name, kind, dtype, n, rank, seed):
    tensors, dense = make_inputs(name, kind, n, rank, seed)
    expected = SPECS[name].reference(**dense)
    for naive in (False, True):
        for backend, threads in BACKENDS:
            got = _kernel(name, naive, dtype, backend, threads)(**tensors)
            np.testing.assert_allclose(
                got, expected, **TOLERANCE[dtype],
                err_msg="%s %s on %s@%d" % (
                    name, "naive" if naive else "systec", backend, threads),
            )


#: kernels with a dense operand indexed by a coordinate of a sparse one
POISONABLE = sorted(
    name
    for name in SPECS
    if any(
        SPECS[name].formats.get(acc.tensor) != "sparse"
        and set(acc.indices) & _shape_of(name)[1]
        for acc in _shape_of(name)[0].accesses
    )
)


@pytest.mark.parametrize("name", POISONABLE)
@settings(max_examples=3, deadline=None, derandomize=True)
@given(
    kind=st.sampled_from(["random", "length1", "diagonal"]),
    n=st.integers(min_value=2, max_value=5),
    rank=st.sampled_from([1, 3, 4]),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_a_nan_no_stored_coordinate_references_never_reaches_the_output(
    name, kind, n, rank, seed
):
    """Rows of the dense operands at an index no stored entry uses are
    never part of the sum: a product hoisted out of a loop must not be
    folded in where that loop ran zero times (``NaN * 0``)."""
    assignment, sparse_indices, _ = _shape_of(name)
    unused = seed % n
    tensors, _ = make_inputs(name, kind, n, rank, seed, banned=(unused,))
    poisoned = dict(tensors)
    for acc in assignment.accesses:
        if SPECS[name].formats.get(acc.tensor) == "sparse":
            continue
        arr = tensors[acc.tensor].copy()
        for axis, index in enumerate(acc.indices):
            if index in sparse_indices:
                arr[(slice(None),) * axis + (unused,)] = np.nan
        poisoned[acc.tensor] = arr
    for naive in (False, True):
        for backend, threads in BACKENDS:
            kernel = _kernel(name, naive, "float64", backend, threads)
            clean = kernel(**tensors)
            got = kernel(**poisoned)
            assert not np.isnan(got).any(), (name, naive, backend, threads)
            np.testing.assert_array_equal(got, clean)


# ----------------------------------------------------------------------
# metamorphic properties: exact, whatever the order of a sum or the width
# of the vectors that computed it
# ----------------------------------------------------------------------
def _with(tensor, coords=None, vals=None):
    """*tensor* with its stored coordinates or values replaced."""
    coo = tensor.coo
    return Tensor(
        COO(
            coo.coords if coords is None else coords,
            coo.vals if vals is None else vals,
            coo.shape,
            sum_duplicates=False,
        ),
        tensor.symmetric_modes,
    )


def _outputs(name, dtype, tensors):
    """``(backend@threads, output)`` of the SySTeC kernel on each backend."""
    for backend, threads in BACKENDS:
        kernel = _kernel(name, False, dtype, backend, threads)
        yield "%s@%d" % (backend, threads), np.asarray(kernel(**tensors))


#: library kernels whose sum is of products (every one but Bellman-Ford)
SUM_OF_PRODUCTS = sorted(
    name
    for name in KERNELS
    if _shape_of(name)[0].reduce_op == "+" and _shape_of(name)[0].combine_op == "*"
)

#: library kernels with a symmetric operand (every one but SSYRK)
SYMMETRIC = sorted(name for name in KERNELS if _shape_of(name)[2])

metamorphic = settings(max_examples=3, deadline=None, derandomize=True)
metamorphic_inputs = given(
    kind=st.sampled_from(KINDS),
    n=st.integers(min_value=2, max_value=4),
    rank=st.sampled_from([3, 16, 17]),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)


@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("name", SUM_OF_PRODUCTS)
@metamorphic
@metamorphic_inputs
def test_doubling_the_sparse_operand_scales_the_output_exactly(
    name, dtype, kind, n, rank, seed
):
    """Every term of the sum holds ``A`` once per access (``m`` times), so
    doubling its stored values scales every rounded step by ``2**m``: the
    output is the undoubled one times ``2**m``, bit for bit."""
    m = sum(acc.tensor == "A" for acc in _shape_of(name)[0].accesses)
    tensors, _ = make_inputs(name, kind, n, rank, seed)
    doubled = dict(tensors, A=_with(tensors["A"], vals=tensors["A"].coo.vals * 2))
    plain = dict(_outputs(name, dtype, tensors))
    for label, got in _outputs(name, dtype, doubled):
        expected = np.asarray(plain[label] * 2**m)
        assert got.tobytes() == expected.tobytes(), (name, label, m)


def _group_orders(parts, ndim):
    """Mode orders permuting within each symmetric part: its rotation and
    the swap of its first two modes, which together generate them all."""
    orders = []
    for part in parts:
        for moved in (part[1:] + part[:1], (part[1], part[0]) + part[2:]):
            order = list(range(ndim))
            for mode, source in zip(part, moved):
                order[mode] = source
            if order not in orders:  # a pair's rotation is its swap
                orders.append(order)
    return orders


@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("name", SYMMETRIC)
@metamorphic
@metamorphic_inputs
def test_permuting_a_symmetric_operands_modes_changes_no_output_bit(
    name, dtype, kind, n, rank, seed
):
    """A symmetric operand's coordinate rows permuted within its symmetric
    group store the same tensor, entries in another order: the output is
    bit-identical."""
    tensors, _ = make_inputs(name, kind, n, rank, seed)
    sym = tensors["A"]
    plain = dict(_outputs(name, dtype, tensors))
    for order in _group_orders(sym.symmetric_modes, sym.ndim):
        permuted = dict(tensors, A=_with(sym, coords=sym.coo.coords[order]))
        for label, got in _outputs(name, dtype, permuted):
            assert got.tobytes() == plain[label].tobytes(), (name, label, order)
