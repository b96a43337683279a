"""Tests for lowering internals: view requirements, loop sources,
co-iteration, vectorization rules, error paths."""

import numpy as np
import pytest

from repro.codegen.lower import LoweringError, lower_plan
from repro.core.compiler import compile_kernel, naive_plan, optimize
from repro.core.config import DEFAULT
from repro.core.symmetrize import symmetrize
from repro.frontend.parser import parse_assignment

FULL2 = {"A": ((0, 1),)}
FULL3 = {"A": ((0, 1, 2),)}


def lowered_ssymv(naive=False):
    """The SySTeC plan of SSYMV, lowered as SySTeC or as the baseline."""
    plan = symmetrize(parse_assignment("y[i] += A[i, j] * x[j]"), FULL2, ("j", "i"))
    plan = optimize(plan)
    return lower_plan(plan, {"A": "sparse"}, DEFAULT, naive=naive)


def test_sparse_views_split_by_filter():
    lowered = lowered_ssymv()
    filters = {v.tensor_filter for v in lowered.sparse_views}
    assert filters == {"strict", "diagonal"}
    assert all(v.tensor == "A" for v in lowered.sparse_views)
    assert all(v.levels == ("dense", "sparse") for v in lowered.sparse_views)


def test_dense_views_and_dims():
    lowered = lowered_ssymv()
    assert {v.name for v in lowered.dense_views} == {"x"}
    dim_names = {d.name for d in lowered.dims}
    assert {"n_i", "n_j"} <= dim_names


def test_arg_names_cover_all_requirements():
    lowered = lowered_ssymv()
    args = set(lowered.arg_names)
    for view in lowered.sparse_views:
        assert "%s_vals" % view.name in args
        assert "%s_pos1" % view.name in args
    assert "x" in args


def test_vector_index_not_chosen_when_in_chain():
    # SSYMV innermost index i is permutable -> no vectorization
    assert lowered_ssymv().vector_index is None


def test_vector_index_chosen_for_mttkrp():
    plan = symmetrize(
        parse_assignment("C[i, j] += A[i, k, l] * B[k, j] * B[l, j]"),
        FULL3,
        ("l", "k", "i", "j"),
    )
    plan = optimize(plan)
    lowered = lower_plan(plan, {"A": "sparse"}, DEFAULT)
    assert lowered.vector_index == "j"
    # output layout puts the vector mode last (it already is)
    assert lowered.output.layout == (0, 1)


def test_vector_mode_moved_to_last_for_ttm():
    plan = symmetrize(
        parse_assignment("C[i, j, l] += A[k, j, l] * B[k, i]"),
        FULL3,
        ("l", "k", "j", "i"),
    )
    plan = optimize(plan)
    lowered = lower_plan(plan, {"A": "sparse"}, DEFAULT)
    assert lowered.vector_index == "i"
    assert lowered.output.layout == (1, 2, 0)  # i (mode 0) last


def test_same_fiber_co_iteration_emitted_for_ssyrk():
    plan = optimize(
        symmetrize(parse_assignment("C[i, j] += A[i, k] * A[j, k]"), {}, ("k", "j", "i")),
    )
    lowered = lower_plan(plan, {"A": "sparse"}, DEFAULT)
    # the inner row loop is bounded by the outer position + 1
    assert "q0_1 + 1" in lowered.source or "q1_1 + 1" in lowered.source


def test_co_iteration_intersection_emits_merge_loop():
    """Two different sparse tensors binding the same index lower to a
    sorted-merge intersection loop (more than one sparse argument at a
    time — the Table 1 capability Cyclops lacks)."""
    plan = naive_plan(
        parse_assignment("y[i] += A[i, j] * B[i, j]"), ("i", "j")
    )
    lowered = lower_plan(plan, {"A": "sparse", "B": "sparse"}, DEFAULT, naive=True)
    assert "while" in lowered.source
    assert "continue" in lowered.source


def test_intersection_semantics(rng):
    from repro.core.compiler import compile_kernel

    n = 9
    A = rng.random((n, n)) * (rng.random((n, n)) < 0.4)
    B = rng.random((n, n)) * (rng.random((n, n)) < 0.4)
    kernel = compile_kernel(
        "y[i] += A[i, j] * B[i, j]",
        formats={"A": "sparse", "B": "sparse"},
        loop_order=("i", "j"),
    )
    np.testing.assert_allclose(kernel(A=A, B=B), (A * B).sum(axis=1), rtol=1e-12)


def test_triangle_counting_kernel(rng):
    """Symmetric triangle counting: three accesses to one symmetric sparse
    tensor — canonical-triangle iteration + intersection + a 6x factor."""
    from repro.core.compiler import compile_kernel
    from tests.conftest import make_symmetric_matrix

    n = 12
    Adj = (make_symmetric_matrix(rng, n, 0.4) > 0).astype(float)
    np.fill_diagonal(Adj, 0.0)
    kernel = compile_kernel(
        "y[] += A[i, j] * A[j, k] * A[i, k]",
        symmetric={"A": True},
        loop_order=("k", "j", "i"),
    )
    # multi-access symmetric tensor: diagonal splitting must stay off
    assert len(kernel.plan.nests) == 1
    got = float(kernel(A=Adj))
    assert got == pytest.approx(np.einsum("ij,jk,ik->", Adj, Adj, Adj))


def test_repeated_index_in_sparse_access_rejected():
    plan = naive_plan(parse_assignment("y[] += A[i, i]"), ("i",))
    with pytest.raises(LoweringError):
        lower_plan(plan, {"A": "sparse"}, DEFAULT, naive=True)


def test_multiplicity_under_min_rejected():
    """Counts > 1 cannot lower under an idempotent reduction; the
    distributive pass normally removes them — bypassing it must fail."""
    plan = symmetrize(
        parse_assignment("y[] min= x[i] + A[i, j] + x[j]"), FULL2, ("j", "i")
    )
    # skip group_distributive: the strict block has count-2 assignments
    with pytest.raises(LoweringError):
        lower_plan(plan, {"A": "sparse"}, DEFAULT)


def test_cse_off_inlines_reads():
    """The naive lowering reads every access where it is used."""
    lowered = lowered_ssymv(naive=True)
    assert "t0" not in lowered.source
    assert lowered.source.count("A__strict_vals[") >= 2


def test_cse_on_hoists_reads():
    lowered = lowered_ssymv()
    assert "t0 = A__strict_vals[" in lowered.source


def test_workspace_off_writes_directly():
    """The naive lowering accumulates straight into the output."""
    lowered = lowered_ssymv(naive=True)
    assert "ws0" not in lowered.source


def test_sources_in_generated_code_are_deterministic():
    a = lowered_ssymv().source
    b = lowered_ssymv().source
    assert a == b


def test_unsupported_reduce_in_plan():
    with pytest.raises(ValueError):
        parse_assignment("y[i] xor= A[i, j]")
