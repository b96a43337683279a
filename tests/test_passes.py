"""Tests for the plan-level optimization passes (Section 4.2), each checked
both structurally (against the paper's before/after examples) and
semantically (plan interpretation equals the raw einsum)."""

import numpy as np
import pytest

from repro.codegen.reference import execute_plan_dense, reference_einsum
from repro.core import compiler
from repro.core.compiler import optimize
from repro.core.kernel_plan import FILTER_DIAGONAL, FILTER_STRICT
from repro.core.passes import (
    build_lookup_table,
    consolidate_blocks,
    group_across_branches,
    group_distributive,
    restrict_output_to_canonical,
    split_diagonals,
)
from repro.core.symmetrize import symmetrize
from repro.frontend.parser import parse_assignment
from tests.conftest import make_symmetric_tensor

FULL2 = {"A": ((0, 1),)}
FULL3 = {"A": ((0, 1, 2),)}
FULL4 = {"A": ((0, 1, 2, 3),)}


def make_plan(einsum, symmetric, loop_order):
    return symmetrize(parse_assignment(einsum), symmetric, loop_order)


# ----------------------------------------------------------------------
# 4.2.2 output canonical
# ----------------------------------------------------------------------
def test_ssyrk_output_restricted_to_triangle():
    plan = make_plan("C[i, j] += A[i, k] * A[j, k]", {}, ("k", "j", "i"))
    strict = plan.blocks[0]
    assert len(strict.assignments) == 2  # both triangles written
    plan = restrict_output_to_canonical(plan)
    strict = plan.blocks[0]
    assert len(strict.assignments) == 1  # only the canonical one remains
    assert plan.replication is not None
    assert plan.replication.mode_parts == ((0, 1),)


def test_ttm_output_restriction_matches_listing_3():
    plan = make_plan(
        "C[i, j, l] += A[k, j, l] * B[k, i]", FULL3, ("l", "k", "j", "i")
    )
    plan = restrict_output_to_canonical(plan)
    strict = next(b for b in plan.blocks if b.patterns[0].is_strict)
    # Listing 3: six updates become three
    assert len(strict.assignments) == 3
    assert plan.replication.mode_parts == ((1, 2),)


def test_no_visible_symmetry_is_noop():
    plan = make_plan("y[i] += A[i, j] * x[j]", FULL2, ("j", "i"))
    assert restrict_output_to_canonical(plan).replication is None


def test_output_canonical_preserves_semantics(rng):
    a = parse_assignment("C[i, j, l] += A[k, j, l] * B[k, i]")
    plan = make_plan(
        "C[i, j, l] += A[k, j, l] * B[k, i]", FULL3, ("l", "k", "j", "i")
    )
    plan = restrict_output_to_canonical(plan)
    n = 5
    inputs = {
        "A": make_symmetric_tensor(rng, n, 3, 0.5),
        "B": rng.random((n, n)),
    }
    np.testing.assert_allclose(
        execute_plan_dense(plan, inputs), reference_einsum(a, inputs), rtol=1e-12
    )


# ----------------------------------------------------------------------
# 4.2.7 distributive grouping
# ----------------------------------------------------------------------
def test_distributive_keeps_plus_counts():
    plan = make_plan("y[] += x[i] * A[i, j] * x[j]", FULL2, ("j", "i"))
    plan = group_distributive(plan)
    strict = plan.blocks[0]
    assert strict.assignments[0].count == 2


def test_distributive_folds_idempotent_min():
    plan = make_plan("y[] min= x[i] + A[i, j] + x[j]", FULL2, ("j", "i"))
    plan = group_distributive(plan)
    for block in plan.blocks:
        assert all(a.count == 1 for a in block.assignments)


# ----------------------------------------------------------------------
# 4.2.4 consolidate
# ----------------------------------------------------------------------
def test_consolidate_merges_equal_blocks():
    """TTM's two single-equality diagonal blocks hold different updates, but
    SSYMV-style kernels produce mergeable ones after output restriction."""
    plan = make_plan(
        "C[i, j, l] += A[k, j, l] * B[k, i]", FULL3, ("l", "k", "j", "i")
    )
    plan = restrict_output_to_canonical(plan)
    plan = group_distributive(plan)
    before = len(plan.blocks)
    plan = consolidate_blocks(plan)
    assert len(plan.blocks) <= before
    # patterns of merged blocks are preserved as a disjunction
    total_patterns = sum(len(b.patterns) for b in plan.blocks)
    assert total_patterns == 4  # 2**(3-1) equivalence patterns


# ----------------------------------------------------------------------
# 4.2.9 diagonal split
# ----------------------------------------------------------------------
def test_diagonal_split_structure():
    plan = make_plan("y[i] += A[i, j] * x[j]", FULL2, ("j", "i"))
    plan = split_diagonals(plan)
    filters = [nest.tensor_filter for nest in plan.nests]
    assert filters == [FILTER_STRICT, FILTER_DIAGONAL]


def test_diagonal_split_skipped_without_symmetric_input():
    plan = make_plan("C[i, j] += A[i, k] * A[j, k]", {}, ("k", "j", "i"))
    plan = split_diagonals(plan)
    assert len(plan.nests) == 1


def test_diagonal_split_preserves_semantics(rng):
    a = parse_assignment("C[i, j] += A[i, k, l] * B[k, j] * B[l, j]")
    plan = make_plan(str(a), FULL3, ("l", "k", "i", "j"))
    plan = group_distributive(plan)
    plan = split_diagonals(plan)
    n = 5
    inputs = {
        "A": make_symmetric_tensor(rng, n, 3, 0.5),
        "B": rng.random((n, 4)),
    }
    np.testing.assert_allclose(
        execute_plan_dense(plan, inputs), reference_einsum(a, inputs), rtol=1e-12
    )


# ----------------------------------------------------------------------
# 4.2.6 group across branches
# ----------------------------------------------------------------------
def test_group_branches_only_when_profitable():
    plan = make_plan("y[i] += A[i, j] * x[j]", FULL2, ("j", "i"))
    grouped = group_across_branches(plan)
    # SSYMV: strict block has 2 assignments, diag has 1 (a subset) —
    # grouping puts the shared update under a disjunction
    pair_count = sum(len(b.assignments) for b in grouped.blocks)
    assert pair_count <= sum(len(b.assignments) for b in plan.blocks)


def test_group_branches_semantics(rng):
    a = parse_assignment("y[i] += A[i, j] * x[j]")
    plan = make_plan(str(a), FULL2, ("j", "i"))
    plan = group_across_branches(plan)
    n = 6
    inputs = {
        "A": make_symmetric_tensor(rng, n, 2, 0.6),
        "x": rng.random(n),
    }
    np.testing.assert_allclose(
        execute_plan_dense(plan, inputs), reference_einsum(a, inputs), rtol=1e-12
    )


# ----------------------------------------------------------------------
# 4.2.5 lookup table
# ----------------------------------------------------------------------
def test_lookup_table_builds_for_mttkrp():
    plan = make_plan(
        "C[i, j] += A[i, k, l] * B[k, j] * B[l, j]", FULL3, ("l", "k", "i", "j")
    )
    plan = group_distributive(plan)
    plan = split_diagonals(plan)
    plan = build_lookup_table(plan)
    diag = [n for n in plan.nests if n.tensor_filter == FILTER_DIAGONAL][0]
    assert len(diag.blocks) == 1
    table = dict(diag.blocks[0].factor_table)
    # i==k (bit 0), k==l (bit 1), both (bits 0|1)
    assert set(table) == {0b01, 0b10, 0b11}
    assert table[0b01] == "1" and table[0b10] == "1" and table[0b11] == "1/3"


def test_lookup_table_semantics(rng):
    a = parse_assignment("C[i, j] += A[i, k, l, m] * B[k, j] * B[l, j] * B[m, j]")
    plan = make_plan(str(a), FULL4, ("m", "l", "k", "i", "j"))
    plan = group_distributive(plan)
    plan = split_diagonals(plan)
    plan = build_lookup_table(plan)
    n = 4
    inputs = {
        "A": make_symmetric_tensor(rng, n, 4, 0.5),
        "B": rng.random((n, 3)),
    }
    np.testing.assert_allclose(
        execute_plan_dense(plan, inputs), reference_einsum(a, inputs), rtol=1e-12
    )


def test_lookup_table_refuses_min_plus():
    plan = make_plan("y[i] min= A[i, j] + d[j]", FULL2, ("j", "i"))
    plan = group_distributive(plan)
    plan = split_diagonals(plan)
    assert build_lookup_table(plan) is plan or not any(
        b.factor_table for b in build_lookup_table(plan).blocks
    )


# ----------------------------------------------------------------------
# the full default pipeline
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "einsum,symmetric,loop_order,input_shapes",
    [
        ("y[i] += A[i, j] * x[j]", FULL2, ("j", "i"), {"A": 2, "x": 1}),
        ("y[] += x[i] * A[i, j] * x[j]", FULL2, ("j", "i"), {"A": 2, "x": 1}),
        ("C[i, j] += A[i, k] * A[j, k]", {}, ("k", "j", "i"), {"A": 2}),
        (
            "C[i, j] += A[i, k, l] * B[k, j] * B[l, j]",
            FULL3,
            ("l", "k", "i", "j"),
            {"A": 3, "B": 2},
        ),
        (
            "C[i, j, l] += A[k, j, l] * B[k, i]",
            FULL3,
            ("l", "k", "j", "i"),
            {"A": 3, "B": 2},
        ),
    ],
)
@pytest.mark.parametrize("lookup", [False, True])
def test_default_pipeline_semantics(
    rng, monkeypatch, einsum, symmetric, loop_order, input_shapes, lookup
):
    """The plan pipeline, with and without its lookup-table pass (4.2.5),
    computes the einsum."""
    if not lookup:
        monkeypatch.setattr(
            compiler,
            "_PLAN_PASSES",
            tuple(p for p in compiler._PLAN_PASSES if p[0] != "lookup_table"),
        )
    a = parse_assignment(einsum)
    plan = symmetrize(a, symmetric, loop_order)
    plan = optimize(plan)
    n = 5
    inputs = {}
    for name, ndim in input_shapes.items():
        if name in symmetric:
            inputs[name] = make_symmetric_tensor(rng, n, ndim, 0.6)
        else:
            inputs[name] = rng.random((n,) * ndim)
    np.testing.assert_allclose(
        execute_plan_dense(plan, inputs), reference_einsum(a, inputs), rtol=1e-12
    )
