"""Coverage verification over the whole kernel library, plus negative cases
proving the verifier actually detects broken plans."""

import dataclasses

import pytest

from repro.core.compiler import optimize
from repro.core.kernel_plan import Block
from repro.core.symmetrize import symmetrize
from repro.core.verify import assert_verified, verify_plan_coverage
from repro.frontend.parser import parse_assignment
from repro.kernels.extensions import EXTENSIONS
from repro.kernels.library import KERNELS


@pytest.mark.parametrize("name", sorted(KERNELS))
def test_library_kernels_verified(name):
    spec = KERNELS[name]
    plan = spec.compile().plan
    side = 2 if len(plan.loop_order) >= 5 else 3
    assert_verified(plan, side=side)


@pytest.mark.parametrize("name", sorted(EXTENSIONS))
def test_extension_kernels_verified(name):
    plan = EXTENSIONS[name].compile().plan
    side = 2 if len(plan.loop_order) >= 5 else 3
    assert_verified(plan, side=side)


def test_lookup_table_plan_verified():
    plan = optimize(
        symmetrize(
            parse_assignment("C[i, j] += A[i, k, l] * B[k, j] * B[l, j]"),
            {"A": ((0, 1, 2),)},
            ("l", "k", "i", "j"),
        ),
    )
    assert_verified(plan, side=3)


def test_verifier_catches_dropped_block():
    plan = symmetrize(
        parse_assignment("y[i] += A[i, j] * x[j]"), {"A": ((0, 1),)}, ("j", "i")
    )
    # drop the diagonal block: updates on i == j go missing
    nest = plan.nests[0]
    broken = plan.with_nests(
        [nest.with_blocks([b for b in nest.blocks if b.patterns[0].is_strict])]
    )
    problems = verify_plan_coverage(broken, side=3)
    assert problems, "verifier must flag the missing diagonal updates"


def test_verifier_catches_double_count():
    plan = symmetrize(
        parse_assignment("y[i] += A[i, j] * x[j]"), {"A": ((0, 1),)}, ("j", "i")
    )
    nest = plan.nests[0]
    doubled = []
    for block in nest.blocks:
        doubled.append(
            block.with_assignments(
                [a.with_count(a.count * 2) for a in block.assignments]
            )
        )
    broken = plan.with_nests([nest.with_blocks(doubled)])
    problems = verify_plan_coverage(broken, side=3)
    assert problems


def test_verifier_passes_naive_plan():
    from repro.core.compiler import naive_plan

    plan = naive_plan(parse_assignment("y[i] += A[i, j] * x[j]"), ("j", "i"))
    assert_verified(plan, side=4)
