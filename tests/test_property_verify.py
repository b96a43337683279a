"""Property test: random einsums through random pipeline configurations all
pass the exhaustive coverage verifier."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.compiler import _PLAN_PASSES
from repro.core.symmetrize import symmetrize
from repro.core.verify import verify_plan_coverage
from repro.frontend.parser import parse_assignment

KERNEL_POOL = [
    ("y[i] += A[i, j] * x[j]", {"A": ((0, 1),)}, ("j", "i")),
    ("y[] += x[i] * A[i, j] * x[j]", {"A": ((0, 1),)}, ("j", "i")),
    ("C[i, j] += A[i, k] * A[j, k]", {}, ("k", "j", "i")),
    (
        "C[i, j] += A[i, k, l] * B[k, j] * B[l, j]",
        {"A": ((0, 1, 2),)},
        ("l", "k", "i", "j"),
    ),
    (
        "C[i, j, l] += A[k, j, l] * B[k, i]",
        {"A": ((0, 1, 2),)},
        ("l", "k", "j", "i"),
    ),
    (
        "y[] += A[i, j] * A[j, k] * A[i, k]",
        {"A": ((0, 1),)},
        ("k", "j", "i"),
    ),
]


@given(
    st.integers(min_value=0, max_value=len(KERNEL_POOL) - 1),
    st.sets(st.sampled_from([name for name, _ in _PLAN_PASSES])),
)
@settings(max_examples=40, deadline=None)
def test_random_pipelines_always_verified(which, skipped):
    """Any subset of the plan passes, run in pipeline order, keeps every
    update of the einsum performed exactly once."""
    einsum, symmetric, loop_order = KERNEL_POOL[which]
    plan = symmetrize(parse_assignment(einsum), symmetric, loop_order)
    for name, pass_fn in _PLAN_PASSES:
        if name not in skipped:
            plan = pass_fn(plan)
    side = 2 if len(plan.loop_order) >= 4 else 3
    assert verify_plan_coverage(plan, side=side) == []
