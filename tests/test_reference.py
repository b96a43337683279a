"""Direct tests of the dense reference interpreters (the test oracle itself
needs testing)."""

import numpy as np
import pytest

from repro.codegen.reference import execute_plan_dense, reference_einsum
from repro.core.compiler import optimize
from repro.core.symmetrize import symmetrize
from repro.frontend.parser import parse_assignment
from tests.conftest import make_symmetric_matrix


def test_reference_matvec(rng):
    a = parse_assignment("y[i] += A[i, j] * x[j]")
    A, x = rng.random((4, 5)), rng.random(5)
    np.testing.assert_allclose(
        reference_einsum(a, {"A": A, "x": x}), A @ x, rtol=1e-12
    )


def test_reference_scalar_output(rng):
    a = parse_assignment("y[] += x[i] * x[i]")
    x = rng.random(6)
    assert float(reference_einsum(a, {"x": x})) == pytest.approx(x @ x)


def test_reference_literal_scale(rng):
    a = parse_assignment("y[i] += 3 * x[i]")
    x = rng.random(4)
    np.testing.assert_allclose(reference_einsum(a, {"x": x}), 3 * x)


def test_reference_min_plus(rng):
    a = parse_assignment("y[i] min= A[i, j] + d[j]")
    A, d = rng.random((4, 4)), rng.random(4)
    np.testing.assert_allclose(
        reference_einsum(a, {"A": A, "d": d}), (A + d[None, :]).min(axis=1)
    )


def test_reference_combine_plus(rng):
    a = parse_assignment("y[i] max= A[i, j] + x[j]")
    A, x = rng.random((3, 3)), rng.random(3)
    np.testing.assert_allclose(
        reference_einsum(a, {"A": A, "x": x}), (A + x[None, :]).max(axis=1)
    )


def test_reference_count_multiplicity(rng):
    a = parse_assignment("y[i] += x[i]").with_count(3)
    x = rng.random(4)
    np.testing.assert_allclose(reference_einsum(a, {"x": x}), 3 * x)


def test_reference_explicit_output_shape(rng):
    a = parse_assignment("y[i] += x[i]")
    out = reference_einsum(a, {"x": rng.random(3)}, output_shape=(3,))
    assert out.shape == (3,)


def test_plan_execution_without_replication(rng):
    """replicate=False leaves only the canonical triangle computed."""
    plan = optimize(
        symmetrize(parse_assignment("C[i, j] += A[i, k] * A[j, k]"), {}, ("k", "j", "i")),
    )
    A = rng.random((4, 4))
    full = execute_plan_dense(plan, {"A": A})
    half = execute_plan_dense(plan, {"A": A}, replicate=False)
    np.testing.assert_allclose(full, A @ A.T, rtol=1e-12)
    # the non-canonical triangle was never written
    expected_half = np.where(
        np.subtract.outer(range(4), range(4)) >= 0, A @ A.T, 0.0
    )
    np.testing.assert_allclose(half, expected_half, rtol=1e-12)


def test_plan_execution_min_semantics(rng):
    plan = optimize(
        symmetrize(
            parse_assignment("y[i] min= A[i, j] + d[j]"), {"A": ((0, 1),)}, ("j", "i")
        ),
    )
    A = make_symmetric_matrix(rng, 5, 1.0)  # fully dense: matches dense ref
    d = rng.random(5)
    np.testing.assert_allclose(
        execute_plan_dense(plan, {"A": A, "d": d}),
        (A + d[None, :]).min(axis=1),
    )
