"""Tests for argument binding and execution (BoundKernel)."""

import numpy as np
import pytest

from repro.codegen.executor import BoundKernel, _as_tensor
from repro.codegen.lower import lower_plan
from repro.core.compiler import compile_kernel, optimize
from repro.core.config import DEFAULT
from repro.core.symmetrize import symmetrize
from repro.frontend.parser import parse_assignment
from repro.tensor.coo import COO
from repro.tensor.tensor import Tensor
from tests.conftest import make_symmetric_matrix


def ssymv_bound():
    plan = optimize(
        symmetrize(parse_assignment("y[i] += A[i, j] * x[j]"), {"A": ((0, 1),)}, ("j", "i")),
        DEFAULT,
    )
    lowered = lower_plan(plan, {"A": "sparse"}, DEFAULT)
    return BoundKernel(lowered, plan.symmetric_modes)


def test_as_tensor_passthrough(rng):
    t = Tensor.from_dense(np.eye(3))
    assert _as_tensor("A", t, {}) is t


def test_as_tensor_wraps_coo():
    coo = COO.from_dense(np.eye(3))
    t = _as_tensor("A", coo, {"A": ((0, 1),)})
    assert isinstance(t, Tensor)
    assert t.symmetric_modes == ((0, 1),)


def test_as_tensor_wraps_ndarray(rng):
    t = _as_tensor("A", np.eye(4), {})
    assert isinstance(t, Tensor)
    assert t.shape == (4, 4)


def test_prepare_produces_all_args(rng):
    bound = ssymv_bound()
    A = make_symmetric_matrix(rng, 6, 0.5)
    prepared = bound.prepare(A=A, x=np.ones(6))
    assert set(prepared) == set(bound.lowered.arg_names)
    assert prepared["n_j"] == 6


def test_prepare_missing_tensor_raises(rng):
    bound = ssymv_bound()
    with pytest.raises(KeyError):
        bound.prepare(A=make_symmetric_matrix(rng, 4, 0.5))  # x missing


def test_make_output_buffer_layout():
    kernel = compile_kernel(
        "C[i, j, l] += A[k, j, l] * B[k, i]",
        symmetric={"A": True},
        loop_order=("l", "k", "j", "i"),
    )
    buf = kernel.bound.make_output_buffer((3, 4, 5))
    # layout (1, 2, 0): the vector mode i moves last
    assert buf.shape == (4, 5, 3)


def test_finalize_restores_logical_layout(rng):
    n = 6
    A = make_symmetric_matrix(rng, n, 0.6)
    B = rng.random((n, 4))
    # use the TTM kernel: layout is permuted and replication is needed
    kernel = compile_kernel(
        "C[i, j, l] += A[k, j, l] * B[k, i]",
        symmetric={"A": True},
        loop_order=("l", "k", "j", "i"),
    )
    A3 = np.zeros((n, n, n))
    # build a small fully symmetric 3-tensor
    from tests.conftest import make_symmetric_tensor

    A3 = make_symmetric_tensor(rng, n, 3, 0.5)
    out = kernel(A=A3, B=B)
    assert out.shape == (4, n, n)
    np.testing.assert_allclose(
        out, np.einsum("kjl,ki->ijl", A3, B), rtol=1e-10
    )


def test_run_is_repeatable(rng):
    bound = ssymv_bound()
    A = make_symmetric_matrix(rng, 5, 0.7)
    x = rng.random(5)
    prepared = bound.prepare(A=A, x=x)
    out1 = bound.make_output_buffer((5,))
    bound.plan_prepared(prepared, (5,), out=out1)()
    out2 = bound.make_output_buffer((5,))
    bound.plan_prepared(prepared, (5,), out=out2)()
    np.testing.assert_array_equal(out1, out2)
