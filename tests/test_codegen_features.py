"""Correctness of the lowering features: every plan pass skipped in turn,
the lookup-table form, vectorization and ``min``/``max`` workspaces."""

import numpy as np
import pytest

from repro.core import compiler
from repro.core.compiler import compile_kernel
from repro.core.config import DEFAULT
from repro.kernels.library import get_kernel
from tests.conftest import make_symmetric_matrix, make_symmetric_tensor

#: the plan passes every SySTeC kernel runs (the lookup table is opt-in)
OPTION_AXES = [
    name for name, _ in compiler._PLAN_PASSES if name != "lookup_table"
]


def _without(monkeypatch, skipped):
    """Compile with the plan passes named in *skipped* left out."""
    monkeypatch.setattr(
        compiler,
        "_PLAN_PASSES",
        tuple(p for p in compiler._PLAN_PASSES if p[0] not in skipped),
    )


@pytest.mark.parametrize("axis", OPTION_AXES)
@pytest.mark.parametrize("kernel_name", ["ssymv", "syprd", "mttkrp3d", "ttm", "ssyrk"])
def test_each_option_off_is_still_correct(rng, monkeypatch, axis, kernel_name):
    """The plan passes compose: skipping any one leaves a correct kernel."""
    spec = get_kernel(kernel_name)
    n, r = 6, 3
    inputs = {}
    for acc in spec.compile(naive=True).plan.original.accesses:
        name = acc.tensor
        if name in inputs:
            continue
        if name in spec.symmetric:
            inputs[name] = make_symmetric_tensor(rng, n, len(acc.indices), 0.6)
        elif name == "B":
            inputs[name] = rng.random((n, r))
        elif name == "A":
            shape = (n,) * len(acc.indices)
            inputs[name] = rng.random(shape) * (rng.random(shape) < 0.5)
        else:
            inputs[name] = rng.random((n,) * len(acc.indices))
    expected = spec.reference(**inputs)
    _without(monkeypatch, {axis})
    got = spec.compile()(**inputs)
    np.testing.assert_allclose(got, expected, rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize("kernel_name", ["mttkrp3d", "mttkrp4d"])
def test_lookup_table_lowering(rng, kernel_name):
    spec = get_kernel(kernel_name)
    n, r = 5, 3
    order = int(kernel_name[6])
    A = make_symmetric_tensor(rng, n, order, 0.6)
    B = rng.random((n, r))
    expected = spec.reference(A=A, B=B)
    kernel = spec.compile(options=DEFAULT.but(lookup_table=True))
    assert "_lut0" in kernel.source
    got = kernel(A=A, B=B)
    np.testing.assert_allclose(got, expected, rtol=1e-10)


def test_everything_off_equals_everything_on(rng, monkeypatch):
    """The symmetrized plan with no plan pass at all computes what the
    full pipeline computes."""
    spec = get_kernel("mttkrp3d")
    n = 6
    A = make_symmetric_tensor(rng, n, 3, 0.5)
    B = rng.random((n, 4))
    b = spec.compile()(A=A, B=B)
    _without(monkeypatch, set(OPTION_AXES))
    a = spec.compile()(A=A, B=B)
    np.testing.assert_allclose(a, b, rtol=1e-10)


def test_vectorized_kernel_has_no_rank_loop():
    kernel = get_kernel("mttkrp3d").compile()
    assert "for j in range(" not in kernel.source


def test_min_plus_with_workspace(rng):
    n = 6
    A = make_symmetric_matrix(rng, n, 0.6)
    d = rng.random(n)
    spec = get_kernel("bellmanford")
    for naive in (True, False):
        kernel = spec.compile(naive=naive)
        assert ("ws0" in kernel.source) is not naive
        got = kernel(A=A, d=d)
        np.testing.assert_allclose(got, spec.reference(A=A, d=d), rtol=1e-12)


def test_partial_symmetry_kernel(rng):
    """A tensor symmetric in two of three modes: y[i] += T[i,j,k] x[j] x[k].

    T is sparse-iterated only when the normalized access is concordant; the
    {j,k} partial symmetry keeps mode 0 in place, so it is.
    """
    n = 5
    T = rng.random((n, n, n)) * (rng.random((n, n, n)) < 0.5)
    T = (T + np.transpose(T, (0, 2, 1))) / 2
    x = rng.random(n)
    kernel = compile_kernel(
        "y[i] += T[i, j, k] * x[j] * x[k]",
        symmetric={"T": [[1, 2]]},
        loop_order=("i", "k", "j"),
        formats={"T": "sparse"},
    )
    expected = np.einsum("ijk,j,k->i", T, x, x)
    np.testing.assert_allclose(kernel(T=T, x=x), expected, rtol=1e-10)


def test_literal_scale_in_einsum(rng):
    n = 6
    A = make_symmetric_matrix(rng, n, 0.6)
    x = rng.random(n)
    kernel = compile_kernel(
        "y[i] += 3 * A[i, j] * x[j]",
        symmetric={"A": True},
        loop_order=("j", "i"),
    )
    np.testing.assert_allclose(kernel(A=A, x=x), 3 * (A @ x), rtol=1e-12)
