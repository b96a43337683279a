"""Tests for the public compiler API surface."""

import numpy as np
import pytest

from dataclasses import fields

from repro import COO, CompilerOptions, DEFAULT, Tensor, compile_kernel
from repro.core.compiler import _normalize_symmetric, naive_plan
from repro.frontend.parser import parse_assignment
from tests.conftest import make_symmetric_matrix


def test_symmetric_spec_unknown_tensor_rejected():
    with pytest.raises(ValueError):
        compile_kernel("y[i] += A[i, j] * x[j]", symmetric={"Z": True})


def test_symmetric_spec_forms_equivalent():
    a = parse_assignment("C[i, j] += A[i, k, l] * B[k, j] * B[l, j]")
    full = _normalize_symmetric({"A": True}, a)
    listed = _normalize_symmetric({"A": [[0, 1, 2]]}, a)
    braced = _normalize_symmetric({"A": "{0,1,2}"}, a)
    assert full == listed == braced == {"A": ((0, 1, 2),)}


def test_default_loop_order_used_when_omitted(rng):
    n = 6
    A = make_symmetric_matrix(rng, n, 0.6)
    x = rng.random(n)
    kernel = compile_kernel("y[i] += A[i, j] * x[j]", symmetric={"A": True})
    np.testing.assert_allclose(kernel(A=A, x=x), A @ x, rtol=1e-12)


def test_formats_default_marks_symmetric_tensors_sparse():
    kernel = compile_kernel(
        "y[i] += A[i, j] * x[j]", symmetric={"A": True}, loop_order=("j", "i")
    )
    assert kernel.formats == {"A": "sparse"}


def test_formats_unknown_tensor_rejected():
    """A typo'd format name used to be silently ignored; now it raises."""
    with pytest.raises(ValueError, match="Amat"):
        compile_kernel(
            "y[i] += A[i, j] * x[j]",
            symmetric={"A": True},
            formats={"Amat": "sparse"},
        )


def test_formats_may_name_any_assignment_tensor():
    kernel = compile_kernel(
        "y[i] += A[i, j] * x[j]",
        symmetric={"A": True},
        loop_order=("j", "i"),
        formats={"A": "sparse", "x": "dense", "y": "dense"},
    )
    assert kernel.formats["A"] == "sparse"


def test_options_describe_one_liner():
    line = DEFAULT.describe()
    assert "\n" not in line
    assert line == "dtype=%s backend=%s threads=%d" % (
        DEFAULT.dtype, DEFAULT.backend, DEFAULT.threads
    )


def test_options_dict_round_trip():
    opts = DEFAULT.but(dtype="float32", backend="python")
    assert CompilerOptions.from_dict(opts.to_dict()) == opts
    with pytest.raises(ValueError, match="bogus"):
        CompilerOptions.from_dict({"bogus": True})


def test_options_hashable_by_value():
    assert hash(DEFAULT.but(dtype="float32")) == hash(
        CompilerOptions(dtype="float32")
    )
    assert DEFAULT.but(dtype="float32") == CompilerOptions(dtype="float32")


def test_explain_leads_with_options():
    kernel = compile_kernel(
        "y[i] += A[i, j] * x[j]", symmetric={"A": True}, loop_order=("j", "i")
    )
    first_line = kernel.explain().splitlines()[0]
    assert first_line == "options: %s" % kernel.options.describe()


def test_options_but_flips_one_switch():
    opts = DEFAULT.but(threads=DEFAULT.threads + 1)
    assert opts.threads == DEFAULT.threads + 1
    assert opts.dtype == DEFAULT.dtype
    assert DEFAULT.threads == CompilerOptions().threads  # original untouched


def test_naive_kernel_is_the_unoptimized_baseline():
    """The naive plan (no canonical-output restriction, no diagonal
    split, no lookup table), iterated concordantly, lowered without CSE
    or workspaces."""
    kernel = compile_kernel(
        "y[i] += A[i, j] * x[j]",
        symmetric={"A": True},
        loop_order=("j", "i"),
        naive=True,
    )
    assert kernel.plan.history == ("naive",)
    assert [n.tensor_filter for n in kernel.plan.nests] == ["all"]
    (view,) = kernel.lowered.sparse_views
    assert view.mode_order == (1, 0)  # A[i, j] walked j-major
    assert "t0" not in kernel.source and "ws0" not in kernel.source


def test_options_hold_no_pass_switch():
    """SySTeC or naive is the ``naive=`` argument; the options hold only
    how the kernel is typed and run."""
    names = [f.name for f in fields(CompilerOptions)]
    assert names == ["dtype", "backend", "threads"]


def test_naive_plan_structure():
    plan = naive_plan(parse_assignment("y[i] += A[i, j] * x[j]"), ("j", "i"))
    assert plan.permutable == ()
    assert len(plan.nests) == 1
    assert len(plan.blocks) == 1
    assert plan.blocks[0].assignments[0].count == 1


def test_prepare_run_finalize_lifecycle(rng):
    n = 6
    A = make_symmetric_matrix(rng, n, 0.6)
    x = rng.random(n)
    kernel = compile_kernel(
        "y[i] += A[i, j] * x[j]", symmetric={"A": True}, loop_order=("j", "i")
    )
    prepared, shape = kernel.prepare(A=A, x=x)
    assert shape == (n,)
    out = kernel.run(prepared, shape)
    y = kernel.finalize(out)
    np.testing.assert_allclose(y, A @ x, rtol=1e-12)
    # running twice from the same prepared args is deterministic
    y2 = kernel.finalize(kernel.run(prepared, shape))
    np.testing.assert_array_equal(y, y2)


def test_output_shape_from_inputs(rng):
    kernel = compile_kernel(
        "C[i, j] += A[i, k, l] * B[k, j] * B[l, j]",
        symmetric={"A": True},
        loop_order=("l", "k", "i", "j"),
    )
    A = np.zeros((5, 5, 5))
    B = np.zeros((5, 7))
    assert kernel.output_shape(A=A, B=B) == (5, 7)


def test_inputs_as_coo_and_tensor(rng):
    n = 6
    dense = make_symmetric_matrix(rng, n, 0.6)
    x = rng.random(n)
    kernel = compile_kernel(
        "y[i] += A[i, j] * x[j]", symmetric={"A": True}, loop_order=("j", "i")
    )
    expected = dense @ x
    np.testing.assert_allclose(kernel(A=dense, x=x), expected, rtol=1e-12)
    np.testing.assert_allclose(
        kernel(A=COO.from_dense(dense), x=x), expected, rtol=1e-12
    )
    np.testing.assert_allclose(
        kernel(A=Tensor.from_dense(dense, ((0, 1),)), x=x), expected, rtol=1e-12
    )


def test_history_records_passes():
    kernel = compile_kernel(
        "y[i] += A[i, j] * x[j]", symmetric={"A": True}, loop_order=("j", "i")
    )
    assert "symmetrize" in kernel.plan.history
    assert "diagonal_split" in kernel.plan.history


def test_assignment_object_accepted(rng):
    a = parse_assignment("y[i] += A[i, j] * x[j]")
    kernel = compile_kernel(a, symmetric={"A": True}, loop_order=("j", "i"))
    n = 5
    A = make_symmetric_matrix(rng, n, 0.7)
    x = rng.random(n)
    np.testing.assert_allclose(kernel(A=A, x=x), A @ x, rtol=1e-12)
