"""Tests for assignment/input validation."""

import numpy as np
import pytest

from repro import BatchRequest, KernelService
from repro.core.compiler import compile_kernel
from repro.core.config import DEFAULT
from repro.frontend.parser import parse_assignment
from repro.frontend.validate import (
    ValidationError,
    validate_assignment,
    validate_inputs,
    validate_semiring,
)
from tests.conftest import make_symmetric_matrix
from tests.test_backends import needs_cc


def test_consistent_assignment_passes():
    a = parse_assignment("C[i, j] += A[i, k, l] * B[k, j] * B[l, j]")
    validate_assignment(a, {"A": ((0, 1, 2),)})


def test_inconsistent_arity_rejected():
    a = parse_assignment("y[i] += A[i, j] * A[i, j, k]")
    with pytest.raises(ValidationError):
        validate_assignment(a)


def test_repeated_output_index_rejected():
    a = parse_assignment("C[i, i] += A[i, j]")
    with pytest.raises(ValidationError):
        validate_assignment(a)


def test_unbound_output_index_rejected():
    a = parse_assignment("C[i, z] += A[i, j] * x[j]")
    with pytest.raises(ValidationError):
        validate_assignment(a)


def test_symmetry_on_unused_tensor_rejected():
    a = parse_assignment("y[i] += A[i, j] * x[j]")
    with pytest.raises(ValidationError):
        validate_assignment(a, {"Z": ((0, 1),)})


def test_symmetry_mode_out_of_range_rejected():
    a = parse_assignment("y[i] += A[i, j] * x[j]")
    with pytest.raises(ValidationError):
        validate_assignment(a, {"A": ((0, 5),)})


def test_semiring_plus_times_ok():
    a = parse_assignment("y[i] += A[i, j] * x[j]")
    validate_semiring(a, ["A"])


def test_semiring_min_plus_ok():
    a = parse_assignment("y[i] min= A[i, j] + d[j]")
    validate_semiring(a, ["A"])


def test_semiring_plus_plus_rejected_for_sparse():
    a = parse_assignment("y[i] += A[i, j] + x[j]")
    with pytest.raises(ValidationError):
        validate_semiring(a, ["A"])
    validate_semiring(a, [])  # fine when everything is dense


def test_compile_kernel_rejects_bad_semiring():
    with pytest.raises(ValidationError):
        compile_kernel(
            "y[i] += A[i, j] + x[j]",
            symmetric={"A": True},
            loop_order=("j", "i"),
        )


def test_validate_inputs_extent_mismatch():
    a = parse_assignment("C[i, j] += A[i, k] * B[k, j]")
    with pytest.raises(ValidationError):
        validate_inputs(
            a, {}, {"A": np.zeros((3, 4)), "B": np.zeros((5, 2))}
        )


def test_validate_inputs_missing_tensor():
    a = parse_assignment("y[i] += A[i, j] * x[j]")
    with pytest.raises(ValidationError):
        validate_inputs(a, {}, {"A": np.zeros((3, 3))})


def test_validate_inputs_wrong_ndim():
    a = parse_assignment("y[i] += A[i, j] * x[j]")
    with pytest.raises(ValidationError):
        validate_inputs(a, {}, {"A": np.zeros(3), "x": np.zeros(3)})


def test_validate_inputs_returns_extents():
    a = parse_assignment("C[i, j] += A[i, k] * B[k, j]")
    extents = validate_inputs(
        a, {}, {"A": np.zeros((3, 4)), "B": np.zeros((4, 2))}
    )
    assert extents == {"i": 3, "k": 4, "j": 2}


def test_validate_inputs_rectangular_symmetry_rejected():
    a = parse_assignment("y[i] += A[i, j] * x[j]")
    with pytest.raises(ValidationError):
        validate_inputs(
            a, {"A": ((0, 1),)}, {"A": np.zeros((3, 4)), "x": np.zeros(4)}
        )


# ----------------------------------------------------------------------
# prepare runs validate_inputs: a bad argument set never reaches the loops
# ----------------------------------------------------------------------
#: case -> (the ``x`` handed in beside a 40x40 ``A``, the message)
BAD_ARGUMENTS = {
    "extent": (np.ones(5), r"index 'j' has extent 5 in x\[j\] but 40 elsewhere"),
    "arity": (np.ones((40, 1)), "tensor 'x' has 2 modes"),
    "missing": (None, "missing input tensor 'x'"),
    "complex": (np.ones(40, dtype=complex), "non-real dtype"),
}


@pytest.mark.parametrize("backend", ["python", pytest.param("c", marks=needs_cc)])
@pytest.mark.parametrize("case", sorted(BAD_ARGUMENTS))
def test_bad_arguments_raise_before_any_view_is_built(
    rng, monkeypatch, backend, case
):
    """``ssymv(A=<40x40>, x=<5 elements>)`` on the C backend used to read
    past ``x`` and return numbers (the Python backend: a bare IndexError
    from generated code).  Every way into the loops now refuses it."""
    kernel = compile_kernel(
        "y[i] += A[i, j] * x[j]",
        symmetric={"A": True},
        loop_order=("j", "i"),
        options=DEFAULT.but(backend=backend),
    )
    monkeypatch.setattr(
        type(kernel.bound), "prepare", lambda self, **_: pytest.fail("view built")
    )
    x, message = BAD_ARGUMENTS[case]
    tensors = {"A": make_symmetric_matrix(rng, 40)}
    if x is not None:
        tensors["x"] = x
    entries = (
        lambda: kernel(**tensors),
        lambda: kernel.prepare(**tensors),
        lambda: kernel.execution_plan(**tensors),
        lambda: KernelService().batch(
            [
                BatchRequest(
                    "y[i] += A[i, j] * x[j]",
                    tensors,
                    symmetric={"A": True},
                    loop_order=("j", "i"),
                    options=DEFAULT.but(backend=backend),
                )
            ]
        ),
    )
    for entry in entries:
        with pytest.raises(ValidationError, match=message):
            entry()
