"""The element dtype as a first-class pipeline parameter.

Unit-level coverage of the dtype threading: options validation, COO
and Tensor payload dtypes (including the fixed ``todense`` fill and
``from_dense`` mask literals), cache-key and persisted-state separation,
output-buffer dtypes, and the CLI flag.
End-to-end bit-identity across backends lives in
:mod:`tests.test_differential`.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.core.compiler import CompiledKernel, compile_kernel
from repro.core.config import CompilerOptions, DEFAULT, DTYPE_CHOICES
from repro.codegen.runtime import make_output, np_dtype
from repro.data.random_tensors import erdos_renyi_symmetric, random_dense
from repro.frontend.validate import ValidationError, validate_inputs
from repro.frontend.parser import parse_assignment
from repro.service.keys import cache_key
from repro.tensor.coo import COO
from repro.tensor.tensor import Tensor, default_levels


# ----------------------------------------------------------------------
# options
# ----------------------------------------------------------------------
def test_dtype_choices_and_default():
    assert DTYPE_CHOICES == ("float64", "float32")
    assert CompilerOptions().dtype == "float64"
    assert "dtype=float64" in CompilerOptions().describe()
    assert CompilerOptions(dtype="float32").dtype == "float32"
    assert "dtype=float32" in CompilerOptions(dtype="float32").describe()


def test_unknown_dtype_rejected():
    with pytest.raises(ValueError, match="dtype"):
        CompilerOptions(dtype="float16")


def test_np_dtype_mapping():
    assert np_dtype("float64") == np.dtype(np.float64)
    assert np_dtype("float32") == np.dtype(np.float32)
    with pytest.raises(ValueError, match="dtype"):
        np_dtype("int8")


# ----------------------------------------------------------------------
# COO / Tensor payloads
# ----------------------------------------------------------------------
def test_coo_preserves_float32_and_promotes_the_rest():
    coords = np.array([[0, 1], [1, 0]])
    f32 = COO(coords, np.array([1.0, 2.0], dtype=np.float32), (2, 2))
    assert f32.dtype == np.float32
    ints = COO(coords, np.array([1, 2]), (2, 2))
    assert ints.dtype == np.float64  # non-float payloads promote
    forced = COO(coords, np.array([1, 2]), (2, 2), dtype=np.float32)
    assert forced.dtype == np.float32
    with pytest.raises(ValueError, match="dtype"):
        COO(coords, np.array([1.0, 2.0]), (2, 2), dtype=np.int32)


def test_coo_ops_preserve_dtype():
    coo = COO.from_dense(np.eye(3, dtype=np.float32))
    assert coo.dtype == np.float32
    assert coo.permute((1, 0)).dtype == np.float32
    assert coo.sorted_lex().dtype == np.float32
    assert coo.filter(np.ones(coo.nnz, dtype=bool)).dtype == np.float32
    assert COO.empty((3,), dtype=np.float32).dtype == np.float32
    assert coo.astype(np.float64).dtype == np.float64
    assert coo.astype(np.float32) is coo


def test_to_dense_fill_uses_payload_dtype():
    """The fixed float64 fill literal: a float32 COO densifies to float32."""
    coo = COO.from_dense(np.eye(2, dtype=np.float32))
    dense = coo.to_dense()
    assert dense.dtype == np.float32
    dense9 = coo.to_dense(fill=9.0)
    assert dense9.dtype == np.float32 and dense9[0, 1] == np.float32(9.0)


def test_from_dense_mask_compares_in_payload_dtype():
    """The fixed from_dense mask: values that round to the float32 fill
    are dropped, not kept via a float64 comparison."""
    arr64 = np.zeros((2, 2))
    arr64[0, 0] = 1e-50  # nonzero in f64, rounds to 0.0 in f32
    arr64[1, 1] = 1.0
    assert COO.from_dense(arr64).nnz == 2
    assert COO.from_dense(arr64.astype(np.float32)).nnz == 1


def test_tensor_dtype_and_astype():
    t = Tensor.from_dense(np.eye(3, dtype=np.float32), ((0, 1),))
    assert t.dtype == np.float32
    assert t.astype(np.float32) is t
    t64 = t.astype(np.float64)
    assert t64.dtype == np.float64
    assert t64.symmetric_modes == ((0, 1),)
    assert t.to_dense().dtype == np.float32
    view = t.view((0, 1), ("dense", "sparse"), "full")
    assert view.vals.dtype == np.float32


def test_symmetry_ops_preserve_dtype():
    t = erdos_renyi_symmetric(6, 3, 0.5, seed=5, dtype=np.float32)
    assert t.dtype == np.float32
    assert t._full_coo().dtype == np.float32
    for tensor_filter in ("full", "all", "strict", "diagonal"):
        assert t.view((0, 1, 2), default_levels(3), tensor_filter).vals.dtype == np.float32
    assert random_dense((3, 2), seed=1, dtype=np.float32).dtype == np.float32


# ----------------------------------------------------------------------
# keys, state, outputs
# ----------------------------------------------------------------------
def test_dtype_is_part_of_the_cache_key():
    spec = dict(symmetric={"A": True}, loop_order=("j", "i"))
    k64 = cache_key("y[i] += A[i, j] * x[j]", options=DEFAULT.but(dtype="float64"), **spec)
    k32 = cache_key("y[i] += A[i, j] * x[j]", options=DEFAULT.but(dtype="float32"), **spec)
    assert k64 != k32


def test_make_output_dtype_and_identity():
    out = make_output((2, 2), "+", np.float32)
    assert out.dtype == np.float32 and np.all(out == 0)
    out = make_output((2,), "min", np.float32)
    assert out.dtype == np.float32 and np.all(np.isposinf(out))


@pytest.mark.parametrize("dtype", DTYPE_CHOICES)
def test_compiled_kernel_state_roundtrip_keeps_dtype(dtype):
    kernel = compile_kernel(
        "y[i] += A[i, j] * x[j]", symmetric={"A": True},
        loop_order=("j", "i"), options=DEFAULT.but(dtype=dtype),
    )
    assert kernel.lowered.dtype == dtype
    state = kernel.to_state()
    rehydrated = CompiledKernel.from_state(state)
    assert rehydrated.options.dtype == dtype
    assert rehydrated.lowered.dtype == dtype
    A = np.eye(4)
    out = rehydrated(A=A, x=np.ones(4))
    assert out.dtype == np.dtype(dtype)
    np.testing.assert_allclose(out, np.ones(4))


@pytest.mark.parametrize("dtype", DTYPE_CHOICES)
def test_naive_kernels_honor_dtype(dtype):
    kernel = compile_kernel(
        "y[i] += A[i, j] * x[j]", symmetric={"A": True},
        loop_order=("j", "i"), naive=True, options=DEFAULT.but(dtype=dtype),
    )
    assert kernel.options.dtype == dtype
    out = kernel(A=np.eye(3), x=np.ones(3))
    assert out.dtype == np.dtype(dtype)


def test_float32_kernel_casts_float64_inputs_once():
    kernel = compile_kernel(
        "y[i] += A[i, j] * x[j]", symmetric={"A": True},
        loop_order=("j", "i"), options=DEFAULT.but(dtype="float32"),
    )
    prepared = kernel.bound.prepare(A=np.eye(4), x=np.ones(4))
    assert all(
        arr.dtype == np.float32
        for name, arr in prepared.items()
        if getattr(arr, "dtype", None) is not None
        and arr.dtype.kind == "f"
    )


def test_float32_vector_workspace_is_float32():
    """The generated preamble allocates workspaces in the kernel dtype."""
    kernel = compile_kernel(
        "C[i, j] += A[i, k] * B[k, j]", loop_order=("i", "k", "j"),
        options=DEFAULT.but(dtype="float32"),
    )
    if "np.empty" in kernel.source:
        assert "dtype=np.float32" in kernel.source


def test_validate_inputs_rejects_non_real_dtypes():
    assignment = parse_assignment("y[i] += A[i, j] * x[j]")
    with pytest.raises(ValidationError, match="non-real"):
        validate_inputs(
            assignment, {},
            {"A": np.zeros((2, 2), dtype=complex), "x": np.zeros(2)},
        )


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def test_cli_compile_dtype_flag(capsys):
    rc = cli_main([
        "compile", "y[i] += A[i, j] * x[j]", "--symmetric", "A",
        "--loop-order", "j,i", "--dtype", "float32",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "dtype=float32" in out


def test_cli_rejects_unknown_dtype():
    with pytest.raises(SystemExit):
        cli_main(["compile", "y[i] += A[i, j] * x[j]", "--dtype", "float16"])
