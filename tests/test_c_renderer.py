"""Unit tests for the C renderer and toolchain layer.

These exercise the translation itself (signatures, vector loops,
intersection walks, LUTs, failure modes) without needing end-to-end
parity, which lives in test_backends.py.
"""

import numpy as np
import pytest

from repro.codegen.backends import CRenderError, get_backend, render_c
from repro.codegen.backends import ctoolchain
from repro.core.compiler import compile_kernel
from repro.core.config import DEFAULT
from repro.kernels.extensions import EXTENSIONS
from repro.kernels.library import get_kernel

needs_cc = pytest.mark.skipif(
    not get_backend("c").is_available(), reason="no working C toolchain"
)


def _lowered(name, **kwargs):
    return get_kernel(name).compile(**kwargs).lowered


def test_renders_signature_and_sparse_walk():
    src = render_c(_lowered("ssymv"), label="ssymv")
    assert "int64_t kernel(double *restrict out" in src
    assert "const int64_t *restrict A__strict_pos1" in src
    assert "const double *restrict A__strict_vals" in src
    assert "int64_t n_i" in src
    # the triangle workspace flush and the concordant walk
    assert "out[j] += ws0;" in src
    assert "for (q0_1 = A__strict_pos1[j];" in src


def test_renders_vector_statements_as_plain_loops():
    src = render_c(_lowered("mttkrp3d"))
    assert "malloc" in src and "free(ws0);" in src
    assert "for (_v = 0; _v < n_j; ++_v)" in src
    # dense rows index through the runtime extent vector
    assert "B_dims[1]" in src


def test_renders_minmax_semiring():
    src = render_c(_lowered("bellmanford"))
    assert "fmin(" in src
    assert "INFINITY" in src


def test_renders_intersection_walk():
    src = render_c(EXTENSIONS["sddmm_rowsum"].compile().lowered)
    assert "(q0_1 < q0_1_end) && (q1_1 < q1_1_end)" in src
    assert "while (" in src
    assert "continue;" in src


def test_renders_lookup_table():
    lowered = get_kernel("mttkrp3d").compile(
        options=DEFAULT.but(lookup_table=True)
    ).lowered
    src = render_c(lowered)
    assert "static const double _lut0[" in src
    assert "<<" in src


def test_rendering_is_deterministic():
    lowered = _lowered("ssyrk")
    assert render_c(lowered) == render_c(lowered)


def test_c_keyword_index_names_are_rejected():
    kernel = compile_kernel(
        "y[do] += A[do, j] * x[j]",
        symmetric={"A": True},
        loop_order=("j", "do"),
        options=DEFAULT.but(backend="python"),
    )
    with pytest.raises(CRenderError, match="C identifier"):
        render_c(kernel.lowered)


# ----------------------------------------------------------------------
# toolchain
# ----------------------------------------------------------------------
def test_probe_respects_no_cc_env(monkeypatch):
    monkeypatch.setenv("REPRO_NO_CC", "1")
    ctoolchain.reset_probe_cache()
    try:
        assert ctoolchain.probe() is None
        with pytest.raises(ctoolchain.ToolchainError, match="compiler"):
            ctoolchain.compile_shared("int x;\n")
    finally:
        monkeypatch.delenv("REPRO_NO_CC")
        ctoolchain.reset_probe_cache()


@needs_cc
def test_compile_shared_is_content_addressed():
    src = "double repro_dummy(double x) { return x + 1.0; }\n"
    first = ctoolchain.compile_shared(src)
    second = ctoolchain.compile_shared(src)
    assert first == second
    other = ctoolchain.compile_shared(src.replace("1.0", "2.0"))
    assert other != first


@needs_cc
def test_compile_shared_surfaces_compiler_errors():
    with pytest.raises(ctoolchain.ToolchainError, match="failed"):
        ctoolchain.compile_shared("this is not C\n")


@needs_cc
def test_executable_rejects_bad_output_buffer():
    kernel = compile_kernel(
        "y[i] += A[i, j] * x[j]",
        symmetric={"A": True},
        loop_order=("j", "i"),
        options=DEFAULT.but(backend="c"),
    )
    prepared, shape = kernel.prepare(A=np.eye(3), x=np.ones(3))
    bad = np.zeros(shape, dtype=np.float32)
    with pytest.raises(ValueError, match="float64"):
        kernel.bound.executable.bind(bad, prepared)(1)


@needs_cc
def test_scalar_output_kernel_runs_in_c(rng):
    from tests.conftest import make_symmetric_matrix

    kernel = compile_kernel(
        "y[] += x[i] * A[i, j] * x[j]",
        symmetric={"A": True},
        loop_order=("j", "i"),
        options=DEFAULT.but(backend="c"),
    )
    A = make_symmetric_matrix(rng, 9, 0.6)
    x = rng.random(9)
    np.testing.assert_allclose(kernel(A=A, x=x), x @ A @ x, rtol=1e-12)


@needs_cc
def test_dense_only_vectorized_kernel_runs_in_c(rng):
    kernel = compile_kernel(
        "y[j] += M[i, j] * x[i]",
        loop_order=("i", "j"),
        options=DEFAULT.but(backend="c"),
    )
    assert kernel.lowered.vector_index == "j"
    M = rng.random((5, 7))
    x = rng.random(5)
    np.testing.assert_allclose(kernel(M=M, x=x), M.T @ x, rtol=1e-12)
