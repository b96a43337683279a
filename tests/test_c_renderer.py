"""Unit tests for the C renderer and toolchain layer.

These exercise the translation itself (signatures, vector loops,
intersection walks, LUTs, failure modes) without needing end-to-end
parity, which lives in test_backends.py.
"""

import re

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
    assert "const rp_index *restrict A__strict_pos1" in src
    assert "const double *restrict A__strict_vals" in src
    assert "int64_t n_i" in src
    # the triangle workspace flush and the concordant walk
    assert "out[j] += ws0;" in src
    assert "for (q0_1 = A__strict_pos1[j];" in src


def test_renders_vector_statements_as_plain_loops():
    src = render_c(_lowered("mttkrp3d"))
    # one block wide, over block-local workspaces
    assert "for (_v = 0; _v < 16; ++_v) { ws0[_v] = 0.0; }" in src
    assert "double ws0[16];" in src and "free(ws0);" not in src
    # dense rows index through the runtime extent vector when staged
    assert "B + rp_r * B_dims[1]" in src and "t1 = rp_B + (l) * rp_w;" in src


def test_renders_minmax_semiring():
    src = render_c(_lowered("bellmanford"))
    # Python's min, not libm's: no <math.h>, no fmin
    assert "static inline double rp_fmin(double a, double b) { return b < a ? b : a; }" in src
    assert "= rp_fmin(" in src and " fmin(" not in src and "rp_fmax" not in src
    assert "__builtin_inff()" in src and "INFINITY" not in src
    assert "#include" in src and "<math.h>" not in src and "<stdlib.h>" not in src


def test_the_preamble_includes_only_integer_and_size_types():
    for name in ("ssymv", "mttkrp3d", "bellmanford"):
        src = render_c(_lowered(name))
        includes = re.findall(r"#include <(\w+\.h)>", src)
        # <omp.h> only behind the OpenMP object's #if
        assert includes[:2] == ["stdint.h", "stddef.h"] and includes[2:] in ([], ["omp.h"])
        assert "void *calloc(size_t, size_t);" in src
    # min/max helpers only where a min/max reduction calls them
    assert "rp_fm" not in render_c(_lowered("ssymv"))
    float32 = get_kernel("bellmanford").compile(options=DEFAULT.but(dtype="float32")).lowered
    assert "static inline float rp_fminf(float a, float b)" in render_c(float32)


def test_renders_intersection_walk():
    src = render_c(EXTENSIONS["sddmm_rowsum"].compile().lowered)
    assert "(q0_1 < q0_1_end) && (q1_1 < q1_1_end)" in src
    assert "while (" in src
    assert "continue;" in src


def test_renders_lookup_table():
    lowered = get_kernel("mttkrp3d").compile().lowered
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
