"""The pluggable execution-backend layer.

Parity (C backend vs Python backend vs numpy reference across the figure
suite), graceful degradation without a compiler, disk-store artifact
reuse, cache-key separation and the prepare-time memoization.
"""

import os

import numpy as np
import pytest

from repro.codegen.backends import (
    BackendError,
    BackendUnavailableError,
    get_backend,
    resolve_backend_name,
)
from repro.codegen.backends import ctoolchain
from repro.codegen.backends.base import CodegenConfig
from repro.codegen import executor as executor_mod
from repro.core.compiler import compile_kernel
from repro.core.config import DEFAULT, CompilerOptions
from repro.kernels.library import KERNELS, get_kernel
from repro.service import KernelService
from repro.service.keys import cache_key
from repro.tensor.coo import COO
from repro.tensor.tensor import Tensor
from tests.conftest import make_symmetric_matrix, store_objects
from tests.test_codegen_kernels import build_inputs

HAVE_CC = get_backend("c").is_available()
needs_cc = pytest.mark.skipif(not HAVE_CC, reason="no working C toolchain")

C_OPTS = DEFAULT.but(backend="c")


@pytest.fixture
def no_toolchain(monkeypatch):
    """Force the probe to find nothing, restoring the real cache after."""
    monkeypatch.setenv("REPRO_NO_CC", "1")
    ctoolchain.reset_probe_cache()
    yield
    monkeypatch.delenv("REPRO_NO_CC", raising=False)
    ctoolchain.reset_probe_cache()


# ----------------------------------------------------------------------
# parity across the figure suite
# ----------------------------------------------------------------------
@needs_cc
@pytest.mark.parametrize("name", sorted(KERNELS))
def test_c_backend_matches_python_and_reference(rng, name):
    spec = get_kernel(name)
    inputs = build_inputs(rng, spec)
    expected = spec.reference(**inputs)
    py = spec.compile()(**inputs)
    c_kernel = spec.compile(options=C_OPTS)
    assert c_kernel.backend == "c"
    got = c_kernel(**inputs)
    np.testing.assert_allclose(got, expected, rtol=1e-10, atol=1e-12)
    np.testing.assert_allclose(got, py, rtol=1e-12, atol=0)


@needs_cc
@pytest.mark.parametrize("name", sorted(KERNELS))
def test_c_backend_matches_python_naive(rng, name):
    spec = get_kernel(name)
    inputs = build_inputs(rng, spec)
    py = spec.compile(naive=True)(**inputs)
    got = spec.compile(naive=True, options=C_OPTS)(**inputs)
    np.testing.assert_allclose(got, py, rtol=1e-12, atol=0)


# ----------------------------------------------------------------------
# selection and fallback
# ----------------------------------------------------------------------
def test_auto_degrades_to_python_without_compiler(no_toolchain):
    assert resolve_backend_name("auto") == "python"
    kernel = compile_kernel(
        "y[i] += A[i, j] * x[j]",
        symmetric={"A": True},
        loop_order=("j", "i"),
        options=DEFAULT.but(backend="auto"),
    )
    assert kernel.backend == "python"
    A = np.eye(4)
    np.testing.assert_allclose(kernel(A=A, x=np.ones(4)), np.ones(4))


def test_explicit_c_without_compiler_raises(no_toolchain, monkeypatch, tmp_path):
    # nothing prebuilt either: a compilerless process does run a verified
    # object of the program when its cache holds one
    monkeypatch.setattr(ctoolchain, "_build_dir", str(tmp_path))
    with pytest.raises(BackendUnavailableError):
        compile_kernel(
            "y[i] += A[i, j] * x[j]",
            symmetric={"A": True},
            loop_order=("j", "i"),
            options=C_OPTS,
        )


@needs_cc
def test_auto_resolves_to_c_with_compiler():
    assert resolve_backend_name("auto") == "c"


def test_unknown_backend_rejected():
    with pytest.raises(ValueError, match="backend"):
        CompilerOptions(backend="fortran")
    with pytest.raises(ValueError, match="backend"):
        resolve_backend_name("fortran")


def test_env_var_sets_default_backend(monkeypatch):
    monkeypatch.setenv("REPRO_BACKEND", "auto")
    assert CompilerOptions().backend == "auto"
    monkeypatch.delenv("REPRO_BACKEND")
    assert CompilerOptions().backend == "python"


def test_invalid_env_backend_warns_and_falls_back(monkeypatch):
    """A typo'd $REPRO_BACKEND must not make every import crash."""
    monkeypatch.setenv("REPRO_BACKEND", "turbo")
    with pytest.warns(RuntimeWarning, match="REPRO_BACKEND"):
        assert CompilerOptions().backend == "python"


def test_describe_and_explain_name_the_backend():
    kernel = compile_kernel(
        "y[i] += A[i, j] * x[j]",
        symmetric={"A": True},
        loop_order=("j", "i"),
        options=DEFAULT.but(backend="python"),
    )
    assert "backend=python" in kernel.options.describe()
    assert "backend: python" in kernel.explain()


@needs_cc
def test_c_kernel_exposes_generated_c_source():
    kernel = compile_kernel(
        "y[i] += A[i, j] * x[j]",
        symmetric={"A": True},
        loop_order=("j", "i"),
        options=C_OPTS,
    )
    assert "int64_t kernel(" in kernel.backend_source
    assert "backend=c" in kernel.options.describe()


# ----------------------------------------------------------------------
# keys and the disk store
# ----------------------------------------------------------------------
def test_backend_is_part_of_the_cache_key():
    spec = dict(symmetric={"A": True}, loop_order=("j", "i"))
    k_py = cache_key("y[i] += A[i, j] * x[j]", options=DEFAULT.but(backend="python"), **spec)
    k_c = cache_key("y[i] += A[i, j] * x[j]", options=DEFAULT.but(backend="c"), **spec)
    assert k_py != k_c


@needs_cc
def test_store_persists_and_reuses_c_artifacts(tmp_path, rng, monkeypatch):
    einsum = "y[i] += A[i, j] * x[j]"
    spec = dict(symmetric={"A": True}, loop_order=("j", "i"), options=C_OPTS)
    service = KernelService(store=tmp_path)
    kernel = service.get_or_compile(einsum, **spec)
    key = cache_key(einsum, **spec)
    assert (tmp_path / ("%s.json" % key)).exists()
    (stored,) = store_objects(tmp_path, key)
    with open(kernel.bound.executable.so_path, "rb") as handle:
        assert stored.read_bytes() == handle.read()

    # a fresh service must rehydrate from the persisted object without
    # ever invoking the compiler — nor the process's own object cache
    def boom(*a, **k):
        raise AssertionError("recompiled despite a valid object")

    monkeypatch.setattr(ctoolchain, "_run_cc", boom)
    monkeypatch.setattr(ctoolchain, "_build_dir", str(tmp_path / "empty"))
    (tmp_path / "empty").mkdir()
    fresh = KernelService(store=tmp_path)
    rehydrated = fresh.get_or_compile(einsum, **spec)
    assert rehydrated.backend == "c"
    assert rehydrated.bound.executable.so_path == str(stored)
    A = make_symmetric_matrix(rng, 8, 0.6)
    x = rng.random(8)
    np.testing.assert_allclose(rehydrated(A=A, x=x), A @ x, rtol=1e-12)


@needs_cc
def test_corrupt_so_degrades_to_recompile(tmp_path, rng):
    einsum = "y[i] += A[i, j] * x[j]"
    spec = dict(symmetric={"A": True}, loop_order=("j", "i"), options=C_OPTS)
    KernelService(store=tmp_path).get_or_compile(einsum, **spec)
    key = cache_key(einsum, **spec)
    (stored,) = store_objects(tmp_path, key)
    stored.write_bytes(b"this is not an ELF object")

    fresh = KernelService(store=tmp_path)
    kernel = fresh.get_or_compile(einsum, **spec)
    assert kernel.backend == "c"
    A = make_symmetric_matrix(rng, 8, 0.6)
    x = rng.random(8)
    np.testing.assert_allclose(kernel(A=A, x=x), A @ x, rtol=1e-12)
    # rebuilt straight into the store: the next process loads it directly
    (rebuilt,) = store_objects(tmp_path, key)
    assert kernel.bound.executable.so_path == str(rebuilt)
    assert rebuilt.read_bytes()[:4] == b"\x7fELF"


def test_store_remove_deletes_artifacts(tmp_path):
    einsum = "y[i] += A[i, j] * x[j]"
    spec = dict(symmetric={"A": True}, loop_order=("j", "i"))
    if HAVE_CC:
        spec["options"] = C_OPTS
    service = KernelService(store=tmp_path)
    service.get_or_compile(einsum, **spec)
    key = cache_key(einsum, **spec)
    assert service.store.remove(key)
    leftovers = [p for p in os.listdir(tmp_path) if p.startswith(key)]
    assert leftovers == []


# ----------------------------------------------------------------------
# prepare-time memoization
# ----------------------------------------------------------------------
def test_prepare_wraps_shared_inputs_once(monkeypatch):
    calls = []
    original = executor_mod._as_tensor

    def counting(name, value, symmetric_modes, dtype=np.float64):
        calls.append(name)
        return original(name, value, symmetric_modes, dtype=dtype)

    monkeypatch.setattr(executor_mod, "_as_tensor", counting)
    kernel = compile_kernel(
        "C[i, j] += A[i, k] * B[k, j]",
        loop_order=("i", "k", "j"),
        formats={"A": "sparse", "B": "sparse"},
    )
    shared = np.arange(16.0).reshape(4, 4)
    prepared = kernel.bound.prepare(A=shared, B=shared)
    assert len(calls) == 1  # one wrap for two argument names
    expected = shared @ shared
    out = kernel.finalize(kernel.run(prepared, (4, 4)))
    np.testing.assert_allclose(out, expected)


def test_prepare_densifies_each_tensor_once(monkeypatch):
    calls = []
    original = Tensor.to_dense

    def counting(self):
        calls.append(id(self))
        return original(self)

    monkeypatch.setattr(Tensor, "to_dense", counting)
    # B appears twice with different index orders -> two dense views
    kernel = compile_kernel(
        "C[i, j] += A[i, k, l] * B[k, j] * B[j, l]",
        loop_order=("i", "k", "l", "j"),
    )
    assert len(kernel.lowered.dense_views) >= 2
    A = np.random.default_rng(0).random((3, 3, 3))
    B = np.random.default_rng(1).random((3, 3))
    kernel.bound.prepare(A=A, B=B)
    # one to_dense per distinct tensor object, not per dense view
    assert len(calls) == len(set(calls))


def test_prepare_memoizes_fibertree_views():
    kernel = compile_kernel(
        "y[i] += A[i, j] * x[j]", symmetric={"A": True}, loop_order=("j", "i")
    )
    A = Tensor.from_dense(np.eye(5), ((0, 1),))
    before = len(A._view_cache)
    kernel.bound.prepare(A=A, x=np.ones(5))
    first = len(A._view_cache)
    kernel.bound.prepare(A=A, x=np.ones(5))
    assert len(A._view_cache) == first > before  # second prepare reuses all


@needs_cc
def test_unrunnable_entry_survives_for_capable_hosts(tmp_path, monkeypatch):
    """A C entry whose .so is corrupt on a compilerless host is a miss,
    not an eviction: the JSON entry must survive for hosts that can
    rebuild or run it."""
    einsum = "y[i] += A[i, j] * x[j]"
    spec = dict(symmetric={"A": True}, loop_order=("j", "i"), options=C_OPTS)
    KernelService(store=tmp_path).get_or_compile(einsum, **spec)
    key = cache_key(einsum, **spec)
    (stored,) = store_objects(tmp_path, key)
    stored.write_bytes(b"garbage")

    monkeypatch.setenv("REPRO_NO_CC", "1")
    ctoolchain.reset_probe_cache()
    try:
        store = KernelService(store=tmp_path).store
        assert store.get(key) is None
        assert store.errors == 1
        assert (tmp_path / ("%s.json" % key)).exists()  # not destroyed
    finally:
        monkeypatch.delenv("REPRO_NO_CC")
        ctoolchain.reset_probe_cache()


@needs_cc
def test_stale_build_cache_object_is_rebuilt(rng):
    """An object in the build dir that verifies — its bytes are what its
    name says — but does not load (e.g. REPRO_C_CACHE carried over from
    another machine) is rebuilt, and replaced: one object per identity.
    """
    import os

    from repro.codegen.backends import render_c
    from repro.codegen.backends.objects import ObjectCache, identity_of

    kernel = compile_kernel(
        "zz[i] += QQ[i, j] * ww[j]",
        symmetric={"QQ": True},
        loop_order=("j", "i"),
        options=DEFAULT.but(backend="python"),  # render only, never dlopen
    )
    source = render_c(kernel.lowered)
    built = ctoolchain.compile_shared(source)
    foreign = ObjectCache(ctoolchain.build_dir()).adopt(
        identity_of(built), b"not an object file"
    )
    os.unlink(built)
    assert ctoolchain.compile_shared(source) == foreign  # verifies, so is served
    rebuilt = get_backend("c").compile(
        kernel.lowered, codegen=CodegenConfig.resolve()
    )
    assert identity_of(rebuilt.so_path) == identity_of(built)
    assert not os.path.exists(foreign)
    prepared = kernel.bound.prepare(QQ=np.eye(4), ww=np.ones(4))
    out = np.zeros(4)
    rebuilt.bind(out, prepared)(1)
    np.testing.assert_allclose(out, np.ones(4))


# ----------------------------------------------------------------------
# index widths at bind: a 64-bit index picks the wide object, never a wrap
# ----------------------------------------------------------------------
@needs_cc
def test_bind_never_narrows_an_index_holding_two_to_the_31(rng):
    spec = get_kernel("ssymv")
    kernel = spec.compile(options=C_OPTS)
    prepared, shape = kernel.prepare(**build_inputs(rng, spec))
    exe = kernel.bound.executable
    out = kernel.bound.make_output_buffer(shape)
    name = next(n for n in prepared if n.endswith("_idx1"))
    big = prepared[name].astype(np.int64)
    big[-1] = 2**31
    arrays = {**prepared, name: big}
    with pytest.raises(ValueError, match="index array"):
        exe._marshal(out, arrays)  # the narrow object refuses the set
    call = exe.bind(out, arrays)  # bound, never called: x is far shorter
    assert exe.wide().index_dtype == np.int64
    assert any(arr is big for arr in call.keep) and big[-1] == 2**31
    assert not any(arr.dtype == np.int32 for arr in call.keep)
    huge = big.astype(np.uint64)
    huge[-1] = 2**63
    with pytest.raises(ValueError, match="index array"):
        exe.bind(out, {**prepared, name: huge})


@needs_cc
def test_coordinates_past_two_to_the_31_run_on_the_wide_object():
    """Extents above 2**31 make the payload, its fibertrees and the object
    64-bit end to end; python and c agree on the exact sum."""
    n = 2**31 + 5
    coords = np.array([[2**31 + 2, 2**31 + 4, 7, 2**31 + 1], [2**31 + 1, 3, 7, 2**31 + 1]])
    A = Tensor(COO(coords, np.array([1.5, 2.0, 0.25, 4.0]), (n, n)), ((0, 1),), canonical=True)
    assert A.coo.coords.dtype == np.int64
    results = []
    for backend in ("python", "c"):
        kernel = compile_kernel(
            "y[] += A[i, j]", symmetric={"A": True}, loop_order=("j", "i"),
            formats={"A": "sparse"}, sparse_levels={"A": ("sparse", "sparse")},
            options=DEFAULT.but(backend=backend),
        )
        prepared, shape = kernel.prepare(A=A)
        assert prepared["A__strict_idx0"].dtype == np.int64
        results.append(float(kernel.finalize(kernel.run(prepared, shape))))
    assert results == [2 * (1.5 + 2.0) + 0.25 + 4.0] * 2
    assert kernel.bound.executable._wide.index_dtype == np.int64  # built by the run
