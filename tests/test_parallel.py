"""Multicore C execution: OpenMP probing, reduction-safe scheduling,
thread plumbing, and the service-layer concurrency contracts.

The renderer's guarantee under the default (auto) strategy is strong:
threaded runs are **bit-identical** to ``threads=1`` and to the Python
backend for every library kernel — the ordered scatter log preserves the
serial floating-point write sequence, and min/max privatization is exact
under any combination order.
"""

import json
import os
import threading
import time
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.codegen.backends import ctoolchain, get_backend, render_c
from repro.codegen.backends.base import CodegenConfig
from repro.core.compiler import compile_kernel
from repro.core.config import (
    CompilerOptions,
    DEFAULT,
    OMP_STRATEGY_CHOICES,
    RUNTIME_FIELDS,
    knob,
    resolve_threads,
)
from repro.kernels.library import KERNELS, get_kernel
from repro.service import KernelService
from repro.service.batch import BatchRequest, _group_threads
from repro.service.keys import cache_key
from tests.test_codegen_kernels import build_inputs

HAVE_CC = get_backend("c").is_available()
needs_cc = pytest.mark.skipif(not HAVE_CC, reason="no working C toolchain")

tc = ctoolchain.probe()
HAVE_OMP = bool(tc and tc.openmp)
needs_omp = pytest.mark.skipif(not HAVE_OMP, reason="toolchain lacks OpenMP")

C_OPTS = DEFAULT.but(backend="c")


def _lowered(name, **kwargs):
    return get_kernel(name).compile(**kwargs).lowered


# ----------------------------------------------------------------------
# config: the runtime thread count
# ----------------------------------------------------------------------
def test_threads_option_validates():
    assert CompilerOptions(threads=4).threads == 4
    with pytest.raises(ValueError, match="a positive int"):
        CompilerOptions(threads="auto")
    with pytest.raises(ValueError, match="threads"):
        CompilerOptions(threads=0)
    with pytest.raises(ValueError, match="threads"):
        CompilerOptions(threads="many")


def test_default_threads_reads_env(monkeypatch):
    monkeypatch.delenv("REPRO_THREADS", raising=False)
    assert knob("REPRO_THREADS") == 1
    monkeypatch.setenv("REPRO_THREADS", "3")
    assert knob("REPRO_THREADS") == CompilerOptions().threads == 3
    monkeypatch.setenv("REPRO_THREADS", "zero-ish")
    with pytest.warns(RuntimeWarning, match="REPRO_THREADS"):
        assert knob("REPRO_THREADS") == 1


def test_threads_env_auto_warns_once_and_means_one(monkeypatch):
    """``auto`` is a bad value like any other: warned about, then 1."""
    monkeypatch.setattr("repro.core.config._warned_values", set())
    monkeypatch.setenv("REPRO_THREADS", "auto")
    with pytest.warns(RuntimeWarning, match="REPRO_THREADS='auto'"):
        assert knob("REPRO_THREADS") == 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert CompilerOptions().threads == 1  # diagnosed once per process


def test_resolve_threads():
    assert resolve_threads(5) == 5
    for bad in (0, None, "auto"):
        with pytest.raises(ValueError, match="a positive int"):
            resolve_threads(bad)


def test_threads_is_a_runtime_field_not_key_material():
    assert "threads" in RUNTIME_FIELDS
    assert "threads" not in DEFAULT.to_dict()
    spec = {"einsum": "y[i] += A[i, j] * x[j]", "symmetric": {"A": True}}
    assert cache_key(options=DEFAULT.but(threads=1), **spec) == cache_key(
        options=DEFAULT.but(threads=7), **spec
    )
    # but it still reads back and displays
    assert "threads=7" in DEFAULT.but(threads=7).describe()
    assert CompilerOptions.from_dict(DEFAULT.to_dict()) == CompilerOptions(
        threads=knob("REPRO_THREADS")
    )


def test_omp_strategy_env(monkeypatch):
    monkeypatch.delenv("REPRO_OMP_STRATEGY", raising=False)
    assert CodegenConfig.resolve().omp_strategy == "auto"
    monkeypatch.setenv("REPRO_OMP_STRATEGY", "serial")
    assert CodegenConfig.resolve().omp_strategy == "serial"
    monkeypatch.setenv("REPRO_OMP_STRATEGY", "sideways")
    with pytest.warns(RuntimeWarning, match="REPRO_OMP_STRATEGY"):
        assert CodegenConfig.resolve().omp_strategy == "auto"


def test_omp_strategy_splits_c_cache_keys(monkeypatch):
    """The emission strategy changes the generated C, so C-backend keys
    must not alias across strategies (a stale atomic .so served under an
    auto key would break the bit-identity contract)."""
    spec = {"einsum": "y[i] += A[i, j] * x[j]", "symmetric": {"A": True}}
    monkeypatch.delenv("REPRO_OMP_STRATEGY", raising=False)
    if HAVE_CC:
        auto_key = cache_key(options=C_OPTS, **spec)
        monkeypatch.setenv("REPRO_OMP_STRATEGY", "atomic")
        assert cache_key(options=C_OPTS, **spec) != auto_key
    # the python backend is unaffected by the strategy — one key
    py_key = cache_key(options=DEFAULT.but(backend="python"), **spec)
    monkeypatch.setenv("REPRO_OMP_STRATEGY", "serial")
    assert cache_key(options=DEFAULT.but(backend="python"), **spec) == py_key


# ----------------------------------------------------------------------
# toolchain: the OpenMP probe
# ----------------------------------------------------------------------
@needs_cc
def test_probe_settles_the_two_flag_sets():
    """The serial object never carries ``-fopenmp``, the OpenMP object
    always does — the flag sets are spellings; whether the OpenMP one can
    be built is the (lazy) OpenMP probe's answer."""
    probed = ctoolchain.probe()
    assert probed is not None
    serial = probed.object_flags(omp=False)
    assert serial == probed.flags + probed.simd_flags
    assert "-fopenmp" not in serial
    assert probed.simd_flags in ((), ("-fopenmp-simd",))
    assert "-fopenmp" not in probed.describe().split()
    assert probed.object_flags(omp=True) == probed.flags + ("-fopenmp",)
    # no OpenMP toolchain: asking compile_shared for the OpenMP object gets
    # the serial one (test_no_openmp_toolchain_serves_threaded_calls_serially)
    assert probed.openmp_flags == (("-fopenmp",) if probed.openmp else ())


@needs_cc
def test_openmp_probe_is_lazy(monkeypatch):
    """``probe()`` alone builds one trivial object; the ``-fopenmp`` one is
    built the first time somebody asks."""
    builds = []
    real = ctoolchain._probe_build_runs

    def counting(cc_path, flags, source):
        builds.append(flags)
        return real(cc_path, flags, source)

    monkeypatch.setattr(ctoolchain, "_probe_build_runs", counting)
    monkeypatch.delenv("REPRO_NO_OPENMP", raising=False)
    try:
        ctoolchain.reset_probe_cache()
        probed = ctoolchain.probe()
        assert probed is not None
        assert builds and all("-fopenmp" not in flags for flags in builds)
        settled = len(builds)
        probed.openmp
        assert [f for f in builds[settled:] if "-fopenmp" in f]
        asked = len(builds)
        probed.openmp, ctoolchain.openmp_flags()
        assert len(builds) == asked  # cached
    finally:
        monkeypatch.undo()
        ctoolchain.reset_probe_cache()


@needs_cc
def test_reset_probe_cache_invalidates_openmp_probe(monkeypatch):
    """Flipping REPRO_NO_OPENMP between probes changes the answer — the
    OpenMP capability is not cached independently of the compiler."""
    try:
        monkeypatch.delenv("REPRO_NO_OPENMP", raising=False)
        ctoolchain.reset_probe_cache()
        capability = ctoolchain.probe().openmp  # this toolchain, env clear
        monkeypatch.setenv("REPRO_NO_OPENMP", "1")
        # without a reset the cached answer sticks...
        assert ctoolchain.probe().openmp == capability
        # ...and one reset_probe_cache() refreshes the OpenMP answer too
        ctoolchain.reset_probe_cache()
        probed = ctoolchain.probe()
        assert probed is not None and not probed.openmp
        monkeypatch.delenv("REPRO_NO_OPENMP")
        ctoolchain.reset_probe_cache()
        assert ctoolchain.probe().openmp == capability
    finally:
        monkeypatch.delenv("REPRO_NO_OPENMP", raising=False)
        ctoolchain.reset_probe_cache()


# ----------------------------------------------------------------------
# renderer: strategy selection
# ----------------------------------------------------------------------
def test_signature_always_carries_the_thread_count():
    src = render_c(_lowered("ssymv"), parallel="serial")
    assert "int64_t repro_nthreads" in src
    assert "#pragma omp" not in src


def test_replay_for_sum_scatter_kernels():
    for name in ("ssymv", "ssyrk", "syprd", "mttkrp3d", "ttm"):
        src = render_c(_lowered(name), parallel="auto")
        assert "#pragma omp parallel" in src, name
        assert "repro_log_slot" in src, name
        assert "schedule(static)" in src, name


def test_privatized_tree_reduction_for_minmax_scatter():
    src = render_c(_lowered("bellmanford"), parallel="auto")
    assert "#pragma omp parallel" in src
    assert "pv_all" in src and "pv_team" in src
    assert "repro_log_slot" not in src  # no scatter log for min/max
    assert "fmin(out[pv_k], pv_all[pv_k])" in src


def test_plain_parallel_for_when_writes_are_disjoint():
    from repro.kernels.extensions import EXTENSIONS

    src = render_c(EXTENSIONS["bilinear_partial"].compile().lowered)
    assert "#pragma omp parallel" in src
    assert "repro_log_slot" not in src and "pv_all" not in src


def test_atomic_fallback_strategy():
    src = render_c(_lowered("ssymv"), parallel="atomic")
    assert "#pragma omp atomic" in src
    assert "repro_log" not in src


def test_serial_branch_is_always_present():
    """Without _OPENMP the preprocessor strips down to the serial body,
    so one rendered source serves OpenMP-less toolchains unchanged."""
    src = render_c(_lowered("ssymv"), parallel="auto")
    assert "#if defined(_OPENMP)" in src
    assert "} else" in src
    assert "out[j] += ws0;" in src  # the serial flush survives


def test_carried_scalar_accumulator_goes_through_the_log():
    src = render_c(_lowered("syprd"), parallel="auto")
    assert "repro_log_slot(rp_my, -1, 1)" in src
    assert "ws0 += rp_val;" in src  # ordered replay into the accumulator


def test_rendered_source_is_independent_of_toolchain_openmp():
    lowered = _lowered("ssymv")
    assert render_c(lowered) == render_c(lowered)


# ----------------------------------------------------------------------
# execution: bit-identical threaded runs
# ----------------------------------------------------------------------
@needs_cc
@needs_omp
@pytest.mark.parametrize("name", sorted(KERNELS))
def test_threaded_run_bit_identical_to_serial_and_python(rng, name):
    spec = get_kernel(name)
    inputs = build_inputs(rng, spec)
    py = spec.compile()(**inputs)
    kernel = spec.compile(options=C_OPTS)
    prepared, shape = kernel.prepare(**inputs)
    serial = kernel.finalize(kernel.run(prepared, shape, threads=1))
    assert np.array_equal(np.asarray(py), np.asarray(serial))
    for count in (2, 3, 5):
        threaded = kernel.finalize(kernel.run(prepared, shape, threads=count))
        assert np.array_equal(np.asarray(serial), np.asarray(threaded)), (
            "threads=%d diverged on %s" % (count, name)
        )


@needs_cc
@needs_omp
def test_options_threads_is_the_run_default(rng):
    spec = get_kernel("ssymv")
    inputs = build_inputs(rng, spec)
    kernel = spec.compile(options=C_OPTS.but(threads=3))
    reference = spec.compile()(**inputs)
    np.testing.assert_array_equal(kernel(**inputs), reference)


@needs_cc
@needs_omp
def test_atomic_mode_is_close_but_not_guaranteed_identical(rng):
    spec = get_kernel("ssymv")
    inputs = build_inputs(rng, spec)
    ctoolchain.reset_probe_cache()
    os.environ["REPRO_OMP_STRATEGY"] = "atomic"
    try:
        kernel = spec.compile(options=C_OPTS)
        assert "#pragma omp atomic" in kernel.backend_source
        prepared, shape = kernel.prepare(**inputs)
        serial = kernel.finalize(kernel.run(prepared, shape, threads=1))
        threaded = kernel.finalize(kernel.run(prepared, shape, threads=4))
        np.testing.assert_allclose(threaded, serial, rtol=1e-12)
    finally:
        del os.environ["REPRO_OMP_STRATEGY"]
        ctoolchain.reset_probe_cache()


@needs_cc
def test_threads_is_a_reserved_tensor_name(rng):
    kernel = compile_kernel(
        "y[i] += A[i, j] * x[j]",
        symmetric={"A": True},
        options=C_OPTS,
    )
    prepared, shape = kernel.prepare(
        A=np.eye(3), x=np.ones(3)
    )
    poisoned = dict(prepared)
    poisoned["threads"] = 2
    out = kernel.bound.make_output_buffer(shape)
    with pytest.raises(ValueError, match="reserved"):
        kernel.bound.plan_prepared(poisoned, shape, out=out)()


# ----------------------------------------------------------------------
# service layer: single-flight compilation, batch composition
# ----------------------------------------------------------------------
def test_concurrent_get_or_compile_compiles_once(monkeypatch):
    from repro.service import keys as keys_mod

    service = KernelService(capacity=8)
    calls = []
    real_compile = keys_mod.CompileRequest.compile

    def slow_compile(self):
        calls.append(threading.get_ident())
        time.sleep(0.05)
        return real_compile(self)

    monkeypatch.setattr(keys_mod.CompileRequest, "compile", slow_compile)
    spec = get_kernel("ssymv")

    def worker(_):
        return service.get_or_compile(
            spec.einsum,
            symmetric=dict(spec.symmetric),
            loop_order=spec.loop_order,
            formats=dict(spec.formats),
            options=DEFAULT.but(backend="python"),
        )

    with ThreadPoolExecutor(max_workers=8) as pool:
        kernels = list(pool.map(worker, range(8)))
    assert len(calls) == 1, "expected single-flight, got %d compiles" % len(calls)
    assert all(k is kernels[0] for k in kernels)
    assert service.stats().compiles == 1


def test_failed_leader_lets_a_waiter_retry(monkeypatch):
    from repro.service import keys as keys_mod

    service = KernelService(capacity=8)
    attempts = []
    real_compile = keys_mod.CompileRequest.compile

    def flaky_compile(self):
        attempts.append(None)
        time.sleep(0.02)
        if len(attempts) == 1:
            raise RuntimeError("induced first-compile failure")
        return real_compile(self)

    monkeypatch.setattr(keys_mod.CompileRequest, "compile", flaky_compile)
    spec = get_kernel("ssymv")

    def worker(_):
        try:
            return service.get_or_compile(
                spec.einsum,
                symmetric=dict(spec.symmetric),
                options=DEFAULT.but(backend="python"),
            )
        except RuntimeError:
            return None

    with ThreadPoolExecutor(max_workers=4) as pool:
        kernels = [k for k in pool.map(worker, range(4)) if k is not None]
    assert kernels, "every caller failed even though a retry should succeed"
    assert len(attempts) >= 2


def test_batch_divides_threads_across_workers():
    kernel = compile_kernel(
        "y[i] += A[i, j] * x[j]",
        symmetric={"A": True},
        options=DEFAULT.but(backend="python", threads=8),
    )
    assert _group_threads(kernel, workers=None) is None
    assert _group_threads(kernel, workers=1) is None
    assert _group_threads(kernel, workers=4) == 2
    assert _group_threads(kernel, workers=16) == 1


@needs_cc
def test_batch_with_workers_and_threads_matches_sequential(rng):
    from tests.conftest import make_symmetric_matrix

    service = KernelService(capacity=8)
    A = make_symmetric_matrix(rng, 24, 0.4)
    x = rng.random(24)
    requests = [
        BatchRequest(
            einsum="y[i] += A[i, j] * x[j]",
            tensors={"A": A, "x": x},
            symmetric={"A": True},
            options=C_OPTS.but(threads=2),
            tag=i,
        )
        for i in range(6)
    ]
    seq = service.batch(requests, workers=1)
    par = service.batch(requests, workers=3)
    for a, b in zip(seq, par):
        np.testing.assert_array_equal(a.output, b.output)


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------
def test_cli_backends_reports_openmp_and_threads(capsys):
    from repro.cli import main

    assert main(["backends"]) == 0
    out = capsys.readouterr().out
    assert "openmp:" in out
    assert "default threads:" in out
