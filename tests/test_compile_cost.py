"""What a C compile may cost, as counts (never timings).

One rendered source builds into a serial object or an OpenMP object.  A
request that can only run on one thread pays one ``cc`` run without
``-fopenmp``; the first ``threads > 1`` run pays exactly one more (the
upgrade), whoever and however many ask at once; a request whose default
thread setting can exceed 1 builds the OpenMP object directly — one ``cc``
run in total, as before the split.
"""

import os
import sys
import threading

import numpy as np
import pytest

from repro.codegen.backends import ctoolchain, get_backend, health
from repro.core.config import DEFAULT, resolve_threads
from repro.kernels.library import KERNELS, get_kernel
from repro.obs import metrics, trace
from tests.test_codegen_kernels import build_inputs

pytestmark = pytest.mark.skipif(
    not get_backend("c").is_available(), reason="no working C toolchain"
)

HAVE_OMP = bool(ctoolchain.openmp_flags())
needs_omp = pytest.mark.skipif(not HAVE_OMP, reason="toolchain lacks OpenMP")

SERIAL = DEFAULT.but(backend="c", threads=1)
# the reference must not leave C objects in the cache under test
PYTHON = DEFAULT.but(backend="python")


@pytest.fixture(autouse=True)
def fresh_objects(monkeypatch, tmp_path):
    """An empty object cache, so every build this test asks for runs ``cc``
    (the content-addressed cache would otherwise serve earlier tests'
    objects), and a clean ladder around it.

    ``denormals`` is forced off: under an ambient ``REPRO_PASSES=all`` (the
    CI passes leg) a threaded kernel with the FTZ prologue would be the one
    that creates the OpenMP runtime's worker threads, which inherit
    flush-to-zero from it for the life of the process — and every later
    threaded test in the run (``test_edge_cases``' denormal check) with it."""
    monkeypatch.setattr(ctoolchain, "_build_dir", str(tmp_path))
    monkeypatch.setenv(
        "REPRO_PASSES", "%s,-denormals" % os.environ.get("REPRO_PASSES", "")
    )
    health.reset()
    yield
    health.reset()


def _cc_spans(recorder):
    return [e for e in recorder.events if e.name == "cc"]


def _upgrades(recorder):
    return [e for e in recorder.events if e.name == "backend:upgrade"]


def test_serial_compile_is_one_cc_run_without_openmp():
    with trace.tracing() as rec:
        kernel = get_kernel("ssymv").compile(options=SERIAL)
    (span,) = _cc_spans(rec)
    assert span.args["omp"] == 0
    assert "-fopenmp" not in span.args["flags"].split()
    exe = kernel.bound.executable
    assert exe.kind == "serial" and not exe.omp
    assert "serial object" in exe.describe()
    with open(exe.so_path, "rb") as handle:
        blob = handle.read()
    # no OpenMP runtime dependency, no marker symbol
    assert b"libgomp" not in blob and b"libomp" not in blob
    assert b"repro_openmp" not in blob
    assert not hasattr(exe._lib, "repro_openmp")


@needs_omp
@pytest.mark.parametrize("name", sorted(KERNELS))
def test_first_threaded_run_upgrades_once_bit_identically(rng, name):
    spec = get_kernel(name)
    inputs = build_inputs(rng, spec)
    py = np.asarray(spec.compile(options=PYTHON)(**inputs))
    was_on = metrics.enabled()
    metrics.enable()
    before = metrics.to_dict()["counters"].get("toolchain.omp_upgrades", 0)
    try:
        with trace.tracing() as rec:
            kernel = spec.compile(options=SERIAL)
            exe = kernel.bound.executable
            prepared, shape = kernel.prepare(**inputs)
            serial = np.array(kernel.finalize(kernel.run(prepared, shape)))
            assert len(_cc_spans(rec)) == 1 and exe.kind == "serial"
            plan = kernel.execution_plan(**inputs)  # bound before the swap

            first = np.array(kernel.finalize(kernel.run(prepared, shape, threads=4)))
            parallel = bool(exe._work_model)
            # kernels without parallel bodies have nothing to upgrade to
            assert len(_cc_spans(rec)) == (2 if parallel else 1)
            assert len(_upgrades(rec)) == int(parallel)
            assert exe.kind == ("omp" if parallel else "serial")
            if parallel:
                assert _cc_spans(rec)[1].args["omp"] == 1

            second = np.array(kernel.finalize(kernel.run(prepared, shape, threads=4)))
            planned = np.array(kernel.finalize(plan(threads=3)))
            replanned = np.array(kernel.finalize(plan()))  # serial again
            assert len(_cc_spans(rec)) == (2 if parallel else 1)
            assert len(_upgrades(rec)) == int(parallel)
        after = metrics.to_dict()["counters"].get("toolchain.omp_upgrades", 0)
        assert after - before == int(parallel)
    finally:
        if not was_on:
            metrics.disable()
    for got in (serial, first, second, planned, replanned):
        assert np.array_equal(py, got)
    assert health.ok("c@omp")


@needs_omp
def test_concurrent_upgrades_are_single_flight(rng):
    spec = get_kernel("ssymv")
    inputs = build_inputs(rng, spec)
    kernel = spec.compile(options=SERIAL)
    prepared, shape = kernel.prepare(**inputs)
    serial = np.array(kernel.finalize(kernel.run(prepared, shape)))
    hosts = 8
    gate = threading.Barrier(hosts)
    results = [None] * hosts

    def worker(slot):
        out = kernel.bound.make_output_buffer(shape)
        gate.wait(timeout=30)
        kernel.bound.run(out, prepared, threads=2)
        results[slot] = np.array(kernel.finalize(out))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with trace.tracing() as rec:
            pool = [
                threading.Thread(target=worker, args=(i,)) for i in range(hosts)
            ]
            for t in pool:
                t.start()
            for t in pool:
                t.join(timeout=120)
            assert not any(t.is_alive() for t in pool)
    finally:
        sys.setswitchinterval(interval)
    assert len(_cc_spans(rec)) == 1 and len(_upgrades(rec)) == 1
    assert kernel.bound.executable.kind == "omp"
    for got in results:
        assert got is not None and np.array_equal(serial, got)


@needs_omp
def test_threaded_default_builds_the_openmp_object_directly(rng):
    spec = get_kernel("ssymv")
    inputs = build_inputs(rng, spec)
    with trace.tracing() as rec:
        kernel = spec.compile(options=SERIAL.but(threads=4))
        got = np.asarray(kernel(**inputs))
        again = np.asarray(kernel(**inputs))
    (span,) = _cc_spans(rec)
    assert span.args["omp"] == 1
    assert not _upgrades(rec)
    assert kernel.bound.executable.kind == "omp"
    serial = np.asarray(spec.compile(options=SERIAL)(**inputs))
    assert np.array_equal(serial, got) and np.array_equal(serial, again)


def test_ambient_thread_setting_builds_exactly_one_object(rng):
    """Whatever ``$REPRO_THREADS`` says (the CI ``c-backend-threads`` leg
    runs this under 2): one ``cc`` run per kernel, no upgrade."""
    spec = get_kernel("ssyrk")
    inputs = build_inputs(rng, spec)
    options = DEFAULT.but(backend="c")
    with trace.tracing() as rec:
        kernel = spec.compile(options=options)
        kernel(**inputs)
        kernel(**inputs)
    assert len(_cc_spans(rec)) == 1
    assert not _upgrades(rec)
    threaded = resolve_threads(options.threads) > 1 and HAVE_OMP
    assert kernel.bound.executable.kind == ("omp" if threaded else "serial")
