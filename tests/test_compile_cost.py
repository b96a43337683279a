"""What a C compile may cost, as counts (never timings).

One rendered source builds into a serial object or an OpenMP object.  A
request that can only run on one thread pays one ``cc`` run without
``-fopenmp``; the first ``threads > 1`` run pays exactly one more (the
upgrade), whoever and however many ask at once; a request whose default
thread setting can exceed 1 builds the OpenMP object directly — one ``cc``
run in total, as before the split.

And what an object may cost *again*: nothing.  One program is one object
whatever label it was rendered under; an object a reader had to build —
after damage, or as the upgrade of a serial one, at load or at the first
threaded call — is built into the store it was read from, so the next
process pays no ``cc``; a serial reader of a store a threaded process
wrote runs what is there.
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
from tests.conftest import KERNEL_CHILD_RESULT, damage, kernel_child, store_objects
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
    objects), and a clean ladder around it."""
    monkeypatch.setattr(ctoolchain, "_build_dir", str(tmp_path))
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
            parallel = any(s is not None for s in exe.strategies)
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
        kernel.bound.plan_prepared(prepared, shape, threads=2, out=out)()
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


# ----------------------------------------------------------------------
# one program, one object; what a reader builds, the store keeps
# ----------------------------------------------------------------------
def test_one_program_under_two_labels_is_one_object():
    from repro.codegen.backends.base import CodegenConfig

    lowered = get_kernel("ssymv").compile(options=PYTHON).lowered
    codegen = CodegenConfig.resolve()
    with trace.tracing() as rec:
        cold = get_backend("c").compile(lowered, codegen=codegen)
        stored = get_backend("c").compile(lowered, label="842da28c6b6c", codegen=codegen)
    assert cold.source != stored.source  # the banner names the label
    assert len(_cc_spans(rec)) == 1
    assert cold.so_path == stored.so_path


def test_rebuilding_a_stores_object_never_makes_a_second_one(tmp_path):
    """Cold compile into a store, damage the store's object, rehydrate with
    the same object cache: at most one ``cc`` run, and neither directory
    ends up with two objects of the one program (the rehydrate's label
    used to name a second one)."""
    from repro.codegen.backends.objects import identity_of
    from repro.service import KernelService

    spec = dict(symmetric={"A": True}, loop_order=("j", "i"), options=SERIAL)
    store = tmp_path / "store"
    service = KernelService(store=store)
    built = service.get_or_compile("y[i] += A[i, j] * x[j]", **spec)
    (key,) = service.store.keys()
    (stored,) = store_objects(store, key)
    damage(stored, b"\x7fELF cut short")
    with trace.tracing() as rec:
        again = KernelService(store=store).get_or_compile(
            "y[i] += A[i, j] * x[j]", **spec
        )
    assert len(_cc_spans(rec)) <= 1
    assert again.backend == "c"
    # (under an ambient REPRO_THREADS > 1 the rehydrate asks for — and
    # builds — the OpenMP object; that is another kind, not a second one)
    for names in (os.listdir(tmp_path), [p.name for p in store_objects(store, key)]):
        identities = [identity_of(n) for n in names if n.endswith(".so")]
        assert len(set(identities)) == len(identities) >= 1, names
        programs = {identity.split("-")[0] for identity in identities}
        assert programs == {identity_of(built.bound.executable.so_path).split("-")[0]}


def _child(report, cc):
    code, seen = report
    assert code == 0, seen
    assert seen["backend"] == "c" and seen["out"] == KERNEL_CHILD_RESULT, seen
    assert seen["cc"] == cc, seen
    return seen


@needs_omp
def test_a_run_time_upgrade_is_paid_once_across_processes(tmp_path):
    """An entry put serial, then three fresh serial-default processes that
    each run it at ``threads=4``: the first builds the OpenMP object —
    into the store — and the other two find it.  (The store used to learn
    of an upgrade only inside ``get``: every process paid this one.)"""
    store = tmp_path / "store"
    _child(kernel_child(store, REPRO_THREADS=1, REPRO_C_CACHE=tmp_path / "cc0"), cc=1)
    (entry,) = store.glob("*.json")
    published = (entry.read_bytes(), entry.stat().st_mtime_ns)
    for n, cc in ((1, 1), (2, 0), (3, 0)):
        seen = _child(
            kernel_child(
                store, run_threads=4, REPRO_THREADS=1,
                REPRO_C_CACHE=tmp_path / ("cc%d" % n),
            ),
            cc=cc,
        )
        assert (seen["loaded"], seen["kind"], seen["upgrades"]) == ("serial", "omp", 1)
    assert len(store_objects(store, entry.stem)) == 2
    assert (entry.read_bytes(), entry.stat().st_mtime_ns) == published


@needs_omp
def test_a_threaded_writers_store_costs_a_serial_reader_no_cc(tmp_path):
    store = tmp_path / "store"
    wrote = _child(
        kernel_child(store, REPRO_THREADS=4, REPRO_C_CACHE=tmp_path / "cc0"), cc=1
    )
    assert wrote["kind"] == "omp"
    read = _child(
        kernel_child(store, REPRO_THREADS=1, REPRO_C_CACHE=tmp_path / "cc1"), cc=0
    )
    # the OpenMP object runs the same serial loops; taking it is a lookup
    # order, and forming its name did not build the -fopenmp probe
    assert (read["kind"], read["upgrades"], read["omp_probed"]) == ("omp", 0, False)
    assert read["so_path"].startswith(str(store))


def test_a_serial_process_never_builds_the_openmp_probe(tmp_path):
    store = tmp_path / "store"
    for cc in (1, 0):
        seen = _child(
            kernel_child(store, REPRO_THREADS=1, REPRO_C_CACHE=tmp_path / "cc"), cc=cc
        )
        assert (seen["kind"], seen["omp_probed"]) == ("serial", False)
