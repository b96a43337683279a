"""What a C compile may cost, as counts (never timings).

One rendered source builds into one object per index width, chosen by
the source: the OpenMP object when it has a parallel nest (and the
toolchain has OpenMP), else the serial object.  A compile pays one ``cc``
run — with ``-fopenmp`` only for a parallel source — at any thread
setting, whoever and however many ask at once; no run at any thread count
pays another.  The wide-index object costs one more run, on first need.

And what an object may cost *again*: nothing.  One program is one object
whatever label it was rendered under; an object a reader had to build —
after damage, or the wide one — is built into the store it was read from,
so the next process pays no ``cc``, whatever its thread setting.  The
probe pays one trivial build, one more where the compiler refuses the
vector-width flag.
"""

import ctypes
import dataclasses
import os
import re
import shutil
import subprocess
import sys
import threading

import numpy as np
import pytest

from repro.codegen.backends import ctoolchain, get_backend
from repro.codegen.backends.objects import identity_of
from repro.core.config import DEFAULT
from repro.kernels.extensions import EXTENSIONS
from repro.kernels.library import KERNELS, get_kernel
from repro.obs import trace
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

#: the kernels with an OpenMP body, hence an OpenMP object: Bellman-Ford's
#: nests are ``privatized``, bilinear_partial's (a corpus extension) plain
#: ``for``.  Every other library kernel is a ``+`` scatter, whose nests
#: print one serial body.
PARALLEL = ("bellmanford", "bilinear_partial")
SUM_SCATTER = sorted(set(KERNELS) - set(PARALLEL))
SPECS = {**KERNELS, **EXTENSIONS}


@pytest.fixture(autouse=True)
def fresh_objects(monkeypatch, tmp_path):
    """An empty object cache, so every build this test asks for runs ``cc``
    (the content-addressed cache would otherwise serve earlier tests'
    objects)."""
    monkeypatch.setattr(ctoolchain, "_build_dir", str(tmp_path))


def _cc_spans(recorder):
    return [e for e in recorder.events if e.name == "cc"]


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


def test_a_request_compile_names_its_cc_run_by_its_program():
    """A kernel compiled through a request has no label: its ``cc`` span
    carries the program digest its object is named by."""
    from repro.service import KernelService

    with trace.tracing() as rec:
        kernel = KernelService().get_or_compile(
            "y[i] += A[i, j] * x[j]", symmetric={"A": True}, options=SERIAL
        )
    (span,) = _cc_spans(rec)
    assert re.fullmatch(r"[0-9a-f]{16}", span.args["stem"])
    assert identity_of(kernel.bound.executable.so_path).startswith(span.args["stem"])


@pytest.mark.parametrize("naive", (False, True), ids=("systec", "naive"))
@pytest.mark.parametrize("name", SUM_SCATTER)
def test_a_sum_scatter_kernel_never_builds_an_openmp_object(
    rng, name, naive, monkeypatch, tmp_path
):
    """A ``+`` scatter kernel whose default asks for three threads builds
    its serial object, once, and runs it at every thread count: no
    OpenMP body, OpenMP never probed, the python backend's bits."""
    spec = get_kernel(name)
    inputs = build_inputs(rng, spec)
    py = np.asarray(spec.compile(naive=naive, options=PYTHON)(**inputs))
    # build_inputs compiles the naive plan under the ambient backend
    (tmp_path / "kernel").mkdir()
    monkeypatch.setattr(ctoolchain, "_build_dir", str(tmp_path / "kernel"))
    # forget the module's answer (restored afterwards): asking again would
    # build the -fopenmp probe
    monkeypatch.delitem(ctoolchain._probed, "openmp", raising=False)
    with trace.tracing() as rec:
        kernel = spec.compile(naive=naive, options=SERIAL.but(threads=3))
        exe = kernel.bound.executable
        assert exe.strategies and set(exe.strategies) == {None}
        prepared, shape = kernel.prepare(**inputs)
        ran = np.array(kernel.finalize(kernel.run(prepared, shape, threads=3)))
        planned = np.array(kernel.finalize(kernel.execution_plan(**inputs)()))
    assert len(_cc_spans(rec)) == 1 and _cc_spans(rec)[0].args["omp"] == 0
    assert not exe.omp and "openmp" not in ctoolchain._probed
    assert np.array_equal(py, ran) and np.array_equal(py, planned)
    assert kernel.bound.resolve_run_threads(3) == 3


@needs_omp
@pytest.mark.parametrize("name", PARALLEL)
def test_a_parallel_kernel_runs_every_thread_count_on_its_one_object(rng, name):
    """A parallel kernel compiled at ``threads=1`` is its OpenMP object:
    one ``-fopenmp`` ``cc`` run, and runs and plans at threads 1, 4, 3 and
    1 again cost none more.  Every result is the python backend's, bit for
    bit."""
    spec = SPECS[name]
    inputs = build_inputs(rng, spec)
    py = np.asarray(spec.compile(options=PYTHON)(**inputs))
    with trace.tracing() as rec:
        kernel = spec.compile(options=SERIAL)
        exe = kernel.bound.executable
        prepared, shape = kernel.prepare(**inputs)
        serial = np.array(kernel.finalize(kernel.run(prepared, shape)))
        plan = kernel.execution_plan(**inputs)
        first = np.array(kernel.finalize(kernel.run(prepared, shape, threads=4)))
        second = np.array(kernel.finalize(kernel.run(prepared, shape, threads=4)))
        planned = np.array(kernel.finalize(plan(threads=3)))
        replanned = np.array(kernel.finalize(plan()))
    (span,) = _cc_spans(rec)
    assert span.args["omp"] == 1
    assert ctoolchain.WIDE_INDEX_FLAG not in span.args["flags"].split()
    assert exe.kind == "omp" and exe.index_dtype == np.int32
    assert any(s is not None for s in exe.strategies)
    assert kernel.bound.executable is exe
    for got in (serial, first, second, planned, replanned):
        assert np.array_equal(py, got)
    assert kernel.bound.resolve_run_threads(4) == 4


@needs_omp
@pytest.mark.parametrize("name", PARALLEL)
def test_a_parallel_kernels_wide_object_is_openmp_too(rng, name, monkeypatch):
    """A wide argument set bound on a fresh parallel kernel costs one more
    ``cc`` run, with ``-fopenmp`` and the wide-index flag; its plan runs at
    threads 1 and 3 on that one int64 object, bit for bit the python
    backend's, and the narrow object stays int32."""
    from repro.tensor import coo as coo_mod

    spec = SPECS[name]
    inputs = build_inputs(rng, spec)
    py = np.asarray(spec.compile(options=PYTHON)(**inputs))
    kernel = spec.compile(options=SERIAL)
    monkeypatch.setattr(coo_mod, "INDEX_LIMIT", 0)
    with trace.tracing() as rec:
        prepared, shape = kernel.prepare(**inputs)
        plan = kernel.bound.plan_prepared(prepared, shape)
        serial = np.array(kernel.finalize(plan(threads=1)))
        wide = kernel.bound.executable._wide
        threaded = np.array(kernel.finalize(plan(threads=3)))
    (span,) = _cc_spans(rec)
    assert span.args["omp"] == 1
    assert ctoolchain.WIDE_INDEX_FLAG in span.args["flags"].split()
    assert wide is kernel.bound.executable._wide
    assert wide.kind == "omp" and wide.index_dtype == np.int64
    assert kernel.bound.executable.index_dtype == np.int32
    assert kernel.bound.resolve_run_threads(3) == 3
    assert np.array_equal(py, serial) and np.array_equal(py, threaded)


@needs_omp
def test_concurrent_threaded_compiles_build_the_openmp_object_once(rng):
    """Eight host threads compile Bellman-Ford at ``threads=1`` and run it
    at two at once: together one ``-fopenmp`` ``cc`` run, and every result
    is the python backend's, bit for bit."""
    spec = get_kernel("bellmanford")
    inputs = build_inputs(rng, spec)
    py = np.asarray(spec.compile(options=PYTHON)(**inputs))
    hosts = 8
    gate = threading.Barrier(hosts)
    kinds, results = [None] * hosts, [None] * hosts

    def host(slot):
        gate.wait(timeout=30)
        kernel = spec.compile(options=SERIAL)
        prepared, shape = kernel.prepare(**inputs)
        results[slot] = np.array(kernel.finalize(kernel.run(prepared, shape, threads=2)))
        kinds[slot] = kernel.bound.executable.kind

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with trace.tracing() as rec:
            pool = [threading.Thread(target=host, args=(i,)) for i in range(hosts)]
            for t in pool:
                t.start()
            for t in pool:
                t.join(timeout=120)
            assert not any(t.is_alive() for t in pool)
    finally:
        sys.setswitchinterval(interval)
    (span,) = _cc_spans(rec)
    assert span.args["omp"] == 1
    assert kinds == ["omp"] * hosts
    for got in results:
        assert got is not None and np.array_equal(py, got)


@needs_omp
def test_threaded_default_builds_the_openmp_object_directly(rng):
    spec = get_kernel("bellmanford")
    inputs = build_inputs(rng, spec)
    with trace.tracing() as rec:
        kernel = spec.compile(options=SERIAL.but(threads=4))
        got = np.asarray(kernel(**inputs))
        again = np.asarray(kernel(**inputs))
    (span,) = _cc_spans(rec)
    assert span.args["omp"] == 1
    assert kernel.bound.executable.kind == "omp"
    serial = np.asarray(spec.compile(options=SERIAL)(**inputs))
    assert np.array_equal(serial, got) and np.array_equal(serial, again)


def test_ambient_thread_setting_builds_exactly_one_object(rng):
    """Whatever ``$REPRO_THREADS`` says (the CI ``c-backend-threads`` leg
    runs this under 2): one ``cc`` run per kernel, of the object the
    source asks for."""
    spec = get_kernel("bellmanford")
    inputs = build_inputs(rng, spec)
    options = DEFAULT.but(backend="c")
    with trace.tracing() as rec:
        kernel = spec.compile(options=options)
        kernel(**inputs)
        kernel(**inputs)
    assert len(_cc_spans(rec)) == 1
    assert kernel.bound.executable.kind == ("omp" if HAVE_OMP else "serial")


# ----------------------------------------------------------------------
# index widths: the wide object exists only for an argument set needing it
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(KERNELS))
def test_a_fitting_input_never_builds_the_wide_object(rng, name):
    """Compile, run and plan an argument set whose indices fit 32 bits:
    one ``cc`` run per kernel, never with the wide-index flag."""
    spec = get_kernel(name)
    inputs = build_inputs(rng, spec)
    with trace.tracing() as rec:
        kernel = spec.compile(options=SERIAL)
        kernel(**inputs)
        kernel.execution_plan(**inputs)()
    (span,) = _cc_spans(rec)
    assert ctoolchain.WIDE_INDEX_FLAG not in span.args["flags"].split()
    exe = kernel.bound.executable
    assert exe.index_dtype == np.int32 and exe._wide is None


def test_concurrent_wide_binds_build_the_wide_object_once(rng, monkeypatch):
    """Eight host threads bind the same wide argument set at once: one
    ``cc`` run, with the wide-index flag, and every result is bit for bit
    the narrow object's."""
    from repro.tensor import coo as coo_mod

    spec = get_kernel("ssymv")
    inputs = build_inputs(rng, spec)
    kernel = spec.compile(options=SERIAL)
    narrow = np.asarray(kernel(**inputs))
    monkeypatch.setattr(coo_mod, "INDEX_LIMIT", 0)
    prepared, shape = kernel.prepare(**inputs)
    hosts = 8
    gate = threading.Barrier(hosts)
    results = [None] * hosts

    def worker(slot):
        out = kernel.bound.make_output_buffer(shape)
        gate.wait(timeout=30)
        kernel.bound.plan_prepared(prepared, shape, out=out)()
        results[slot] = np.array(kernel.finalize(out))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with trace.tracing() as rec:
            pool = [threading.Thread(target=worker, args=(i,)) for i in range(hosts)]
            for t in pool:
                t.start()
            for t in pool:
                t.join(timeout=120)
            assert not any(t.is_alive() for t in pool)
    finally:
        sys.setswitchinterval(interval)
    (span,) = _cc_spans(rec)
    assert ctoolchain.WIDE_INDEX_FLAG in span.args["flags"].split()
    for got in results:
        assert got is not None and np.array_equal(narrow, got)


def test_the_narrow_object_of_a_parallel_source_runs_serially_without_openmp(
    rng, no_openmp
):
    """A toolchain without OpenMP builds a parallel source's serial object,
    of each width, and answers threaded calls on one thread with the
    python backend's bits."""
    from repro.tensor import coo as coo_mod

    spec = get_kernel("bellmanford")
    inputs = build_inputs(rng, spec)
    py = np.asarray(spec.compile(options=PYTHON)(**inputs))
    with trace.tracing() as rec:
        kernel = spec.compile(options=SERIAL)
        prepared, shape = kernel.prepare(**inputs)
        narrow = np.array(kernel.finalize(kernel.run(prepared, shape, threads=3)))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(coo_mod, "INDEX_LIMIT", 0)
            prepared, shape = kernel.prepare(**inputs)
            wide = np.array(kernel.finalize(kernel.run(prepared, shape, threads=3)))
    assert [span.args["omp"] for span in _cc_spans(rec)] == [0, 0]
    exe = kernel.bound.executable
    assert exe.kind == exe._wide.kind == "serial"
    assert exe._wide.index_dtype == np.int64
    assert kernel.bound.resolve_run_threads(3) == 1
    assert np.array_equal(py, narrow) and np.array_equal(py, wide)


def test_a_wide_bind_refuses_an_object_of_the_narrow_width(monkeypatch):
    """An object offered as the wide one that reads int32 indices is never
    loaded as it: ``wide()`` raises and the narrow object keeps serving."""
    from repro.codegen.backends.base import BackendError

    exe = get_kernel("bellmanford").compile(options=SERIAL).bound.executable
    monkeypatch.setattr(ctoolchain, "compile_shared", lambda *a, **k: exe.so_path)
    with pytest.raises(BackendError, match="int32"):
        exe.wide()
    assert exe._wide is None and exe.index_dtype == np.int32


def test_a_wide_object_that_fails_to_load_is_rebuilt_once(rng, monkeypatch):
    """The wide object goes through the narrow one's load path: a first
    ``dlopen`` that fails costs one forced rebuild, and the bind serves
    the python backend's bits."""
    from repro import faults
    from repro.tensor import coo as coo_mod

    spec = get_kernel("ssymv")
    inputs = build_inputs(rng, spec)
    py = np.asarray(spec.compile(options=PYTHON)(**inputs))
    kernel = spec.compile(options=SERIAL)
    monkeypatch.setattr(coo_mod, "INDEX_LIMIT", 0)
    with faults.injecting("dlopen=fail*1") as plan, trace.tracing() as rec:
        got = np.asarray(kernel(**inputs))
    assert plan.fired() == {"dlopen": 1}
    assert [
        ctoolchain.WIDE_INDEX_FLAG in span.args["flags"].split()
        for span in _cc_spans(rec)
    ] == [True, True]
    assert kernel.bound.executable._wide.index_dtype == np.int64
    assert got.tobytes() == py.tobytes()


#: a stand-in object whose kernel reports a failed workspace allocation
OOM_SOURCE = """#include <stdint.h>
int64_t repro_index_bytes(void) { return 4; }
int64_t kernel(void) { return 1; }
"""


def test_a_failed_workspace_allocation_raises_memory_error(rng, monkeypatch):
    """A kernel's nonzero status is a :class:`MemoryError` naming the
    kernel and the status; nothing is re-served, and the next kernel
    bound in the process runs normally."""
    spec = get_kernel("ssymv")
    inputs = build_inputs(rng, spec)
    py = np.asarray(spec.compile(options=PYTHON)(**inputs))
    kernel = spec.compile(options=SERIAL)
    so_path = ctoolchain.compile_shared(OOM_SOURCE, stem="oom")
    with monkeypatch.context() as patch:
        patch.setattr(ctoolchain, "compile_shared", lambda *a, **k: so_path)
        kernel.bound.executable = get_backend("c").compile(kernel.lowered, label="oom")
    plan = kernel.execution_plan(**inputs)
    with pytest.raises(MemoryError, match=r"C kernel oom: .*\(status 1\)"):
        plan()
    healthy = spec.compile(options=SERIAL)
    assert healthy.backend == "c"
    assert np.asarray(healthy(**inputs)).tobytes() == py.tobytes()


# ----------------------------------------------------------------------
# one program, one object; what a reader builds, the store keeps
# ----------------------------------------------------------------------
def test_one_program_under_two_labels_is_one_object():
    lowered = get_kernel("ssymv").compile(options=PYTHON).lowered
    with trace.tracing() as rec:
        cold = get_backend("c").compile(lowered)
        stored = get_backend("c").compile(lowered, label="842da28c6b6c")
    assert cold.source != stored.source  # the banner names the label
    assert len(_cc_spans(rec)) == 1
    assert cold.so_path == stored.so_path


def test_rebuilding_a_stores_object_never_makes_a_second_one(tmp_path):
    """Cold compile into a store, damage the store's object, rehydrate with
    the same object cache: at most one ``cc`` run, and neither directory
    ends up with two objects of the one program (the rehydrate's label
    used to name a second one)."""
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
    for names in (os.listdir(tmp_path), [p.name for p in store_objects(store, key)]):
        identities = [identity_of(n) for n in names if n.endswith(".so")]
        assert len(set(identities)) == len(identities) >= 1, names
        programs = {identity.split("-")[0] for identity in identities}
        assert programs == {identity_of(built.bound.executable.so_path).split("-")[0]}


def _child(report, cc, out=KERNEL_CHILD_RESULT):
    code, seen = report
    assert code == 0, seen
    assert seen["backend"] == "c" and seen["out"] == out, seen
    assert seen["cc"] == cc, seen
    return seen


@needs_omp
def test_the_openmp_object_is_paid_once_across_processes(tmp_path):
    """Three fresh processes over one store, at thread settings 1, 4 and 1:
    the first builds the OpenMP object into the store, the other two find
    it — ``cc`` counts 1, 0, 0 — and the store holds that one object."""
    store = tmp_path / "store"
    seen = [
        _child(
            kernel_child(
                store, run_threads=run, REPRO_THREADS=default,
                REPRO_C_CACHE=tmp_path / ("cc%d" % n),
            ),
            cc=cc,
        )
        for n, (default, run, cc) in enumerate(((1, 4, 1), (4, 0, 0), (1, 1, 0)))
    ]
    assert {s["kind"] for s in seen} == {"omp"}
    (entry,) = store.glob("*.json")
    (stored,) = store_objects(store, entry.stem)
    assert {s["so_path"] for s in seen[1:]} == {str(stored)}


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
    # one object per source: the serial reader names the writer's object
    assert read["kind"] == "omp" and read["omp_probed"]
    assert read["so_path"].startswith(str(store))


def test_a_serial_process_never_builds_the_openmp_probe(tmp_path):
    """A process that compiles only a ``+`` scatter source never asks
    whether the toolchain has OpenMP."""
    store = tmp_path / "store"
    for cc in (1, 0):
        seen = _child(
            kernel_child(
                store, einsum="y[i] += A[i, j] * x[j]", REPRO_THREADS=1,
                REPRO_C_CACHE=tmp_path / "cc",
            ),
            cc=cc, out=[4.0, 8.5, 13.0],
        )
        assert (seen["kind"], seen["omp_probed"]) == ("serial", False)


# ----------------------------------------------------------------------
# the lean link: objects name no libc, unless the probe refused it
# ----------------------------------------------------------------------
READELF = shutil.which("readelf")


def _needed(path) -> list:
    """The ``NEEDED`` libraries ``readelf -d`` lists for object *path*."""
    listing = subprocess.run(
        [READELF, "-d", str(path)], capture_output=True, text=True, check=True
    ).stdout
    return re.findall(r"\(NEEDED\)\s+Shared library: \[([^\]]+)\]", listing)


@pytest.mark.skipif(READELF is None, reason="no readelf")
def test_no_object_of_a_lean_toolchain_needs_libc(rng, monkeypatch, tmp_path):
    """The serial, wide, OpenMP and profiled objects all link without the
    default libraries: ``ld`` resolved no libc for any of them, and the
    OpenMP object still records its runtime."""
    if not set(ctoolchain.LEAN_LINK) <= set(ctoolchain.probe().flags):
        pytest.skip("the probe kept the full link on this host")
    from repro.obs import profile_kernel
    from repro.tensor import coo as coo_mod

    spec = get_kernel("ssymv")
    inputs = build_inputs(rng, spec)
    kernel = spec.compile(options=SERIAL)
    profile_kernel(kernel, inputs, repeats=1)
    get_kernel("bellmanford").compile(options=SERIAL)
    monkeypatch.setattr(coo_mod, "INDEX_LIMIT", 0)
    kernel.execution_plan(**inputs)()
    objects = {str(path): _needed(path) for path in tmp_path.glob("*.so")}
    # the profiled twin is a second serial object
    kinds = [identity_of(path).split("-")[1] for path in objects]
    assert set(kinds) == {"serial", "serial64", "omp" if HAVE_OMP else "serial"}
    assert kinds.count("serial") >= 2
    for path, needed in objects.items():
        assert not [lib for lib in needed if lib.startswith("libc.")], (path, needed)
        if "-omp-" in path:
            assert [lib for lib in needed if "omp" in lib], (path, needed)


def test_a_probe_whose_lean_object_is_refused_keeps_the_full_link(rng, monkeypatch):
    """A lean trivial object that does not load (a sanitizer build, a libc
    the process does not export) leaves the toolchain as it was before the
    lean link: the same flags without it, and kernels still bit for bit
    the python backend's."""
    real = ctoolchain._probe_build_runs

    def refusing_lean(cc_path, flags, source):
        return "-nodefaultlibs" not in flags and real(cc_path, flags, source)

    spec = get_kernel("ssymv")
    inputs = build_inputs(rng, spec)
    py = np.asarray(spec.compile(options=PYTHON)(**inputs))
    try:
        ctoolchain.reset_probe_cache()
        lean = ctoolchain.probe()
        monkeypatch.setattr(ctoolchain, "_probe_build_runs", refusing_lean)
        ctoolchain.reset_probe_cache()
        full = ctoolchain.probe()
        assert full == dataclasses.replace(
            lean, flags=tuple(f for f in lean.flags if f not in ctoolchain.LEAN_LINK)
        )
        with trace.tracing() as rec:
            kernel = spec.compile(options=SERIAL)
        (span,) = _cc_spans(rec)
        assert not set(ctoolchain.LEAN_LINK) & set(span.args["flags"].split())
        assert kernel.backend == "c"
        assert np.asarray(kernel(**inputs)).tobytes() == py.tobytes()
    finally:
        monkeypatch.undo()
        ctoolchain.reset_probe_cache()


def _probe_answering(monkeypatch, accepts):
    """The toolchain a fresh probe settles on, and how many trivial builds
    it asked for, when each build answers ``accepts(flags)`` (no ``cc``)."""
    builds = []

    def answering(cc_path, flags, source):
        builds.append(flags)
        return accepts(flags)

    with monkeypatch.context() as patch:
        patch.setattr(ctoolchain, "_probe_build_runs", answering)
        ctoolchain.reset_probe_cache()
        try:
            return ctoolchain.probe(), len(builds)
        finally:
            ctoolchain.reset_probe_cache()


def test_a_compiler_refusing_the_vector_width_keeps_the_other_flags(monkeypatch):
    """A compiler that rejects ``-mprefer-vector-width=512`` (gcc off x86)
    settles on the flags the probe chose without it, one trivial build
    later than a compiler that takes it — whose serial and OpenMP objects,
    of either index width, are built with it."""
    accepting, accepted_builds = _probe_answering(monkeypatch, lambda flags: True)
    refusing, refused_builds = _probe_answering(
        monkeypatch, lambda flags: ctoolchain.VECTOR_WIDTH not in flags
    )
    native = ctoolchain.BASE_FLAGS + ("-march=native",)
    assert accepting.flags == native + (ctoolchain.VECTOR_WIDTH,) + ctoolchain.LEAN_LINK
    assert refusing.flags == native + ctoolchain.LEAN_LINK
    assert accepting.simd_flags == refusing.simd_flags == ("-fopenmp-simd",)
    assert refused_builds == accepted_builds + 1 == 2
    for omp in (False, True):
        for wide in (False, True):
            assert ctoolchain.VECTOR_WIDTH in accepting.object_flags(omp, wide)


def test_a_timed_out_probe_build_is_retried_not_read_as_a_refused_flag(monkeypatch):
    """A ``cc`` that times out on the first trivial build (a loaded host,
    an armed fault) is asked again: the probe still settles on
    ``-mprefer-vector-width=512``, one retried build later, and ``cc``
    never runs."""
    calls = []

    def run_cc(cc, flags, src, out, timeout=None):
        calls.append(flags)
        if len(calls) == 1:
            raise ctoolchain.ToolchainTimeout("injected: cc timed out")

    class Probe:
        def repro_probe(self):
            return 42

    with monkeypatch.context() as patch:
        patch.setattr(ctoolchain, "_run_cc", run_cc)
        patch.setattr(ctoolchain, "CC_BACKOFF", 0.0)
        patch.setattr(ctoolchain.ctypes, "CDLL", lambda path: Probe())
        ctoolchain.reset_probe_cache()
        try:
            tc = ctoolchain._try_probe("cc")
        finally:
            ctoolchain.reset_probe_cache()
    assert calls[0] == calls[1] and len(calls) == 2
    assert ctoolchain.VECTOR_WIDTH in tc.flags


#: a 128-bit division: ``gcc`` calls libgcc's ``__divti3`` for it
HELPER_SOURCE = """#include <stdint.h>
int64_t repro_div(int64_t a, int64_t b) { return (int64_t) ((__int128) a * a / b); }
"""


def test_a_compiler_helper_call_resolves_from_libgcc():
    """``-lgcc`` follows the source on the ``cc`` line (an archive before
    it resolves nothing): an object calling a helper routine loads."""
    lib = ctypes.CDLL(ctoolchain.compile_shared(HELPER_SOURCE, stem="helper"))
    lib.repro_div.restype = ctypes.c_int64
    lib.repro_div.argtypes = (ctypes.c_int64, ctypes.c_int64)
    a, b = (1 << 40) + 3, (1 << 20) + 7
    assert lib.repro_div(a, b) == a * a // b
