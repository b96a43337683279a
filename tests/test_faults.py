"""Fault injection and the hardened failure paths it exists to exercise.

Every test here arms a deterministic fault plan (:func:`repro.faults
.injecting`) against the real production code — the spec parser, the cc
timeout/retry loop, the permanent-failure memo, the dlopen and store
injection points, and the backend degradation ladder — and asserts the
service keeps answering bit-identically.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import faults
from repro.codegen.backends import get_backend, health
from repro.codegen.backends import ctoolchain
from repro.core.compiler import compile_kernel
from repro.core.config import DEFAULT
from repro.faults.spec import FaultError, FaultSpecError, parse_spec
from repro.service import KernelService

HAVE_CC = get_backend("c").is_available()
needs_cc = pytest.mark.skipif(not HAVE_CC, reason="no working C toolchain")

EINSUM = "y[i] += A[i, j] * x[j]"
SPEC = dict(symmetric={"A": True}, loop_order=("j", "i"))
#: a min-plus relaxation over the same operands: a ``+`` scatter like
#: EINSUM runs its serial object at every thread count, this one's nests
#: are privatized, so it has an OpenMP object to upgrade to
RELAX = "y[i] min= A[i, j] + x[j]"
# threads pinned to 1: under an ambient REPRO_THREADS>1 (the CI
# c-backend-threads leg) a failed threaded call first retries serially
# on the "c" tier, which changes where on the ladder these tests land
C_OPTS = DEFAULT.but(backend="c", threads=1)


@pytest.fixture(autouse=True)
def _clean_ladder():
    """Health and the toolchain failure memo are process-global and
    sticky by design; tests must not leak degradation into each other."""
    health.reset()
    ctoolchain.reset_failure_memo()
    yield
    health.reset()
    ctoolchain.reset_failure_memo()


@pytest.fixture
def inputs():
    A = np.array([[2.0, 1.0, 0.0], [1.0, 3.0, 0.5], [0.0, 0.5, 4.0]])
    return {"A": A, "x": np.array([1.0, 2.0, 3.0])}


def _reference(inputs):
    return compile_kernel(EINSUM, **SPEC)(**inputs)


def _run_once(kernel, inputs, threads=None):
    prepared, shape = kernel.prepare(**inputs)
    return [kernel.finalize(kernel.run(prepared, shape, threads=threads))]


def _reused_plan(kernel, inputs, threads=None):
    plan = kernel.execution_plan(threads=threads, **inputs)
    return [kernel.finalize(np.copy(plan())) for _ in range(2)]


#: the two ways to execute — a one-shot ``run`` and a plan that is called
#: again after it degraded; both go down the one ladder
#: (:meth:`ExecutionPlan._recover`) and the ``exec.*`` cases run over each
ENTRIES = (_run_once, _reused_plan)


# ----------------------------------------------------------------------
# spec grammar
# ----------------------------------------------------------------------
def test_parse_empty_is_no_plan():
    assert parse_spec(None) is None
    assert parse_spec("") is None
    assert parse_spec("  ,  ") is None


def test_parse_defaults_and_modifiers():
    plan = parse_spec("cc=timeout@2*1,dlopen")
    assert plan is not None
    # dlopen's default action is its first registered one
    assert plan.poll("dlopen").action == "fail"
    # skip=2: the first two cc polls pass through
    assert plan.poll("cc") is None
    assert plan.poll("cc") is None
    fault = plan.poll("cc")
    assert fault is not None and fault.action == "timeout"
    # times=1: exhausted afterwards
    assert plan.poll("cc") is None


def test_parse_arg_and_times():
    plan = parse_spec("service.compile=slow:0.25*2")
    first = plan.poll("service.compile")
    assert first.arg == "0.25" and first.arg_float(0.0) == 0.25
    assert plan.poll("service.compile") is not None
    assert plan.poll("service.compile") is None
    assert plan.fired() == {"service.compile": 2}


@pytest.mark.parametrize(
    "bad",
    ["nosuchpoint=fail", "cc=explode", "cc=timeout@x", "=fail", "cc*1@"],
)
def test_malformed_specs_fail_loudly(bad):
    with pytest.raises(FaultSpecError):
        parse_spec(bad)


def test_poll_is_none_without_plan():
    # injecting(None) suspends any ambient $REPRO_FAULTS plan (the CI
    # fault-injection leg arms one for the whole suite)
    with faults.injecting(None):
        assert not faults.enabled()
        assert faults.poll("cc") is None
        assert faults.fired() == {}


def test_injecting_restores_previous_plan():
    with faults.injecting(None):  # neutral baseline under ambient plans
        with faults.injecting("cc=fail*1"):
            assert faults.enabled()
            with faults.injecting(None):
                # inner block *suspends* the outer plan entirely
                assert not faults.enabled()
                assert faults.poll("cc") is None
            assert faults.enabled()
        assert not faults.enabled()


def test_fault_error_message_names_the_fault():
    plan = parse_spec("store.put=enospc")
    err = FaultError(plan.poll("store.put"))
    assert "store.put=enospc" in str(err)


# ----------------------------------------------------------------------
# toolchain: bounded compiles, retry, permanent-failure memo
# ----------------------------------------------------------------------
@needs_cc
def test_injected_cc_timeout_is_retried(monkeypatch, tmp_path):
    monkeypatch.setattr(ctoolchain, "CC_BACKOFF", 0.01)
    src = "int repro_fault_retry(void) { return 1; }\n"
    with faults.injecting("cc=timeout*1") as plan:
        so = ctoolchain.compile_shared(src, stem="faultretry", force=True)
    assert plan.fired() == {"cc": 1}
    import os

    assert os.path.exists(so)


@needs_cc
def test_injected_cc_crash_is_retried(monkeypatch):
    monkeypatch.setattr(ctoolchain, "CC_BACKOFF", 0.01)
    src = "int repro_fault_crash(void) { return 2; }\n"
    with faults.injecting("cc=crash*1"):
        so = ctoolchain.compile_shared(src, stem="faultcrash", force=True)
    import os

    assert os.path.exists(so)


@needs_cc
def test_transient_failures_exhaust_retries(monkeypatch):
    monkeypatch.setattr(ctoolchain, "CC_BACKOFF", 0.01)
    monkeypatch.setenv("REPRO_CC_RETRIES", "1")
    src = "int repro_fault_exhaust(void) { return 3; }\n"
    with faults.injecting("cc=timeout"):  # unbounded: every attempt hangs
        with pytest.raises(ctoolchain.ToolchainTimeout):
            ctoolchain.compile_shared(src, stem="exhaust", force=True)
    # a timeout is transient: NOT memoized as a permanent failure
    so = ctoolchain.compile_shared(src, stem="exhaust", force=True)
    import os

    assert os.path.exists(so)


@needs_cc
def test_permanent_failure_memoized():
    bad = "int repro_broken( {\n"
    with pytest.raises(ctoolchain.ToolchainError):
        ctoolchain.compile_shared(bad, stem="permabad")
    with pytest.raises(ctoolchain.ToolchainError, match="previously failed"):
        ctoolchain.compile_shared(bad, stem="permabad")
    ctoolchain.reset_failure_memo()
    with pytest.raises(ctoolchain.ToolchainError) as excinfo:
        ctoolchain.compile_shared(bad, stem="permabad")
    assert "previously failed" not in str(excinfo.value)


@needs_cc
def test_cc_timeout_env_kills_hung_compiler(monkeypatch, tmp_path):
    """A genuinely hung cc (not injected) is killed by the subprocess
    timeout and surfaces as the transient ToolchainTimeout."""
    hung = tmp_path / "hungcc"
    hung.write_text("#!/bin/sh\nsleep 600\n")
    hung.chmod(0o755)
    with pytest.raises(ctoolchain.ToolchainTimeout, match="timed out"):
        ctoolchain._run_cc(str(hung), (), "x.c", "x.so", timeout=0.2)


# ----------------------------------------------------------------------
# degradation ladder
# ----------------------------------------------------------------------
@needs_cc
def test_exec_failure_degrades_to_python_bit_identical(inputs):
    ref = _reference(inputs)
    for entry in ENTRIES:
        health.reset()
        with faults.injecting("exec.c=fail*1"):
            kernel = compile_kernel(EINSUM, **SPEC, options=C_OPTS)
            results = entry(kernel, inputs)
        assert all(got.tobytes() == ref.tobytes() for got in results)
        assert kernel.backend == "python"
        assert health.degraded()
        assert "c" not in health.active_ladder()


@needs_cc
def test_omp_tier_failure_falls_back_to_serial_c(inputs):
    ref = _reference(inputs)
    for entry in ENTRIES:
        health.reset()
        with faults.injecting("exec.omp=fail*1"):
            kernel = compile_kernel(
                EINSUM, **SPEC, options=C_OPTS.but(threads=2)
            )
            results = entry(kernel, inputs, threads=2)
        assert all(got.tobytes() == ref.tobytes() for got in results)
        # the serial C tier survived: kernel still compiled
        assert kernel.backend == "c"
        assert not health.ok("c@omp") and health.ok("c")
        # future thread resolutions collapse onto the serial tier
        assert kernel.bound.resolve_run_threads(4) == 1


@needs_cc
def test_failed_omp_upgrade_is_served_from_the_serial_object(
    monkeypatch, tmp_path, inputs
):
    """The on-demand OpenMP build fails (an injected ``cc`` fault): the
    threaded call is answered by the serial object, bit-identically, the
    ``c@omp`` tier goes down so the build is not retried per call, and
    nothing raises."""
    ref = compile_kernel(RELAX, **SPEC)(**inputs)
    # nothing prebuilt: the upgrade has to run cc
    monkeypatch.setattr(ctoolchain, "_build_dir", str(tmp_path))
    have_omp = bool(ctoolchain.openmp_flags())  # settled outside the plan
    kernel = compile_kernel(RELAX, **SPEC, options=C_OPTS)
    exe = kernel.bound.executable
    assert exe.kind == "serial"
    plan = kernel.execution_plan(threads=4, **inputs)
    prepared, shape = kernel.prepare(**inputs)
    with faults.injecting("cc=fail") as armed:
        first = kernel.finalize(np.copy(plan()))
        again = kernel.finalize(np.copy(plan()))
        run = kernel.finalize(kernel.run(prepared, shape, threads=4))
        assert armed.fired() == ({"cc": 1} if have_omp else {})
    for got in (first, again, run):
        assert got.tobytes() == ref.tobytes()
    assert kernel.backend == "c" and exe.kind == "serial"
    assert not health.ok("c@omp") and health.ok("c")
    assert kernel.bound.resolve_run_threads(4) == 1


@needs_cc
def test_no_openmp_toolchain_serves_threaded_calls_serially(
    monkeypatch, tmp_path, inputs
):
    monkeypatch.setattr(ctoolchain, "_build_dir", str(tmp_path))
    monkeypatch.setenv("REPRO_NO_OPENMP", "1")
    ctoolchain.reset_probe_cache()
    try:
        ref = compile_kernel(RELAX, **SPEC)(**inputs)
        # the hint asks for the OpenMP object; the toolchain has none
        kernel = compile_kernel(RELAX, **SPEC, options=C_OPTS.but(threads=2))
        assert kernel.backend == "c"
        assert kernel.bound.executable.kind == "serial"
        assert kernel(**inputs).tobytes() == ref.tobytes()
        assert not health.ok("c@omp") and health.ok("c")
    finally:
        monkeypatch.undo()
        ctoolchain.reset_probe_cache()


@needs_cc
def test_alloc_failure_reserved_serially_bit_identical(inputs):
    """A kernel reporting allocation failure (nonzero status — a failed
    per-thread workspace or buffer malloc) must surface as
    BackendError and be re-served down the ladder, not abort the
    process."""
    ref = _reference(inputs)
    for entry in ENTRIES:
        health.reset()
        with faults.injecting("exec.alloc=fail*1"):
            kernel = compile_kernel(
                EINSUM, **SPEC, options=C_OPTS.but(threads=2)
            )
            results = entry(kernel, inputs, threads=2)
        assert all(got.tobytes() == ref.tobytes() for got in results)
        # the serial C tier survived the OOM: kernel still compiled, and
        # the threaded tier is marked down so future calls skip the
        # failing path
        assert kernel.backend == "c"
        assert not health.ok("c@omp") and health.ok("c")


@needs_cc
def test_plan_degrades_and_stays_usable(inputs):
    ref = _reference(inputs)
    with faults.injecting("exec.c=fail*1"):
        kernel = compile_kernel(EINSUM, **SPEC, options=C_OPTS)
        plan = kernel.execution_plan(**inputs)
        first = kernel.finalize(np.copy(plan()))
    assert first.tobytes() == ref.tobytes()
    assert kernel.backend == "python"
    # the rebound plan keeps serving (now interpreted)
    second = kernel.finalize(np.copy(plan()))
    assert second.tobytes() == ref.tobytes()


@needs_cc
def test_sibling_plan_of_a_degraded_kernel_rebinds_too(inputs):
    """Two plans on one kernel, both C calls fail: the second plan is
    still bound to the C callable when the first has already degraded
    the kernel they share, and must fall to python like the first did
    (it used to re-raise, judging by the kernel's tier, not its own)."""
    ref = _reference(inputs)
    with faults.injecting("exec.c=fail*2"):
        kernel = compile_kernel(EINSUM, **SPEC, options=C_OPTS)
        first = kernel.execution_plan(**inputs)
        second = kernel.execution_plan(**inputs)
        a = kernel.finalize(np.copy(first()))
        assert kernel.backend == "python"  # ... under the second plan's feet
        b = kernel.finalize(np.copy(second()))
    assert a.tobytes() == b.tobytes() == ref.tobytes()
    # both rebound: they keep serving, interpreted
    assert kernel.finalize(np.copy(second())).tobytes() == ref.tobytes()


@needs_cc
def test_degradation_is_sticky_for_new_kernels(inputs):
    with faults.injecting("exec.c=fail*1"):
        kernel = compile_kernel(EINSUM, **SPEC, options=C_OPTS)
        kernel(**inputs)
    assert kernel.backend == "python"
    # a *new* C-backend request in the same process goes straight to the
    # floor instead of re-paying the failure
    again = compile_kernel(EINSUM, **SPEC, options=C_OPTS)
    assert again.backend == "python"


@needs_cc
def test_no_degrade_env_propagates_failures(monkeypatch, inputs):
    monkeypatch.setenv("REPRO_NO_DEGRADE", "1")
    with faults.injecting("exec.c=fail*1"):
        kernel = compile_kernel(EINSUM, **SPEC, options=C_OPTS)
        with pytest.raises(FaultError):
            kernel(**inputs)


@needs_cc
def test_dlopen_failure_at_compile_time_degrades(inputs):
    ref = _reference(inputs)
    # both the initial load and the force-rebuild load fail
    with faults.injecting("dlopen=fail*2"):
        kernel = compile_kernel(EINSUM, **SPEC, options=C_OPTS)
    assert kernel.backend == "python"
    assert kernel(**inputs).tobytes() == ref.tobytes()


def test_health_snapshot_shape():
    snap = health.snapshot()
    assert snap["degraded"] is False
    assert snap["ladder"] == ["c@omp", "c", "python"]
    assert set(snap["tiers"]) == {"c@omp", "c", "python"}


def test_health_dependency_c_failure_kills_omp_tier():
    health.mark("c", RuntimeError("boom"))
    assert not health.ok("c@omp")  # rides on the same compiled object
    assert health.active_ladder() == ["python"]
    assert health.first_error("c") == "RuntimeError: boom"


def test_health_python_tier_cannot_be_marked():
    with pytest.raises(ValueError):
        health.mark("python", RuntimeError("no floor below the floor"))


# ----------------------------------------------------------------------
# service + store under injection
# ----------------------------------------------------------------------
@needs_cc
def test_corrupt_store_entry_recompiles_and_counts_error(tmp_path, inputs):
    svc = KernelService(store=tmp_path)
    ref_kernel = svc.get_or_compile(EINSUM, **SPEC, options=C_OPTS)
    ref = ref_kernel(**inputs)

    svc2 = KernelService(store=tmp_path)
    with faults.injecting("store.get=corrupt*1"):
        kernel = svc2.get_or_compile(EINSUM, **SPEC, options=C_OPTS)
    assert kernel(**inputs).tobytes() == ref.tobytes()
    stats = svc2.stats()
    assert stats.disk_errors == 1
    assert stats.disk_misses == 0  # an existing-but-bad entry is not a miss
    assert stats.compiles == 1


def test_store_put_enospc_keeps_the_kernel(tmp_path, inputs):
    svc = KernelService(store=tmp_path)
    with faults.injecting("store.put=enospc*1"):
        kernel = svc.get_or_compile(EINSUM, **SPEC)
    # the compile survived; only persistence was lost
    ref = _reference(inputs)
    assert kernel(**inputs).tobytes() == ref.tobytes()
    stats = svc.stats()
    assert stats.disk_errors == 1
    assert stats.disk_entries == 0
    # the next service pays a fresh compile (nothing was persisted)
    svc2 = KernelService(store=tmp_path)
    svc2.get_or_compile(EINSUM, **SPEC)
    assert svc2.stats().compiles == 1


def test_store_partial_write_reads_back_as_clean_error(tmp_path):
    svc = KernelService(store=tmp_path)
    with faults.injecting("store.put=partial*1"):
        svc.get_or_compile(EINSUM, **SPEC)
    # a torn entry was published; a fresh service must absorb it
    svc2 = KernelService(store=tmp_path)
    kernel = svc2.get_or_compile(EINSUM, **SPEC)
    assert kernel is not None
    stats = svc2.stats()
    assert stats.disk_errors == 1 and stats.compiles == 1


@needs_cc
def test_truncated_so_injection_rebuilds_artifact(tmp_path, inputs):
    svc = KernelService(store=tmp_path)
    ref = svc.get_or_compile(EINSUM, **SPEC, options=C_OPTS)(**inputs)
    svc2 = KernelService(store=tmp_path)
    with faults.injecting("store.get=truncate-so*1"):
        kernel = svc2.get_or_compile(EINSUM, **SPEC, options=C_OPTS)
    # served from the entry (rebuilt artifact), not a cold compile
    assert svc2.stats().compiles == 0
    assert kernel(**inputs).tobytes() == ref.tobytes()


def test_cache_miss_injection_recovers_via_store(tmp_path):
    svc = KernelService(store=tmp_path)
    svc.get_or_compile(EINSUM, **SPEC)
    with faults.injecting("cache.get=miss*1"):
        kernel = svc.get_or_compile(EINSUM, **SPEC)
    assert kernel is not None
    stats = svc.stats()
    assert stats.compiles == 1  # re-served from disk, not recompiled
    assert stats.disk_hits == 1


def test_service_compile_failure_propagates_and_next_call_recovers(tmp_path):
    svc = KernelService(store=tmp_path)
    with faults.injecting("service.compile=fail*1"):
        with pytest.raises(FaultError):
            svc.get_or_compile(EINSUM, **SPEC)
    kernel = svc.get_or_compile(EINSUM, **SPEC)
    assert kernel is not None


def test_stats_reflect_health_and_store_none():
    svc = KernelService()
    stats = svc.stats()
    assert stats.degraded is False
    assert stats.health["ladder"][-1] == "python"
    assert "health" in stats.to_dict()


def test_empty_store_counters_not_zeroed_by_len(tmp_path):
    """DiskStore defines __len__; stats must use `is not None`, not
    truthiness, or an empty store's counters all read zero."""
    svc = KernelService(store=tmp_path)
    with pytest.raises(Exception):
        with faults.injecting("service.compile=fail*1"):
            svc.get_or_compile(EINSUM, **SPEC)
    assert svc.stats().disk_misses == 1  # the store *was* consulted


# ----------------------------------------------------------------------
# the acceptance scenario: hung cc + corrupt entry + dlopen failure in
# one session, every request answered bit-identically
# ----------------------------------------------------------------------
@needs_cc
def test_combined_fault_storm_stays_bit_identical(tmp_path, monkeypatch, inputs):
    monkeypatch.setattr(ctoolchain, "CC_BACKOFF", 0.01)
    ref = _reference(inputs)

    warm = KernelService(store=tmp_path)
    assert warm.get_or_compile(EINSUM, **SPEC, options=C_OPTS)(
        **inputs
    ).tobytes() == ref.tobytes()

    spec_text = (
        "store.get=corrupt*1,"  # first disk read is corrupt
        "cc=timeout*1,"  # first recompile cc run hangs (then retried)
        "dlopen=fail*1"  # first artifact load fails (then rebuilt/degraded)
    )
    svc = KernelService(store=tmp_path)
    with faults.injecting(spec_text) as plan:
        kernel = svc.get_or_compile(EINSUM, **SPEC, options=C_OPTS)
        got = kernel(**inputs)
        assert got.tobytes() == ref.tobytes()
        # every armed point actually fired
        assert plan.fired() == {"store.get": 1, "cc": 1, "dlopen": 1}
    stats = svc.stats()
    assert stats.disk_errors == 1
    assert stats.compiles == 1
    # and the counters survive a JSON round-trip (repro stats --json)
    import json

    doc = json.loads(json.dumps(stats.to_dict()))
    assert doc["disk"]["errors"] == 1

    # after the storm, a fresh request serves normally
    again = svc.get_or_compile(EINSUM, **SPEC, options=C_OPTS)
    assert again(**inputs).tobytes() == ref.tobytes()


# ----------------------------------------------------------------------
# doctor CLI
# ----------------------------------------------------------------------
def test_doctor_reports_healthy(capsys, tmp_path):
    from repro.cli import main

    rc = main(["doctor", "--dir", str(tmp_path)])
    out = capsys.readouterr().out
    assert "ladder" in out
    if HAVE_CC:
        assert rc == 0
        assert "toolchain" in out


def test_doctor_json_reports_degraded(capsys, tmp_path):
    from repro.cli import main

    health.mark("c", RuntimeError("synthetic failure"))
    rc = main(["doctor", "--json"])
    assert rc == 1
    import json

    doc = json.loads(capsys.readouterr().out)
    assert doc["healthy"] is False
    assert doc["ladder"] == ["python"]
    assert doc["health"]["tiers"]["c"]["failures"] == 1
