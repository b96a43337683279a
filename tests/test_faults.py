"""Fault injection and the hardened failure paths it exists to exercise.

Every test here arms a deterministic fault plan (:func:`repro.faults
.injecting`) against the real production code — the spec parser, the cc
timeout/retry loop, the permanent-failure memo, the dlopen and store
injection points, and the compile-time fallback to the interpreted
backend — and asserts the service keeps answering bit-identically.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import faults
from repro.codegen.backends import ctoolchain, get_backend
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
#: are privatized, so its one object is the OpenMP object
RELAX = "y[i] min= A[i, j] + x[j]"
C_OPTS = DEFAULT.but(backend="c", threads=1)


@pytest.fixture(autouse=True)
def _clean_failure_memo():
    """The toolchain failure memo is process-global and sticky by design;
    tests must not leak a failed build into each other."""
    ctoolchain.reset_failure_memo()
    yield
    ctoolchain.reset_failure_memo()


@pytest.fixture
def inputs():
    A = np.array([[2.0, 1.0, 0.0], [1.0, 3.0, 0.5], [0.0, 0.5, 4.0]])
    return {"A": A, "x": np.array([1.0, 2.0, 3.0])}


def _reference(inputs):
    return compile_kernel(EINSUM, **SPEC)(**inputs)


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
    monkeypatch.setattr(ctoolchain, "CC_RETRIES", 1)
    src = "int repro_fault_exhaust(void) { return 3; }\n"
    with faults.injecting("cc=timeout"):  # unbounded: every attempt hangs
        with pytest.raises(ctoolchain.ToolchainTimeout):
            ctoolchain.compile_shared(src, stem="exhaust", force=True)
    # a timeout is transient: NOT memoized as a permanent failure
    so = ctoolchain.compile_shared(src, stem="exhaust", force=True)
    import os

    assert os.path.exists(so)


@needs_cc
@pytest.mark.parametrize("retries", [0, 1, 2])
def test_cc_retries_bounds_the_attempts(monkeypatch, retries):
    """A build that times out every time runs cc exactly ``1 + CC_RETRIES``
    times, read when the build starts."""
    monkeypatch.setattr(ctoolchain, "CC_BACKOFF", 0.01)
    monkeypatch.setattr(ctoolchain, "CC_RETRIES", retries)
    src = "int repro_fault_attempts_%d(void) { return 5; }\n" % retries
    with faults.injecting("cc=timeout") as plan:
        with pytest.raises(ctoolchain.ToolchainTimeout):
            ctoolchain.compile_shared(src, stem="attempts%d" % retries, force=True)
    assert plan.fired() == {"cc": 1 + retries}


@needs_cc
def test_every_build_runs_cc_under_the_timeout_constant(monkeypatch):
    seen = []
    run_cc = ctoolchain._run_cc

    def recording(*args, timeout=None):
        seen.append(timeout)
        return run_cc(*args, timeout=timeout)

    monkeypatch.setattr(ctoolchain, "_run_cc", recording)
    monkeypatch.setattr(ctoolchain, "CC_TIMEOUT", 45.0)
    src = "int repro_fault_timeout_const(void) { return 6; }\n"
    assert ctoolchain.compile_shared(src, stem="timeoutconst", force=True)
    assert seen and set(seen) == {45.0}


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
def test_cc_timeout_kills_hung_compiler(tmp_path):
    """A genuinely hung cc (not injected) is killed by the subprocess
    timeout and surfaces as the transient ToolchainTimeout."""
    hung = tmp_path / "hungcc"
    hung.write_text("#!/bin/sh\nsleep 600\n")
    hung.chmod(0o755)
    with pytest.raises(ctoolchain.ToolchainTimeout, match="timed out"):
        ctoolchain._run_cc(str(hung), (), "x.c", "x.so", timeout=0.2)


# ----------------------------------------------------------------------
# compile-time fallback; nothing falls back at run time
# ----------------------------------------------------------------------
@needs_cc
def test_no_openmp_toolchain_serves_threaded_calls_serially(
    monkeypatch, tmp_path, inputs, no_openmp
):
    monkeypatch.setattr(ctoolchain, "_build_dir", str(tmp_path))
    ref = compile_kernel(RELAX, **SPEC)(**inputs)
    # a parallel source, but the toolchain has no OpenMP to build it with
    kernel = compile_kernel(RELAX, **SPEC, options=C_OPTS.but(threads=2))
    assert kernel.backend == "c"
    assert kernel.bound.executable.kind == "serial"
    assert kernel(**inputs).tobytes() == ref.tobytes()
    assert kernel.bound.resolve_run_threads(2) == 1


@needs_cc
def test_dlopen_failure_at_compile_time_degrades(inputs):
    from repro.obs import trace

    ref = _reference(inputs)
    # both the initial load and the force-rebuild load fail
    with faults.injecting("dlopen=fail*2"), trace.tracing() as rec:
        kernel = compile_kernel(EINSUM, **SPEC, options=C_OPTS)
    assert kernel.backend == "python"
    assert kernel(**inputs).tobytes() == ref.tobytes()
    (span,) = [e for e in rec.events if e.name == "backend:compile"]
    assert span.args["fallback"].startswith("OSError: injected: cannot dlopen")


@needs_cc
def test_compile_fallback_is_not_sticky(inputs):
    """A kernel that fell back leaves no process state behind: the next C
    request of the same source loads the object and serves it compiled."""
    with faults.injecting("dlopen=fail*2"):
        fallen = compile_kernel(EINSUM, **SPEC, options=C_OPTS)
    again = compile_kernel(EINSUM, **SPEC, options=C_OPTS)
    assert (fallen.backend, again.backend) == ("python", "c")
    assert again(**inputs).tobytes() == fallen(**inputs).tobytes()


def test_a_leftover_no_degrade_variable_is_not_a_knob(monkeypatch, capsys):
    """The variable that turned the runtime fallback off is read by
    nothing; ``repro doctor`` names it as a variable that is not a knob."""
    from repro.cli import main

    leftover = "REPRO_NO_DEGRADE"
    monkeypatch.setenv(leftover, "1")
    main(["doctor"])
    assert "%s is not a knob" % leftover in capsys.readouterr().out


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


def test_stats_without_a_store():
    stats = KernelService().stats()
    assert (stats.disk_entries, stats.disk_lookups) == (0, 0)
    assert stats.to_dict()["disk"]["entries"] == 0


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
    assert "toolchain" in out
    if HAVE_CC:
        assert rc == 0
