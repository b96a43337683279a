"""Execution plans (the repeat-execution fast path) and their thread
count.

The contracts under test:

* ``plan()`` repeat calls are **bitwise identical** to a fresh
  ``prepare`` + ``run`` on every backend, dtype and thread count;
* plans snapshot their argument set — replacing an input's payload does
  not silently flow in, and :meth:`ExecutionPlan.matches` detects it;
* an explicit thread count is taken as given.
"""

import sys

import numpy as np
import pytest

from repro import faults, obs
from repro.codegen.backends import get_backend
from repro.codegen.executor import ExecutionPlan, plan_identity
from repro.core.compiler import compile_kernel
from repro.core.config import DEFAULT
from repro.kernels.library import get_kernel
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from tests.conftest import make_symmetric_matrix
from tests.test_codegen_kernels import build_inputs

HAVE_CC = get_backend("c").is_available()

BACKENDS = ("python", "c") if HAVE_CC else ("python",)

needs_cc = pytest.mark.skipif(HAVE_CC is False, reason="no working C toolchain")


def _ssymv(backend, dtype="float64", threads=None):
    options = DEFAULT.but(backend=backend, dtype=dtype)
    if threads is not None:
        options = options.but(threads=threads)
    return get_kernel("ssymv").compile(options=options)


# ----------------------------------------------------------------------
# bitwise equivalence with the run path
# ----------------------------------------------------------------------
@pytest.mark.parametrize("dtype", ("float64", "float32"))
@pytest.mark.parametrize("backend", BACKENDS)
def test_plan_repeat_calls_match_fresh_runs(rng, backend, dtype):
    kernel = _ssymv(backend, dtype)
    A = make_symmetric_matrix(rng, 20, 0.4)
    x = rng.random(20)
    prepared, shape = kernel.prepare(A=A, x=x)
    expected = kernel.finalize(kernel.run(prepared, shape))

    plan = kernel.execution_plan(A=A, x=x)
    for _ in range(3):
        out = kernel.finalize(plan())
        assert out.dtype == np.dtype(dtype)
        assert np.array_equal(out, expected)


@needs_cc
def test_plan_threaded_calls_bit_identical(rng):
    kernel = _ssymv("c")
    A = make_symmetric_matrix(rng, 30, 0.5)
    x = rng.random(30)
    prepared, shape = kernel.prepare(A=A, x=x)
    expected = kernel.finalize(kernel.run(prepared, shape, threads=1))
    plan = kernel.execution_plan(A=A, x=x)
    for threads in (1, 3, 1, 3):
        assert np.array_equal(kernel.finalize(plan(threads=threads)), expected)


@pytest.mark.parametrize("backend", BACKENDS)
def test_bound_kernel_plan_entry_point(rng, backend):
    """The BoundKernel-level API: plan(tensors, output_shape)."""
    kernel = _ssymv(backend)
    A = make_symmetric_matrix(rng, 12, 0.5)
    x = rng.random(12)
    prepared, shape = kernel.prepare(A=A, x=x)
    expected = kernel.finalize(kernel.run(prepared, shape))
    plan = kernel.bound.plan({"A": A, "x": x}, shape)
    assert isinstance(plan, ExecutionPlan)
    assert np.array_equal(kernel.finalize(plan()), expected)
    assert np.array_equal(plan.finalized(), expected)


@pytest.mark.parametrize("backend", BACKENDS)
def test_plan_reuses_one_output_buffer(rng, backend, monkeypatch):
    kernel = _ssymv(backend)
    A = make_symmetric_matrix(rng, 10, 0.6)
    x = rng.random(10)
    prepares = []
    real_prepare = kernel.bound.prepare
    monkeypatch.setattr(
        kernel.bound,
        "prepare",
        lambda **tensors: prepares.append(sorted(tensors)) or real_prepare(**tensors),
    )
    plan = kernel.execution_plan(A=A, x=x)
    first = plan()
    second = plan()
    assert first is second  # same buffer, refilled per call
    assert first is plan.out
    assert prepares == [["A", "x"]]  # one prepare per held plan, none per call


@pytest.mark.parametrize("name, n", (("ssyrk", 160), ("ttm", 40)))
@pytest.mark.parametrize("backend", BACKENDS)
def test_finalized_keeps_one_result_and_one_shot_results_are_fresh(rng, backend, name, n):
    """A second ``finalized()`` returns the buffer the first one did and
    allocates less than one output while it runs (an identity layout and
    one the finish restores); two ``kernel(...)`` results never share
    memory, with each other or with a plan."""
    import tracemalloc

    spec = get_kernel(name)
    kernel = spec.compile(options=DEFAULT.but(backend=backend))
    inputs = build_inputs(rng, spec, n=n)
    plan = kernel.execution_plan(**inputs)
    first = plan.finalized()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        second = plan.finalized()
        grown = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert second is first
    assert grown < plan.out.nbytes
    results = [kernel(**inputs) for _ in range(2)]
    assert results[0].tobytes() == results[1].tobytes() == first.tobytes()
    for a, b in ((results[0], results[1]), (results[0], first), (results[1], plan.out)):
        assert not np.shares_memory(a, b)


@pytest.mark.parametrize("backend", BACKENDS)
def test_plan_with_caller_owned_output(rng, backend):
    kernel = _ssymv(backend)
    A = make_symmetric_matrix(rng, 10, 0.6)
    x = rng.random(10)
    prepared, shape = kernel.prepare(A=A, x=x)
    expected = kernel.finalize(kernel.run(prepared, shape))

    buf = np.empty(10, dtype=np.float64)
    plan = kernel.execution_plan(out=buf, A=A, x=x)
    out = plan()
    assert out is buf
    assert np.array_equal(kernel.finalize(out), expected)

    with pytest.raises(ValueError, match="shape"):
        kernel.execution_plan(out=np.empty(11), A=A, x=x)
    # the only way a caller's buffer reaches a backend: an undersized one
    # is refused here, before the C loops can write through it
    with pytest.raises(ValueError, match=r"shape \(8,\).*needs \(10,\)"):
        kernel.bound.plan_prepared(prepared, shape, out=np.zeros(8))
    # nor does a shape the prepared extents contradict size the buffer
    with pytest.raises(ValueError, match="contradicts"):
        kernel.bound.plan_prepared(prepared, (8,))
    with pytest.raises(ValueError, match="dtype|computes"):
        kernel.execution_plan(out=np.empty(10, dtype=np.float32), A=A, x=x)
    noncontig = np.empty((10, 2))[:, 0]
    with pytest.raises(ValueError, match="contiguous"):
        kernel.execution_plan(out=noncontig, A=A, x=x)


def test_plan_rejects_reserved_threads_argument():
    kernel = compile_kernel("y[i] += A[i, j] * x[j]", symmetric={"A": True})
    with pytest.raises(ValueError, match="reserved"):
        kernel.bound.plan_prepared({"threads": 2}, (3,))


# ----------------------------------------------------------------------
# what a call may cost with everything off, as frames (never timings)
# ----------------------------------------------------------------------
def _entered(fn):
    """``(module, function)`` of every Python frame *fn* enters."""
    frames = []

    def profiler(frame, event, arg):
        if event == "call":
            module = frame.f_globals.get("__name__", "")
            frames.append((module, frame.f_code.co_name))

    sys.setprofile(profiler)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return frames


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_plan_call_with_everything_off_enters_only_the_dispatch_frames(
    rng, backend
):
    """The off path is guarded by a count, not a timing floor: with
    tracing, metrics and faults off, ``plan()`` is
    ``ExecutionPlan.__call__`` plus the backend's bound callable (plus the
    interpreted ``kernel`` itself) and nothing from :mod:`repro.obs` or
    :mod:`repro.faults`.  The same plan built while tracing is on pays for
    its span — inside the bound callable's wrapper, not in the body."""
    kernel = _ssymv(backend)
    A = make_symmetric_matrix(rng, 16, 0.4)
    x = rng.random(16)
    previous, had_metrics = obs_trace.disable(), obs_metrics.disable()
    try:
        with faults.injecting(None):
            bare = kernel.execution_plan(A=A, x=x)
        with obs.tracing():
            traced = kernel.execution_plan(A=A, x=x)
            traced()
            traced_frames = _entered(traced)
    finally:
        obs_trace.set_recorder(previous)
        if had_metrics:
            obs_metrics.enable()
    dispatch = [("repro.codegen.executor", "__call__")]
    if kernel.backend == "c":
        dispatch += [("repro.codegen.backends.cexec", "call")]
    else:
        dispatch += [("repro.codegen.backends.python", "run"), ("", "kernel")]
    assert _entered(bare) == dispatch
    assert len(traced_frames) > len(dispatch)
    assert any(module == "repro.obs.trace" for module, _ in traced_frames)
    assert np.array_equal(bare(), traced())


# ----------------------------------------------------------------------
# staleness / invalidation
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", BACKENDS)
def test_plan_detects_replaced_payload(rng, backend):
    """Replacing an input tensor's payload must not silently replay the
    stale binding: matches() flips, and a rebuilt plan sees the data."""
    kernel = _ssymv(backend)
    A = make_symmetric_matrix(rng, 12, 0.5)
    x = rng.random(12)
    plan = kernel.execution_plan(A=A, x=x)
    stale = kernel.finalize(plan()).copy()
    assert plan.matches({"A": A, "x": x})

    x2 = rng.random(12)  # the payload is replaced with a new object
    assert not plan.matches({"A": A, "x": x2})
    fresh = kernel.execution_plan(A=A, x=x2)
    new_out = kernel.finalize(fresh())
    assert not np.array_equal(new_out, stale)
    prepared, shape = kernel.prepare(A=A, x=x2)
    assert np.array_equal(new_out, kernel.finalize(kernel.run(prepared, shape)))


def test_plan_identity_distinguishes_recast_tensors(rng):
    """dtype and shape ride in the identity, so a recast twin that lands
    on a recycled id can never alias a cached plan."""
    x = rng.random(8)
    ident = plan_identity({"x": x})
    assert ident != plan_identity({"x": x.astype(np.float32)})
    assert ident != plan_identity({"x": x.reshape(2, 4)})
    assert ident == plan_identity({"x": x})
    A = make_symmetric_matrix(rng, 6, 0.5)
    assert plan_identity({"A": A}) != plan_identity({"A": A.astype(np.float32)})


def test_plan_pins_its_source_objects(rng):
    """The plan holds strong references to the original arguments, so a
    same-dtype/same-shape replacement can never land on a recycled id()
    and falsely satisfy matches()."""
    import gc
    import weakref

    kernel = _ssymv("python")
    A = make_symmetric_matrix(rng, 8, 0.5)
    x = rng.random(8)
    plan = kernel.execution_plan(A=A, x=x)
    ref = weakref.ref(x)
    del x
    gc.collect()
    assert ref() is not None  # alive: the plan pinned it
    del plan
    gc.collect()
    assert ref() is None  # released with the plan


def test_plan_matches_is_conservative_without_identity(rng):
    kernel = _ssymv("python")
    A = make_symmetric_matrix(rng, 8, 0.5)
    x = rng.random(8)
    prepared, shape = kernel.prepare(A=A, x=x)
    plan = kernel.bound.plan_prepared(prepared, shape)  # no identity given
    assert not plan.matches({"A": A, "x": x})


# ----------------------------------------------------------------------
# the thread count
# ----------------------------------------------------------------------
def test_explicit_threads_always_win(rng, monkeypatch):
    """REPRO_THREADS=<int> (or threads=<int>) is taken as given."""
    kernel = _ssymv("python")
    A = make_symmetric_matrix(rng, 6, 0.5)
    x = rng.random(6)
    assert kernel.bound.resolve_run_threads(3) == 3
    assert kernel.bound.resolve_run_threads(None) == 1
    assert kernel.execution_plan(threads=3, A=A, x=x).threads == 3
    monkeypatch.setenv("REPRO_THREADS", "5")
    from repro.core.config import CompilerOptions

    assert CompilerOptions().threads == 5
