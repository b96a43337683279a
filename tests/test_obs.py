"""The observability layer: spans, metrics, profiling, and their CLI.

Every test that needs tracing installs a *fresh* recorder via
``obs.tracing()`` (restoring whatever was active before), and every test
about the disabled state saves and restores the process-wide switches —
so this file stays correct both in a clean tier-1 run and under the CI
observability leg that exports ``REPRO_TRACE=1 REPRO_METRICS=1`` for the
whole process.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import obs
from repro.codegen.backends import get_backend
from repro.core.config import DEFAULT
from repro.kernels.library import get_kernel
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.obs.metrics import Histogram
from repro.service.engine import KernelService

EINSUM = "y[i] += A[i, j] * x[j]"


def _sym(n=8, seed=0):
    rng = np.random.default_rng(seed)
    A = rng.random((n, n))
    return np.triu(A) + np.triu(A, 1).T


@pytest.fixture
def metrics_on():
    """Metrics collection on for the test, restored afterwards."""
    previous = obs_metrics.enabled()
    obs_metrics.enable()
    yield obs_metrics.registry()
    if not previous:
        obs_metrics.disable()


def _counter(name: str) -> int:
    return obs_metrics.to_dict()["counters"].get(name, 0)


# ----------------------------------------------------------------------
# spans across the full compile -> cache-hit -> plan -> execute cycle
# ----------------------------------------------------------------------
def test_span_nesting_and_ordering_full_cycle():
    service = KernelService(capacity=8)
    A, x = _sym(), np.linspace(0.0, 1.0, 8)
    with obs.tracing() as rec:
        kernel = service.get_or_compile(EINSUM, symmetric={"A": True})
        again = service.get_or_compile(EINSUM, symmetric={"A": True})
        plan = kernel.execution_plan(A=A, x=x)
        plan()
        plan()
    assert again is kernel
    events = rec.snapshot()
    names = [e.name for e in events]

    # the cold path walks canonicalize -> lookup -> compile -> pipeline
    for expected in (
        "service:canonicalize",
        "service:lookup",
        "service:compile",
        "compile",
        "symmetrize",
        "pass:output_canonical",
        "lower",
        "backend:compile",
        "prepare",
        "plan:bind",
    ):
        assert expected in names, expected
    assert names.count("plan:execute") == 2
    assert names.count("service:lookup") == 2

    # completion order tracks execution order for pipeline siblings
    assert names.index("symmetrize") < names.index("pass:output_canonical")
    assert names.index("pass:output_canonical") < names.index("lower")
    assert names.index("lower") < names.index("backend:compile")

    # nesting depths: the pipeline sits inside compile, which sits
    # inside the service's compile span, inside the lookup
    by_name = {e.name: e for e in events}
    assert by_name["compile"].depth == by_name["service:compile"].depth + 1
    assert by_name["symmetrize"].depth == by_name["compile"].depth + 1
    assert by_name["lower"].depth == by_name["compile"].depth + 1
    assert by_name["service:compile"].depth == by_name["service:lookup"].depth + 1

    # the lookup spans record where each answer came from
    origins = [e.args.get("origin") for e in events if e.name == "service:lookup"]
    assert origins == ["compiled", "memory"]

    # plan spans carry the resolved thread count
    bind = by_name["plan:bind"]
    assert bind.args.get("threads") == plan.threads
    for e in events:
        if e.name == "plan:execute":
            assert e.args.get("threads") == plan.threads
        assert e.t1 >= e.t0


def test_tracing_scope_restores_previous_recorder():
    before = obs_trace.current()
    with obs.tracing() as rec:
        assert obs_trace.current() is rec
        with obs.tracing() as inner:
            assert obs_trace.current() is inner
        assert obs_trace.current() is rec
    assert obs_trace.current() is before


def test_recorder_caps_events_and_counts_drops():
    with obs.tracing(max_events=3) as rec:
        for n in range(5):
            with obs.span("s%d" % n):
                pass
    assert len(rec) == 3
    assert rec.dropped == 2
    assert "dropped" in obs.format_tree(rec)


# ----------------------------------------------------------------------
# Chrome trace_event export
# ----------------------------------------------------------------------
def test_chrome_trace_json_roundtrip(tmp_path):
    with obs.tracing() as rec:
        with obs.span("outer", label="x") as sp:
            sp.add(outcome="done")
            with obs.span("inner", n=3):
                pass
    doc = obs.chrome_trace(rec)
    meta, *spans = doc["traceEvents"]
    assert meta["ph"] == "M" and meta["args"]["name"] == "repro"
    assert [e["name"] for e in spans] == ["outer", "inner"]  # sorted by t0
    outer, inner = spans
    assert outer["ph"] == inner["ph"] == "X"
    assert outer["args"] == {"label": "x", "outcome": "done"}
    assert inner["args"] == {"n": 3}
    # the child lies within the parent on the timeline
    assert outer["ts"] <= inner["ts"]
    assert inner["ts"] + inner["dur"] <= outer["ts"] + outer["dur"] + 1e-9

    path = tmp_path / "trace.json"
    assert obs.write_chrome_trace(str(path), rec) == 2
    with open(path) as handle:
        loaded = json.load(handle)
    assert loaded == doc  # value-faithful through JSON


def test_chrome_trace_without_recorder_raises():
    previous = obs_trace.disable()
    try:
        with pytest.raises(RuntimeError):
            obs.chrome_trace(None)
    finally:
        obs_trace.set_recorder(previous)


# ----------------------------------------------------------------------
# metrics: bucket math and the stats merge
# ----------------------------------------------------------------------
def test_histogram_bucket_math():
    hist = Histogram(bounds=(1.0, 2.0, 4.0))
    for value in (0.5, 1.0, 3.0, 100.0):
        hist.observe(value)
    doc = hist.to_dict()
    # bounds are inclusive: 1.0 lands in the le=1.0 bucket
    assert [b["count"] for b in doc["buckets"]] == [2, 0, 1, 1]
    assert [b["le"] for b in doc["buckets"]] == [1.0, 2.0, 4.0, "+Inf"]
    assert doc["count"] == 4
    assert doc["sum"] == pytest.approx(104.5)
    assert doc["min"] == 0.5 and doc["max"] == 100.0
    assert doc["mean"] == pytest.approx(104.5 / 4)


def test_histogram_rejects_bad_bounds():
    with pytest.raises(ValueError):
        Histogram(bounds=())
    with pytest.raises(ValueError):
        Histogram(bounds=(2.0, 1.0))


def test_service_counters_and_stats_merge(metrics_on):
    requests0 = _counter("service.requests")
    compiled0 = _counter("service.origin.compiled")
    memory0 = _counter("service.origin.memory")
    service = KernelService(capacity=8)
    service.get_or_compile(EINSUM, symmetric={"A": True})
    service.get_or_compile(EINSUM, symmetric={"A": True})
    assert _counter("service.requests") - requests0 == 2
    assert _counter("service.origin.compiled") - compiled0 == 1
    assert _counter("service.origin.memory") - memory0 == 1
    hist = obs_metrics.to_dict()["histograms"]["service.compile_seconds"]
    assert hist["count"] >= 1

    doc = service.stats().to_dict()
    assert doc["memory"]["hits"] == 1
    assert doc["memory"]["misses"] == 1
    assert doc["memory"]["hit_rate"] == pytest.approx(0.5)
    assert doc["compiles"] == 1
    assert doc["metrics"]["counters"]["service.requests"] >= 2


def test_plan_dispatch_histogram(metrics_on):
    kernel = get_kernel("ssymv").compile()
    A, x = _sym(16, seed=1), np.linspace(0.0, 1.0, 16)
    plan = kernel.execution_plan(A=A, x=x)  # built with metrics on
    count0 = obs_metrics.to_dict()["histograms"].get(
        "plan.dispatch_seconds", {"count": 0}
    )["count"]
    plan()
    plan()
    hist = obs_metrics.to_dict()["histograms"]["plan.dispatch_seconds"]
    assert hist["count"] - count0 == 2
    assert sum(b["count"] for b in hist["buckets"]) == hist["count"]
    # a one-shot request is a plan called once: it is in the histogram too
    for _ in range(3):
        kernel(A=A, x=x)
    hist = obs_metrics.to_dict()["histograms"]["plan.dispatch_seconds"]
    assert hist["count"] - count0 == 5


def test_stats_hit_rates_division_safe():
    stats = KernelService(capacity=2).stats()
    assert stats.hit_rate == 0.0
    assert stats.disk_hit_rate == 0.0
    doc = stats.to_dict()
    assert doc["memory"]["hit_rate"] == 0.0
    assert doc["disk"]["hit_rate"] == 0.0


# ----------------------------------------------------------------------
# everything is a no-op while disabled
# ----------------------------------------------------------------------
def test_noop_when_disabled():
    previous_rec = obs_trace.disable()
    previous_metrics = obs_metrics.disable()
    try:
        # one shared null span, whatever the name or args
        null = obs_trace.span("a")
        assert obs_trace.span("b", key="value") is null
        with null as sp:
            sp.add(anything=1)  # swallowed
        assert not obs_trace.enabled()

        # a full instrumented cycle records nothing and still works
        kernel = get_kernel("ssymv").compile()
        A, x = _sym(16, seed=2), np.linspace(0.0, 1.0, 16)
        plan = kernel.execution_plan(A=A, x=x)
        assert plan._observed is False
        out = plan().copy()
        assert np.allclose(kernel.finalize(out), kernel(A=A, x=x))
        assert obs_trace.current() is None

        counters0 = obs_metrics.to_dict()["counters"]
        obs_metrics.inc("should.not.appear")
        obs_metrics.observe("should.not.appear.s", 1.0)
        assert obs_metrics.to_dict()["counters"] == counters0
    finally:
        obs_trace.set_recorder(previous_rec)
        if previous_metrics:
            obs_metrics.enable()


def _full_payload(n=16, seed=5, shuffled=False):
    """Both triangles of a symmetric matrix as a user-built COO."""
    from repro import COO

    coo = COO.from_dense(_sym(n, seed))
    if shuffled:
        pick = np.random.default_rng(seed).permutation(coo.nnz)
        coo = COO(coo.coords[:, pick], coo.vals[pick], coo.shape, sum_duplicates=False)
    return coo


def test_prepare_with_tracing_off_touches_no_recorder(monkeypatch):
    from repro import Tensor

    def touched(*args, **kwargs):
        raise AssertionError("observability touched while off")

    kernel = get_kernel("ssymv").compile()
    previous_rec = obs_trace.disable()
    previous_metrics = obs_metrics.disable()
    monkeypatch.setattr(obs_trace, "_Span", touched)
    monkeypatch.setattr(obs_trace.TraceRecorder, "record", touched)
    monkeypatch.setattr(obs_metrics.MetricsRegistry, "inc", touched)
    try:
        for shuffled in (False, True):
            A = Tensor(_full_payload(shuffled=shuffled), ((0, 1),))
            kernel.prepare(A=A, x=np.linspace(0.0, 1.0, 16))
    finally:
        obs_trace.set_recorder(previous_rec)
        if previous_metrics:
            obs_metrics.enable()


def test_daemon_round_trip_with_metrics_off_touches_no_registry(monkeypatch, tmp_path):
    """``serve.bytes_in`` / ``serve.bytes_out`` sit on every frame: off,
    they cost the module-global check and nothing else — while the
    daemon's own ``server`` integers keep counting."""
    from repro.serve.client import ServiceClient
    from repro.service.keys import canonicalize
    from test_serve_daemon import SYMV, running_daemon

    def touched(*args, **kwargs):
        raise AssertionError("metrics registry touched while off")

    request = canonicalize(**SYMV)
    tensors = {"A": _sym(16, seed=3), "x": np.linspace(0.0, 1.0, 16)}
    previous_metrics = obs_metrics.disable()
    monkeypatch.setattr(obs_metrics.MetricsRegistry, "inc", touched)
    monkeypatch.setattr(obs_metrics.MetricsRegistry, "observe", touched)
    try:
        with running_daemon(tmp_path) as (server, sock):
            client = ServiceClient(sock)
            result, reply = client.execute(request, tensors)
            counted = client.stats()["server"]
            client.close()
    finally:
        if previous_metrics:
            obs_metrics.enable()
    assert reply["ok"] and np.allclose(result, tensors["A"] @ tensors["x"])
    assert server.errors == 0
    assert counted["bytes_in"] > tensors["A"].nbytes and counted["bytes_out"] > 0


def test_daemon_frame_bytes_feed_the_metrics_counters(metrics_on, tmp_path):
    from repro.serve.client import ServiceClient
    from test_serve_daemon import running_daemon

    before = [_counter("serve.bytes_in"), _counter("serve.bytes_out")]
    with running_daemon(tmp_path) as (server, sock):
        client = ServiceClient(sock)
        client.health()
        client.close()
    assert _counter("serve.bytes_in") - before[0] == server.bytes_in > 0
    assert _counter("serve.bytes_out") - before[1] == server.bytes_out > 0


def test_prepare_span_and_counters_report_sort_outcomes(metrics_on):
    from repro import COO, Tensor
    from repro.tensor.fiber import FiberTensor

    kernel = get_kernel("ssymv").compile()
    x = np.linspace(0.0, 1.0, 16)
    views = len(kernel.lowered.sparse_views)
    names = ("tensor.sort.skipped", "tensor.sort.linear", "tensor.sort.lexsort_fallback")

    def prepare(coo):
        before = [_counter(name) for name in names]
        with obs.tracing() as rec:
            kernel.prepare(A=Tensor(coo, ((0, 1),)), x=x)
        (event,) = [e for e in rec.snapshot() if e.name == "prepare"]
        return event.args, [_counter(name) - b for name, b in zip(names, before)]

    args, (skipped, linear, fallback) = prepare(_full_payload())
    assert (args["views"], args["sorted"], args["sorts"]) == (views, views, 0)
    assert (linear, fallback) == (0, 0) and skipped >= views

    args, (skipped, linear, fallback) = prepare(_full_payload(shuffled=True))
    assert args["views"] == views == args["sorted"] + args["sorts"]
    assert args["sorts"] == linear >= 1 and fallback == 0

    # a shape too large for one int64 key takes (and counts) the lexsort route
    before = _counter(names[2])
    huge = COO(np.array([[5, 1], [0, 7]]), np.ones(2), (2**41, 2**41), sum_duplicates=False)
    assert not FiberTensor(huge, ("sparse", "sparse")).presorted
    assert _counter(names[2]) == before + 1


def test_plans_sample_observability_at_build_time():
    kernel = get_kernel("ssymv").compile()
    A, x = _sym(16, seed=3), np.linspace(0.0, 1.0, 16)
    with obs.tracing() as rec:
        observed_plan = kernel.execution_plan(A=A, x=x)
        assert observed_plan._observed is True
    # a plan built while observability was off stays on the bare path
    # even if someone else's recorder appears later
    previous = obs_trace.disable()
    previous_metrics = obs_metrics.disable()
    try:
        bare_plan = kernel.execution_plan(A=A, x=x)
    finally:
        obs_trace.set_recorder(previous)
        if previous_metrics:
            obs_metrics.enable()
    assert bare_plan._observed is False
    with obs.tracing() as rec:
        bare_plan()
        assert len(rec) == 0
        observed_plan()
        assert "plan:execute" in [e.name for e in rec.snapshot()]


# ----------------------------------------------------------------------
# kernel profiling: an instrumented twin of a default-built kernel
# ----------------------------------------------------------------------
def test_profile_kernel_reports_per_nest():
    if not get_backend("c").is_available():
        pytest.skip("no working C toolchain")
    from repro.codegen.backends.c import render_c_full
    from repro.codegen.backends.cexec import build

    kernel = get_kernel("ssymv").compile(options=DEFAULT.but(backend="c"))
    executable = kernel.bound.executable
    source, so_path = executable.source, executable.so_path
    assert "repro_profile_read" not in source
    assert executable.nest_profile() is None  # no symbols in production

    A, x = _sym(32, seed=4), np.linspace(0.0, 1.0, 32)
    reports = obs.profile_kernel(kernel, {"A": A, "x": x}, repeats=4)
    assert len(reports) == len(executable.strategies) >= 1
    assert sum(r.share for r in reports) == pytest.approx(1.0)
    for report in reports:
        assert report.seconds >= 0.0
        assert report.per_call == pytest.approx(report.seconds / 4)
    text = obs.profile.format_report(reports)
    assert "nest 0" in text
    # the kernel's own object is untouched
    assert kernel.bound.executable is executable
    assert (executable.source, executable.so_path) == (source, so_path)

    # the instrumented object computes, bit for bit, what the kernel does
    instrumented = build(
        kernel.lowered, render_c_full(kernel.lowered, None, profile=True)
    )
    assert "repro_profile_read" in instrumented.source
    prepared, shape = kernel.prepare(A=A, x=x)
    out = kernel.bound.make_output_buffer(shape)
    instrumented.bind(out, prepared)(1)
    assert np.array_equal(kernel.run(prepared, shape), out)


def test_profiling_needs_a_c_toolchain(monkeypatch):
    from repro.codegen.backends import ctoolchain
    from repro.codegen.backends.base import BackendUnavailableError

    kernel = get_kernel("ssymv").compile()  # python backend
    monkeypatch.setenv("REPRO_NO_CC", "1")
    ctoolchain.reset_probe_cache()
    try:
        with pytest.raises(BackendUnavailableError, match="C compiler"):
            obs.profile_kernel(kernel, {"A": _sym(), "x": np.ones(8)})
    finally:
        monkeypatch.delenv("REPRO_NO_CC")
        ctoolchain.reset_probe_cache()


# ----------------------------------------------------------------------
# CLI: repro trace / stats / cache --json / compile --trace
# ----------------------------------------------------------------------
def test_cli_trace_covers_cold_warm_and_execution(tmp_path, capsys):
    from repro.cli import main

    out = tmp_path / "trace.json"
    rc = main(
        ["trace", "ssymv", "--size", "8", "--calls", "2",
         "--out", str(out), "--tree"]
    )
    assert rc == 0
    with open(out) as handle:
        doc = json.load(handle)
    spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    names = {e["name"] for e in spans}
    # compile passes, service cache lookups, plan execution — all there
    assert "compile" in names
    assert any(name.startswith("pass:") for name in names)
    assert "service:lookup" in names
    assert "plan:bind" in names and "plan:execute" in names
    origins = {
        e["args"]["origin"] for e in spans if e["name"] == "service:lookup"
    }
    assert {"compiled", "memory"} <= origins  # cold then warm
    assert sum(1 for e in spans if e["name"] == "plan:execute") == 2
    text = capsys.readouterr().out
    assert str(out) in text
    assert "service:lookup" in text  # the --tree dump


def test_cli_stats_json(tmp_path, capsys):
    from repro.cli import main

    rc = main(["stats", "--dir", str(tmp_path / "cache"), "--json"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["compiles"] == 0
    assert doc["memory"]["hit_rate"] == 0.0
    assert doc["disk"]["entries"] == 0


def test_cli_cache_json(tmp_path, capsys):
    from repro.cli import main

    cache_dir = tmp_path / "cache"
    service = KernelService(capacity=4, store=cache_dir)
    service.get_or_compile(EINSUM, symmetric={"A": True})
    rc = main(["cache", "--dir", str(cache_dir), "--json"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["count"] == 1
    (entry,) = doc["entries"]
    assert set(entry) >= {"key", "einsum", "options", "naive", "size_bytes"}
    assert entry["einsum"].startswith("y[i]")


def test_cli_compile_trace_prints_tree(capsys):
    from repro.cli import main

    rc = main(["compile", EINSUM, "--symmetric", "A", "--trace"])
    assert rc == 0
    text = capsys.readouterr().out
    assert "=== trace ===" in text
    assert "compile" in text and "lower" in text
    assert text.index("=== trace ===") < text.index("=== options ===")


def test_cli_help_documents_env_vars(capsys):
    from repro.cli import main

    with pytest.raises(SystemExit) as excinfo:
        main(["--help"])
    assert excinfo.value.code == 0
    text = capsys.readouterr().out
    for var in ("REPRO_BACKEND", "REPRO_THREADS", "REPRO_TRACE",
                "REPRO_METRICS"):
        assert var in text, var
