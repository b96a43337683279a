"""The traced pass: where an operation's time goes, layer by layer.

Three parts, all reported by every ``--trace 1`` run:

* the workload's loop, untraced, at the full count: the numbers that cannot
  be gated on this host (``op_tail_ms``, the raw ``wall.*``);
* **attribution** — the workload's own operations, run again with
  ``repro.obs.tracing()`` on and a benchmark-side span around each call into
  a layer.  A layer's self time is its spans minus their children; what no
  span covers is printed as ``unattributed_ms``, not hidden.
* **probes** — each layer's public functions timed alone on the benchmark's
  payloads (the same set on every workload, so a layer number means the same
  thing wherever it is read).

The layer -> end-to-end predictions are in README.md.
"""

from __future__ import annotations

import json
import math
import os
import time
from pathlib import Path
from typing import Dict, Tuple

import numpy as np

from benchmarks.e2e import harness, inputs, sizes
from benchmarks.e2e.workloads import ColdCompile, Context, DaemonRoundtrip, sparse_tensor

Metrics = Dict[str, Tuple[float, str]]

#: the layers an operation's time is split over (``share.<layer>``)
LAYERS = ("generated_code", "executor", "tensor", "service", "compiler", "cc", "dlopen", "serve")

#: ``repro.obs`` span-name prefixes -> layer (first match wins)
_OBS_LAYERS = (
    ("plan:execute", "generated_code"), ("kernel:run", "generated_code"),
    ("prepare", "executor"), ("plan:", "executor"), ("tune:", "executor"),
    ("service:", "service"), ("store:", "service"), ("rehydrate", "service"), ("batch:", "service"),
    ("cc", "cc"), ("dlopen", "dlopen"),
    # symmetrize, pass:*, rewrite, compile, lower, backend:*, render_c, cpass:*
    ("", "compiler"),
)


def layer_of(span_name: str) -> str:
    if span_name == "op":
        return "unattributed"
    if not span_name.startswith("obs:"):
        return span_name.split(":", 1)[0]  # benchmark spans are "<layer>:<what>"
    name = span_name[4:]
    return next(layer for prefix, layer in _OBS_LAYERS if name.startswith(prefix))


# ---------------------------------------------------------------------------
# attribution
# ---------------------------------------------------------------------------
def _daemon_seconds(workload) -> Dict[str, float]:
    """Server-side totals from the daemon's own histograms (it runs with
    ``REPRO_METRICS=1`` in the traced pass)."""
    hist = workload.client.stats()["stats"].get("metrics", {}).get("histograms", {})
    return {name: hist.get(name, {}).get("sum", 0.0) for name in ("plan.dispatch_seconds", "serve.request_seconds")}


def attribute(cls, ctx: Context) -> Tuple[Metrics, harness.Spans, int, int]:
    """Run the workload's loop untraced at the full count (the tail and the
    wall-clock numbers need the samples), then traced at a tenth of it."""
    from repro import obs

    name = cls.name
    warmup = sizes.WARMUP_OPS[name]

    plain = cls(ctx)
    plain.generate()
    plain.setup()
    wrong = plain.check()
    canary = plain.canary()
    base = harness.closed_loop(
        plain.op, ctx.count(name), warmup, canary, between=plain.between, budget_s=sizes.LOOP_BUDGET * ctx.seconds
    )
    plain.close()

    count = ctx.count(name, traced=True)
    spans = harness.Spans()
    ctx.spans = spans
    try:
        with obs.tracing() as recorder:
            traced = cls(ctx)
            if cls is DaemonRoundtrip:
                traced.metrics = True
            traced.generate()
            traced.setup()
            before = _daemon_seconds(traced) if cls is DaemonRoundtrip else {}
            loop = harness.closed_loop(traced.op, count, warmup, canary, spans=spans, between=traced.between)
            after = _daemon_seconds(traced) if cls is DaemonRoundtrip else {}
            traced.close()
    finally:
        ctx.spans = None
    spans.adopt(recorder.snapshot())

    timed_ops = set(range(loop.attempted))
    by_layer = {layer: 0.0 for layer in LAYERS + ("unattributed",)}
    for span_name, seconds in spans.self_times(timed_ops).items():
        by_layer[layer_of(span_name)] += seconds
    if cls is DaemonRoundtrip:
        # the client sees one opaque call; the daemon says how much of it
        # was generated code
        inside = after["plan.dispatch_seconds"] - before["plan.dispatch_seconds"]
        by_layer["generated_code"] += inside
        by_layer["serve"] -= inside
    total = sum(loop.raw)
    metrics: Metrics = {"share." + layer: (by_layer[layer] / total, "share") for layer in LAYERS}
    metrics["unattributed_ms"] = (by_layer["unattributed"] / loop.attempted * 1e3, "ms")
    # the tail, scaled by the canary like the gated median, and the wall clock
    # as the host ran it: neither repeats on this host, so neither is gated
    metrics["op_tail_ms"] = (harness.tail(base.latencies) * 1e3, "ms")
    metrics["wall.op_p50_ms"] = (harness.median(base.raw) * 1e3, "ms")
    metrics["wall.op_tail_ms"] = (harness.tail(base.raw) * 1e3, "ms")
    metrics["host.canary_ms"] = (harness.median(base.canary_ms + loop.canary_ms), "ms")
    metrics["trace.op_p50_ms"] = (harness.median(loop.raw) * 1e3, "ms")
    metrics["trace.overhead_ratio"] = (harness.median(loop.latencies) / harness.median(base.latencies), "ratio")
    attempted = base.attempted + loop.attempted + len(plain.kernels)
    failed = base.failed + loop.failed + wrong
    return metrics, spans, attempted, failed


# ---------------------------------------------------------------------------
# probes
# ---------------------------------------------------------------------------
def probe_kernels(ctx: Context, service) -> Tuple[Metrics, int]:
    """Generated code alone: SySTeC against naive on ``kernel_steady``'s
    inputs.  Returns the metrics and the number of kernels whose two
    variants disagreed."""
    arrays = ctx.inputs("kernel_steady", sizes.STEADY_SIZES)
    metrics: Metrics = {}
    tensors: Dict[tuple, object] = {}
    speedups, wrong = [], 0
    repeats = ctx.repeats(9)
    for k in sizes.STEADY_KERNELS:
        plans = {}
        for variant, naive in (("systec", False), ("naive", True)):
            key = (id(arrays[k]), naive)
            if key not in tensors:  # the naive kernels walk both triangles
                tensors[key] = sparse_tensor(k, arrays[k], full=naive)
            kernel = service.get_or_compile(**harness.compile_spec(k, naive=naive))
            plans[variant] = kernel.execution_plan(A=tensors[key], **inputs.dense_operands(arrays[k]))
        results = {v: np.array(p.finalized()) for v, p in plans.items()}
        wrong += not np.allclose(results["systec"], results["naive"], rtol=1e-9)
        samples = {"systec": [], "naive": []}
        for _ in range(repeats):  # interleaved: drift hits both variants alike
            for variant, plan in plans.items():
                samples[variant].append(harness.timed_ms(plan, repeats=1))
        ms = {v: harness.median(s) for v, s in samples.items()}
        speedups.append(ms["naive"] / ms["systec"])
        metrics["kernel.%s.systec_ms" % k] = (ms["systec"], "ms")
        metrics["kernel.%s.naive_ms" % k] = (ms["naive"], "ms")
        metrics["kernel.%s.speedup" % k] = (speedups[-1], "ratio")
        nnz = arrays[k]["coords"].shape[1]
        metrics["kernel.%s.mnnz_per_s" % k] = (nnz / ms["systec"] / 1e3, "Mnnz/s")
    metrics["kernel.speedup_geomean"] = (math.exp(sum(map(math.log, speedups)) / len(speedups)), "ratio")
    return metrics, wrong


def probe_executor_tensor(ctx: Context, service) -> Metrics:
    """``codegen.executor`` and ``tensor`` alone: the dispatch floor on an
    n=32 twin, and preparation taken apart on ``fresh_requests``' SSYMV."""
    from repro import Tensor
    from repro.tensor.fiber import FiberTensor
    from repro.tensor.symmetry_ops import pack_canonical, split_diagonal

    kernel = service.get_or_compile(**harness.compile_spec("ssymv"))
    reps = ctx.repeats(5)
    inner = 50 if ctx.smoke else 1000

    twin = ctx.inputs("twin", sizes.TWIN_SIZES)["ssymv"]
    args = dict(A=sparse_tensor("ssymv", twin), **inputs.dense_operands(twin))
    prepared, shape = kernel.prepare(**args)
    plan = kernel.execution_plan(**args)
    metrics: Metrics = {
        "executor.plan_call_us": (harness.timed_ms(plan, reps, inner) * 1e3, "us"),
        "executor.run_call_us": (harness.timed_ms(lambda: kernel.run(prepared, shape), reps, inner) * 1e3, "us"),
        "executor.bind_ms": (harness.timed_ms(lambda: kernel.bound.plan_prepared(prepared, shape), reps, 20), "ms"),
    }

    arrays = ctx.inputs("fresh_requests", {k: sizes.FRESH_SIZES[k] for k in sizes.FRESH_KERNELS})["ssymv"]
    shared = sparse_tensor("ssymv", arrays, full=True)
    dense = inputs.dense_operands(arrays)
    fresh = lambda: Tensor(shared.coo, shared.symmetric_modes)  # noqa: E731
    prepared, shape = kernel.prepare(A=fresh(), **dense)
    out = kernel.run(prepared, shape)
    prepare = harness.timed_ms(lambda: kernel.prepare(A=fresh(), **dense), reps)
    run = harness.timed_ms(lambda: kernel.run(prepared, shape), reps)
    finalize = harness.timed_ms(lambda: kernel.finalize(out), reps)
    metrics.update({
        "executor.prepare_ms": (prepare, "ms"),
        "executor.run_ms": (run, "ms"),
        "executor.finalize_ms": (finalize, "ms"),
        "executor.prepare_share": (prepare / (prepare + run + finalize), "share"),
    })

    parts = shared.nontrivial_parts
    canonical = pack_canonical(shared.coo, parts)
    strict, _ = split_diagonal(canonical, parts)
    view = kernel.lowered.sparse_views[0]
    permuted = strict.permute(view.mode_order)
    metrics.update({
        "tensor.pack_ms": (harness.timed_ms(lambda: pack_canonical(shared.coo, parts), reps), "ms"),
        "tensor.split_ms": (harness.timed_ms(lambda: split_diagonal(canonical, parts), reps), "ms"),
        "tensor.permute_ms": (harness.timed_ms(lambda: strict.permute(view.mode_order), reps, 20), "ms"),
        "tensor.fiber_ms": (harness.timed_ms(lambda: FiberTensor(permuted, view.levels), reps), "ms"),
    })
    return metrics


def probe_service(ctx: Context, service) -> Metrics:
    """``service`` alone: key, memory hit, store publish, rehydration."""
    from repro import DiskStore, KernelService
    from repro.service.keys import canonicalize

    spec = harness.compile_spec("ssymv")
    kernel = service.get_or_compile(**spec)
    key = canonicalize(**spec).key
    reps = ctx.repeats(5)
    inner = 20 if ctx.smoke else 200
    scratch = DiskStore(str(ctx.dir / "probe-store"))
    metrics: Metrics = {
        "keys.canonicalize_us": (harness.timed_ms(lambda: canonicalize(**spec), reps, inner) * 1e3, "us"),
        "cache.hit_us": (harness.timed_ms(lambda: service.get_or_compile(**spec), reps, inner) * 1e3, "us"),
        "store.put_ms": (harness.timed_ms(lambda: scratch.put(key, kernel), reps), "ms"),
        "store.rehydrate_ms": (
            harness.timed_ms(lambda: KernelService(store=str(ctx.store)).get_or_compile(**spec), reps), "ms"),
    }
    metrics["cache.hit_ratio"] = (service.stats().hit_rate, "ratio")
    return metrics


def probe_compiler(ctx: Context) -> Metrics:
    """The cold path alone, from the spans ``repro.obs`` already emits: one
    ``cold_compile`` operation, twice — sizes and counts must repeat."""
    from repro import obs

    workload = ColdCompile(ctx)
    workload.generate()

    def once() -> Tuple[Dict[str, float], Dict[str, int]]:
        workload.between()
        with obs.tracing() as recorder:
            start = time.perf_counter()
            workload.op()
            total = time.perf_counter() - start
        events = recorder.snapshot()

        def ms(prefix: str) -> float:
            return sum(e.duration_ns for e in events if e.name.startswith(prefix)) / 1e6

        kernels = list(workload.compiled.values())
        times = {
            "core.symmetrize_ms": ms("symmetrize"), "core.passes_ms": ms("pass:"),
            "lower.ms": ms("lower"), "render_c.ms": ms("render_c"),
            "cc.ms": ms("cc"), "dlopen.ms": ms("dlopen"),
            "cc.share": ms("cc") / (total * 1e3),
        }
        counts = {
            "core.plan_blocks": sum(len(k.plan.blocks) for k in kernels),
            "lower.source_bytes": sum(len(k.source) for k in kernels),
            "render_c.c_bytes": sum(len(k.backend_source) for k in kernels),
            "cpasses.applied": sum(e.name.startswith("cpass:") for e in events),
            "cc.so_bytes": sum(os.path.getsize(k.bound.executable.so_path) for k in kernels),
        }
        return times, counts

    _, first = once()
    times, counts = once()
    metrics: Metrics = {name: (value, "share" if name == "cc.share" else "ms") for name, value in times.items()}
    metrics.update({name: (value, "bytes" if name.endswith("bytes") else "count") for name, value in counts.items()})
    metrics["compiler.deterministic"] = (int(first == counts), "count")
    workload.close()
    return metrics


def probe_serve(ctx: Context) -> Metrics:
    """``serve`` alone: the codec on ``daemon_roundtrip``'s SSYMV payload, a
    cold and a warm daemon start, one request, the floor of a round trip."""
    from repro.serve import protocol

    workload = DaemonRoundtrip(ctx)
    workload.metrics = True
    workload.generate()
    request, tensors = workload.requests["ssymv"], workload.tensors["ssymv"]
    reps = ctx.repeats(7)
    encoded = protocol.encode_tensors(tensors)
    frame = protocol.encode_frame({"op": "execute", "spec": protocol.spec_from_request(request), "tensors": encoded})
    metrics: Metrics = {
        "protocol.encode_ms": (harness.timed_ms(lambda: protocol.encode_tensors(tensors), reps), "ms"),
        "protocol.decode_ms": (harness.timed_ms(lambda: protocol.decode_tensors(encoded), reps), "ms"),
        "protocol.frame_bytes": (len(frame), "bytes"),
    }

    empty = ctx.dir / "probe-empty-store"
    empty.mkdir()
    cold = ctx.children.spawn(ctx.fresh_dir("daemon"), empty, warm=False)
    cold.wait_ready()
    metrics["daemon.cold_start_s"] = (time.perf_counter() - cold.started, "s")
    ctx.children.stop(cold)

    workload.setup()  # spawn --warm over the provisioned store, first execute per kernel
    metrics["daemon.warm_restart_s"] = (time.perf_counter() - workload.daemon.started, "s")
    client = workload.client
    before = _daemon_seconds(workload)
    calls = ctx.repeats(9)
    metrics["client.call_ms"] = (harness.timed_ms(lambda: client.execute(request, tensors), calls), "ms")
    after = _daemon_seconds(workload)
    metrics["daemon.server_ms"] = (
        (after["serve.request_seconds"] - before["serve.request_seconds"]) / calls * 1e3, "ms")
    metrics["client.floor_ms"] = (harness.timed_ms(client.health, reps, 10), "ms")
    server = client.stats()["server"]
    metrics["daemon.rss_mb"] = (workload.daemon.rss_mb(), "MiB")
    metrics["daemon.shed"] = (server["shed"], "count")
    metrics["daemon.errors"] = (server["errors"], "count")
    metrics["daemon.plan_hits"] = (server["plan_pool"]["hits"], "count")
    workload.close()
    return metrics


# ---------------------------------------------------------------------------
# one traced run
# ---------------------------------------------------------------------------
def run_probes(ctx: Context) -> Tuple[Metrics, int, int]:
    """Every layer probe; returns ``(metrics, attempted, failed)``.  Like the
    inputs, measured once per run: the probes do not depend on the workload."""
    from repro import KernelService

    if ctx.probes is None:
        service = KernelService(store=str(ctx.store))
        metrics, disagreed = probe_kernels(ctx, service)
        metrics.update(probe_executor_tensor(ctx, service))
        metrics.update(probe_service(ctx, service))
        metrics.update(probe_compiler(ctx))
        metrics.update(probe_serve(ctx))
        ctx.probes = metrics, len(sizes.STEADY_KERNELS), disagreed
    return ctx.probes


def traced_run(cls, ctx: Context, out_dir: Path) -> dict:
    """Attribution for *cls* plus the probes; writes the trace file."""
    from repro.kernels.library import KERNELS

    metrics, spans, attempted, failed = attribute(cls, ctx)
    probe_metrics, probed, disagreed = run_probes(ctx)
    metrics.update(probe_metrics)
    attempted += probed
    failed += disagreed
    metrics["ops_attempted"] = (attempted, "count")
    metrics["ops_failed"] = (failed, "count")

    traced_p50 = metrics["trace.op_p50_ms"][0]
    report = {
        "workload": cls.name,
        "seed": ctx.seed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        "attribution_within_15_percent": metrics["unattributed_ms"][0] <= 0.15 * traced_p50,
        "paper_speedup": {k: KERNELS[k].expected_speedup for k in sizes.STEADY_KERNELS},
        "spans": spans.records,
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / ("trace-%s.json" % cls.name)).write_text(json.dumps(report))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": report["metrics"]}
