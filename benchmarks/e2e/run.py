"""Entry point: ``python3 benchmarks/e2e/run.py --workload W --seed N
--seconds S --trace 0|1`` (the form ``BENCHMARK.json`` names), or
``python -m benchmarks.e2e``.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer ones.  Without ``--workload``
every workload runs, each in its own fresh process.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from benchmarks.e2e import harness  # noqa: E402  (stdlib-only at import)

harness.enter_hermetic()  # before numpy and repro are first imported

#: a run that is still going after this many seconds gives up (and reaps its
#: children) instead of being killed from outside with a daemon left behind.
WATCHDOG_SECONDS = 170


def _parse(argv):
    parser = argparse.ArgumentParser(prog="benchmarks.e2e", description=__doc__)
    parser.add_argument("--workload", help="one of the workloads in BENCHMARK.json (default: all)")
    parser.add_argument("--seed", type=int, default=12)
    parser.add_argument("--seconds", type=float, default=None, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", nargs="?", const=1, type=int, default=0, choices=(0, 1))
    parser.add_argument("--out", default=None, help="directory for trace-<workload>.json")
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, counts / 50")
    parser.add_argument("--aa", type=int, metavar="K", help="run everything K times, print the A/A table")
    parser.add_argument("--provision", nargs="+", metavar="ARG", help=argparse.SUPPRESS)
    # the smoke test's hook: corrupt the output of the N-th timed operation
    parser.add_argument("--corrupt-op", type=int, default=None, metavar="N", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _raise_exit(signum, frame):
    raise SystemExit("benchmark interrupted by signal %d" % signum)


def run_workloads(args, store: Path, names, traces):
    """Run *names* x *traces* in this process; yields ``(name, trace,
    result)``.  The driver's form is one name and one trace per process; only
    ``--smoke`` runs several."""
    from benchmarks.e2e import layers
    from benchmarks.e2e.workloads import WORKLOADS, Context

    out = Path(args.out) if args.out else harness.WORK / "out"
    children = harness.Children()
    try:
        with harness.run_dir() as directory:
            ctx = Context(
                seed=args.seed, seconds=args.seconds, dir=directory, store=store,
                children=children, smoke=args.smoke,
            )
            for name in names:
                for trace in traces:
                    if trace:
                        yield name, trace, layers.traced_run(WORKLOADS[name], ctx, out)
                    else:
                        yield name, trace, end_to_end(WORKLOADS[name](ctx), args.corrupt_op)
    finally:
        children.close()


def corrupted(op, index: int):
    """*op* with one element of call *index*'s first output changed."""
    calls = iter(range(index + 1))

    def wrapped():
        outputs = op()
        if next(calls, None) == index:
            outputs = [o.copy() for o in outputs]
            outputs[0].flat[0] += 1.0
        return outputs

    return wrapped


def end_to_end(workload, corrupt_op=None) -> dict:
    """Set up (several times: ``setup_s`` is the median, plus the median
    ``import repro`` of fresh interpreters), check every kernel against its
    reference, run the closed loop, report the four gated numbers."""
    from benchmarks.e2e import sizes

    ctx = workload.ctx
    clock = [time.perf_counter()]  # phase boundaries, for the log line below
    workload.generate()
    clock.append(time.perf_counter())
    canary = workload.canary()
    repeats = ctx.repeats(sizes.SETUP_REPEATS)
    imports = [canary.normalised(harness.import_seconds) for _ in range(ctx.repeats(3))]
    setups = []

    def timed_setup() -> float:
        start = time.perf_counter()
        workload.setup()
        return time.perf_counter() - start

    for i in range(repeats):
        setups.append(canary.normalised(timed_setup))
        if i + 1 < repeats:
            workload.unsetup()
    wrong = workload.check()
    clock.append(time.perf_counter())
    warmup = sizes.WARMUP_OPS[workload.name]
    op = workload.op if corrupt_op is None else corrupted(workload.op, warmup + corrupt_op)
    loop = harness.closed_loop(
        op,
        count=ctx.count(workload.name),
        warmup=warmup,
        canary=canary,
        between=workload.between,
        budget_s=sizes.LOOP_BUDGET * ctx.seconds,
    )
    workload.close()
    clock.append(time.perf_counter())
    print("wall clock: op p50 %.2f ms, tail %.2f ms; canary p50 %.2f ms (reference %.1f); "
          "inputs %.1f s, set-ups and checks %.1f s, loop %.1f s" % (
              harness.median(loop.raw) * 1e3, harness.tail(loop.raw) * 1e3,
              harness.median(loop.canary_ms), canary.REF_MS,
              clock[1] - clock[0], clock[2] - clock[1], clock[3] - clock[2]), file=sys.stderr)
    attempted = loop.attempted + len(workload.kernels)
    failed = loop.failed + wrong
    metrics = {
        "op_p50_ms": {"value": harness.median(loop.latencies) * 1e3, "unit": "ms"},
        "setup_s": {"value": harness.median(imports) + harness.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": harness.peak_rss_mb() + workload.extra_rss_mb, "unit": "MiB"},
        # 1 - fail_share: a gated metric may not be 0 on every run
        "ok_share": {"value": (attempted - failed) / attempted, "unit": "share"},
    }
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def run_all(args) -> int:
    """Every workload of ``BENCHMARK.json``, each in a fresh process; one
    JSON line per workload."""
    status = 0
    for name in workload_names():
        code, result = run_one(name, args.seed, args.seconds, args.trace, args.out)
        print(json.dumps(dict(result, workload=name, trace=args.trace)), flush=True)
        status = status or code or int(not result["correct"])
    return status


def run_one(name: str, seed: int, seconds: float, trace: int, out=None):
    """One workload in a fresh process; returns its exit code and result."""
    cmd = [sys.executable, __file__, "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    cmd += ["--out", out] if out else []
    code, stdout = harness.run_child(cmd, timeout=WATCHDOG_SECONDS + 30.0)
    lines = stdout.strip().splitlines()
    return code, json.loads(lines[-1]) if lines and not code else {"correct": False, "failed": 0, "metrics": {}}


def workload_names():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [w["name"] for w in spec["workloads"]]


def main(argv=None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    os.chdir(ROOT)
    # before anything is started: every child below is reaped in a ``finally``
    signal.signal(signal.SIGTERM, _raise_exit)
    signal.signal(signal.SIGALRM, _raise_exit)
    if args.provision:
        harness.provision(args.provision[0], args.provision[1:])
        return 0
    if not (harness.SRC / "repro").is_dir():
        raise SystemExit("no program to measure: %s is missing" % (harness.SRC / "repro"))
    if args.seconds is None:
        args.seconds = float(json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    if args.aa:
        from benchmarks.e2e import aa

        return aa.main(args)
    if args.workload is None and not args.smoke:
        return run_all(args)
    from benchmarks.e2e import sizes
    from benchmarks.e2e.workloads import WORKLOADS

    if args.workload is not None and args.workload not in WORKLOADS:
        raise SystemExit("unknown workload %r (have: %s)" % (args.workload, ", ".join(WORKLOADS)))
    store = harness.provisioned_store(sizes.STEADY_KERNELS)  # the build: unclocked
    harness.pin_to_one_cpu()
    signal.alarm(WATCHDOG_SECONDS)
    names = workload_names() if args.workload is None else [args.workload]
    traces = [0, 1] if args.workload is None else [args.trace]  # --smoke alone: everything
    for name, trace, result in run_workloads(args, store, names, traces):
        if args.workload is None:
            result = dict(result, workload=name, trace=trace)
        print(json.dumps(result), flush=True)
    signal.alarm(0)
    return 0


if __name__ == "__main__":
    sys.exit(main())
