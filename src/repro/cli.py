"""Command-line interface — the artifact's ``run_SySTeC.jl`` equivalent.

::

    python -m repro compile "y[i] += A[i, j] * x[j]" --symmetric A \\
        --loop-order j,i            # print plan + generated kernel
    python -m repro kernels          # list the kernel library
    python -m repro bench fig06 --scale 0.02 --names saylr4,sherman5
    python -m repro table2           # print the matrix collection
    python -m repro serve-warmup --dir .repro-cache   # persist the library
    python -m repro cache --dir .repro-cache          # inspect the store
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional


def _cmd_compile(args: argparse.Namespace) -> int:
    from repro import obs
    from repro.codegen.backends import BackendError
    from repro.core.config import DEFAULT
    from repro.core.analysis import describe_cost
    from repro.core.printer import finch_syntax
    from repro.frontend.parser import parse_assignment
    from repro.service.keys import canonicalize

    symmetric = {name: True for name in args.symmetric}
    loop_order = tuple(args.loop_order.split(",")) if args.loop_order else None
    options = DEFAULT
    if args.backend is not None:
        options = options.but(backend=args.backend)
    if args.dtype is not None:
        options = options.but(dtype=args.dtype)
    assignment = parse_assignment(args.einsum)
    try:
        with obs.tracing() as recorder:
            kernel = canonicalize(
                assignment,
                symmetric=symmetric,
                loop_order=loop_order,
                options=options,
                naive=args.naive,
            ).compile()
    except BackendError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    if args.trace:
        print("=== trace ===")
        print(obs.format_tree(recorder))
        print()
    print("=== options ===")
    print(kernel.options.describe())
    print()
    print("=== plan ===")
    print(kernel.plan.describe())
    print()
    print("=== finch-style listing ===")
    print(finch_syntax(kernel.plan))
    print()
    print("=== cost model ===")
    print(describe_cost(kernel.plan))
    print()
    print("=== generated kernel (backend: %s) ===" % kernel.backend)
    print(kernel.source)
    if kernel.backend == "c":
        print("=== generated C ===")
        print(kernel.backend_source)
    return 0


def _cmd_kernels(args: argparse.Namespace) -> int:
    from repro.kernels.extensions import EXTENSIONS
    from repro.kernels.library import KERNELS

    print("evaluation kernels (Section 5.2):")
    for name, spec in sorted(KERNELS.items()):
        print("  %-12s %-14s %s" % (name, spec.paper_figure, spec.einsum))
    print("extension kernels:")
    for name, spec in sorted(EXTENSIONS.items()):
        print("  %-16s %s" % (name, spec.einsum))
    return 0


_FIGURES = {
    "fig06": "run_fig06_ssymv",
    "fig07": "run_fig07_bellmanford",
    "fig08": "run_fig08_syprd",
    "fig09": "run_fig09_ssyrk",
    "fig10": "run_fig10_ttm",
    "fig11": "run_fig11_mttkrp",
}


#: the figures whose drivers sweep Table 2 matrices (``--scale``/``--names``);
#: fig10 and fig11 sweep synthetic tensors and take neither.
_MATRIX_FIGURES = ("fig06", "fig07", "fig08", "fig09")


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.bench import figures
    from repro.bench.harness import format_table, summarize_speedups
    from repro.codegen.backends import BackendError
    from repro.data.matrices import table

    runner = getattr(figures, _FIGURES[args.figure])
    kwargs = {"backend": args.backend, "dtype": args.dtype}
    if args.threads is not None:
        kwargs["threads"] = args.threads
    if args.figure in _MATRIX_FIGURES:
        kwargs["scale"] = 0.02 if args.scale is None else args.scale
        if args.names is not None:
            kwargs["names"] = tuple(args.names.split(","))
            known = [info.name for info in table()]
            unknown = sorted(set(kwargs["names"]) - set(known))
            if unknown:
                args.error(
                    "unknown matrix name(s) %s; valid names: %s"
                    % (", ".join(unknown), ", ".join(known))
                )
    else:
        for flag in ("scale", "names"):
            if getattr(args, flag) is not None:
                args.error(
                    "--%s applies to %s only; %s sweeps synthetic tensors"
                    % (flag, "/".join(_MATRIX_FIGURES), args.figure)
                )
    try:
        results = runner(**kwargs)
    except BackendError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    print(format_table(results, title=args.figure))
    if results:
        print("geomean SySTeC speedup: %.2fx" % summarize_speedups(results))
    return 0


def _cmd_table2(args: argparse.Namespace) -> int:
    from repro.data.matrices import table

    print("%-10s %10s %12s  %s" % ("name", "dimension", "nonzeros", "profile"))
    for info in table():
        print(
            "%-10s %10d %12d  %s"
            % (info.name, info.dimension, info.nnz, info.profile)
        )
    return 0


def _cmd_backends(args: argparse.Namespace) -> int:
    from repro.codegen.backends import (
        BACKEND_NAMES,
        get_backend,
        resolve_backend_name,
    )
    from repro.codegen.backends.ctoolchain import probe
    from repro.codegen.passes import PIPELINE, run_pipeline
    from repro.core.config import DEFAULT, cpu_count, knob
    from repro.kernels.library import KERNELS

    for name in BACKEND_NAMES:
        backend = get_backend(name)
        status = "available" if backend.is_available() else "unavailable"
        print("%-8s %-12s %s" % (name, status, backend.describe()))
    print("%-8s %-12s resolves to %r on this machine" % (
        "auto", "-", resolve_backend_name("auto")))
    print()
    tc = probe()
    if tc is None:
        print("openmp: unavailable (no working compiler)")
    elif tc.openmp:
        print("openmp: available (%s)" % " ".join(tc.openmp_flags))
    else:
        print("openmp: unavailable (compiler lacks -fopenmp support)")
    print(
        "default threads: %d of %d cpus (REPRO_THREADS)"
        % (knob("REPRO_THREADS"), cpu_count())
    )
    print("process default (REPRO_BACKEND): %s" % knob("REPRO_BACKEND"))
    print()
    print("loop phases (every kernel runs all of them, in this order):")
    for phase in PIPELINE:
        print("  %-11s %s" % (phase.name, phase.describe()))
    print()
    print("OpenMP strategy per top-level nest:")
    for name, spec in sorted(KERNELS.items()):
        lowered = spec.compile(options=DEFAULT.but(backend="python")).lowered
        nests = [w.describe() for w in run_pipeline(lowered).work]
        print("  %-12s %s" % (name, "; ".join(nests) or "serial"))
    return 0


def _cmd_serve_warmup(args: argparse.Namespace) -> int:
    from repro.service import KernelService

    try:
        service = KernelService(capacity=args.capacity, store=args.dir)
    except NotADirectoryError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    names = tuple(args.kernels.split(",")) if args.kernels else None
    try:
        reports = service.warmup(names=names, include_extensions=args.extensions)
    except KeyError as exc:
        print("error: %s" % exc.args[0], file=sys.stderr)
        return 2
    print("warmed %d kernels%s:" % (len(reports), (" into %s" % args.dir) if args.dir else ""))
    for report in reports:
        print(
            "  %-16s %-8s %8.2f ms  %s"
            % (report.name, report.source, report.seconds * 1e3, report.key[:12])
        )
    print()
    print(service.stats().describe())
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the kernel-service daemon until drained (SIGTERM/SIGINT or a
    ``shutdown`` request)."""
    import asyncio

    from repro.serve.daemon import KernelServer
    from repro.service import KernelService

    try:
        service = KernelService(capacity=args.capacity, store=args.dir)
    except NotADirectoryError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    server = KernelServer(
        args.socket,
        service,
        queue_limit=args.queue,
        workers=args.workers,
        deadline=args.deadline,
        plan_pool_size=args.plans,
    )

    def ready() -> None:
        print(
            "serving on unix:%s (store: %s, queue %d, %d workers%s)"
            % (
                args.socket,
                args.dir or "memory-only",
                server.queue_limit,
                server.workers,
                ", warmed %d" % server.warmed if args.warm else "",
            ),
            flush=True,
        )

    try:
        asyncio.run(server.run(warm=args.warm, on_ready=ready))
    except RuntimeError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        pass
    print(
        "drained: %d requests, %d shed, %d errors"
        % (server.requests, server.shed, server.errors),
        flush=True,
    )
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    import json

    from repro.service import DiskStore

    try:
        store = DiskStore(args.dir)
    except NotADirectoryError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    if args.action == "gc":
        limit = args.max_bytes if args.max_bytes is not None else store.max_bytes
        if limit is None:
            print(
                "error: no size bound — pass --max-bytes or set "
                "$REPRO_STORE_MAX_BYTES",
                file=sys.stderr,
            )
            return 2
        before = store.size_bytes()
        removed, freed = store.gc(limit)
        doc = {
            "dir": str(args.dir),
            "max_bytes": limit,
            "before_bytes": before,
            "after_bytes": before - freed,
            "removed": removed,
            "freed_bytes": freed,
        }
        if args.json:
            print(json.dumps(doc, indent=1, sort_keys=True))
        else:
            print(
                "gc %s: removed %d entries, freed %d bytes (%d -> %d, bound %d)"
                % (args.dir, removed, freed, before, before - freed, limit)
            )
        return 0
    entries = store.entries()
    if args.json:
        doc = {
            "dir": str(args.dir),
            "count": len(entries),
            "entries": [
                {
                    "key": entry.key,
                    "einsum": entry.einsum,
                    "options": entry.options_line,
                    "naive": entry.naive,
                    "size_bytes": entry.size_bytes,
                }
                for entry in entries
            ],
        }
        if args.clear:
            doc["cleared"] = store.clear()
        print(json.dumps(doc, indent=1, sort_keys=True))
        return 0
    # entries() skips, and counts, each entry it cannot read: one another
    # version wrote, or a damaged one; --clear removes those too
    if not entries and not store.errors:
        print("cache %s is empty" % args.dir)
    else:
        print(
            "cache %s: %d kernels, %d unreadable"
            % (args.dir, len(entries), store.errors)
        )
    for entry in entries:
        print("  %s  %s" % (entry.key[:12], entry.einsum))
        tag = "naive " if entry.naive else ""
        print("    %s%s  (%d bytes)" % (tag, entry.options_line, entry.size_bytes))
    if args.clear:
        removed = store.clear()
        print("cleared %d entries" % removed)
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    import json

    from repro.service import KernelService

    if args.socket is not None:
        from repro.serve.client import RemoteError, ServiceClient

        client = ServiceClient(args.socket, timeout=2.0, retries=0)
        try:
            reply = client.stats()
        except (RemoteError, OSError) as exc:
            print("error: %s" % exc, file=sys.stderr)
            return 2
        finally:
            client.close()
        print(json.dumps(reply, indent=1, sort_keys=True))
        return 0
    try:
        service = KernelService(capacity=args.capacity, store=args.dir)
    except NotADirectoryError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    if args.warmup:
        service.warmup()
    stats = service.stats()
    if args.json:
        print(json.dumps(stats.to_dict(), indent=1, sort_keys=True))
    else:
        print(stats.describe())
    return 0


def _cmd_doctor(args: argparse.Namespace) -> int:
    """Probe toolchain / OpenMP / store / daemon and report the knobs the
    environment sets.  Exit 0 when every check is ok, else 1."""
    import json as _json

    from repro import faults
    from repro.codegen.backends import ctoolchain
    from repro.core.config import knobs_set, unknown_knobs

    report = {"checks": {}}

    tc = ctoolchain.probe()
    if tc is None:
        report["checks"]["toolchain"] = {
            "ok": False,
            "detail": "no working C compiler (set $REPRO_CC, or unset "
            "$REPRO_NO_CC); kernels run interpreted",
        }
    else:
        report["checks"]["toolchain"] = {"ok": True, "detail": tc.describe()}
        if tc.openmp:
            runs = "succeeded; kernels with a parallel nest run the omp object"
        else:
            runs = "failed; every kernel runs the serial object"
        report["checks"]["openmp"] = {
            "ok": tc.openmp,
            "detail": "-fopenmp probe %s" % runs,
        }

    if args.dir is not None:
        probe_path = None
        try:
            from repro.service.store import DiskStore

            store = DiskStore(args.dir)
            entries = sum(1 for _ in store.keys())
            probe_path = store.path / ".doctor-probe.tmp"
            probe_path.write_bytes(b"ok")
            probe_path.unlink()
            report["checks"]["store"] = {
                "ok": True,
                "detail": "%s: %d entries, writable" % (store.path, entries),
            }
        except OSError as exc:
            report["checks"]["store"] = {
                "ok": False,
                "detail": "%s: %s" % (args.dir, exc),
            }
            if probe_path is not None:
                try:
                    probe_path.unlink()
                except OSError:
                    pass

    socket_path = args.socket
    if socket_path is not None:
        from repro.serve.client import RemoteError, ServiceClient
        from repro.serve.protocol import PROTOCOL_VERSION

        # connecting compares protocol versions: a mismatch lands in the
        # except branch with both versions in the message
        client = ServiceClient(socket_path, timeout=2.0, retries=0)
        try:
            reply = client.health()
            report["checks"]["daemon"] = {
                "ok": True,
                "detail": "unix:%s %s (pid %s, protocol v%s = client v%d, "
                "up %.0fs)"
                % (
                    socket_path,
                    reply.get("status", "?"),
                    reply.get("pid", "?"),
                    reply.get("protocol", "?"),
                    PROTOCOL_VERSION,
                    reply.get("uptime_s", 0.0),
                ),
            }
        except (RemoteError, OSError) as exc:
            report["checks"]["daemon"] = {
                "ok": False,
                "detail": "unix:%s unreachable (%s)" % (socket_path, exc),
            }
        finally:
            client.close()

    if faults.enabled():
        report["faults"] = {"spec": faults.spec_text(), "fired": faults.fired()}
    # what the environment names and what it resolved to — a typo'd
    # value shows up here as its fallback, a typo'd name as unknown
    report["knobs"] = knobs_set()
    report["unknown_knobs"] = unknown_knobs()
    report["healthy"] = all(check["ok"] for check in report["checks"].values())

    if args.json:
        print(_json.dumps(report, indent=1, sort_keys=True))
    else:
        for name, check in sorted(report["checks"].items()):
            print("%-10s %s  %s" % (name, "ok" if check["ok"] else "FAIL", check["detail"]))
        if "faults" in report:
            print("%-10s %s" % ("faults", report["faults"]["spec"]))
        for name, value in report["knobs"].items():
            print("%-10s %s=%s" % ("knob", name, value))
        for name in report["unknown_knobs"]:
            print("%-10s %s is not a knob (removed or misspelt); ignored" % ("warning", name))
    return 0 if report["healthy"] else 1


def _synth_inputs(kernel, size: int):
    """Synthetic input tensors for *kernel*, honoring declared symmetry.

    Each input is dense random data in the kernel's element dtype; tensors
    with symmetric mode groups are symmetrized by taking the elementwise
    maximum over the orbit of axis permutations within each group (max is
    idempotent, so composing groups preserves earlier symmetrization).
    """
    from itertools import permutations

    import numpy as np

    rng = np.random.default_rng(0)
    dtype = np.dtype(kernel.options.dtype)
    assignment = kernel.plan.original
    symmetric_modes = kernel.plan.symmetric_modes
    tensors = {}
    for acc in assignment.accesses:
        name = acc.tensor
        if name in tensors:
            continue
        ndim = len(acc.indices)
        arr = rng.random((size,) * ndim)
        for part in symmetric_modes.get(name, ()):
            if len(part) < 2:
                continue
            orbit = arr
            for perm in permutations(part):
                axes = list(range(ndim))
                for mode, image in zip(part, perm):
                    axes[mode] = image
                orbit = np.maximum(orbit, np.transpose(arr, axes))
            arr = orbit
        tensors[name] = np.ascontiguousarray(arr, dtype=dtype)
    return tensors


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro import obs
    from repro.codegen.backends import BackendError
    from repro.core.config import DEFAULT
    from repro.kernels.extensions import EXTENSIONS
    from repro.kernels.library import KERNELS
    from repro.service import KernelService

    specs = dict(KERNELS)
    specs.update(EXTENSIONS)
    if args.einsum in specs:
        spec = specs[args.einsum]
        request = dict(
            symmetric=dict(spec.symmetric),
            loop_order=spec.loop_order,
            formats=dict(spec.formats),
        )
        einsum = spec.einsum
    else:
        request = dict(
            symmetric={name: True for name in args.symmetric},
            loop_order=(
                tuple(args.loop_order.split(",")) if args.loop_order else None
            ),
        )
        einsum = args.einsum
    options = DEFAULT
    if args.backend is not None:
        options = options.but(backend=args.backend)
    if args.dtype is not None:
        options = options.but(dtype=args.dtype)
    service = KernelService()
    try:
        with obs.tracing() as recorder:
            # cold: full compile pipeline; warm: in-memory cache hit
            kernel = service.get_or_compile(einsum, options=options, **request)
            service.get_or_compile(einsum, options=options, **request)
            tensors = _synth_inputs(kernel, args.size)
            plan = kernel.execution_plan(**tensors)
            for _ in range(max(1, args.calls)):
                plan()
    except BackendError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    spans = obs.write_chrome_trace(args.out, recorder)
    print(
        "wrote %d spans to %s (chrome://tracing or https://ui.perfetto.dev)"
        % (spans, args.out)
    )
    if args.tree:
        print()
        print(obs.format_tree(recorder))
    return 0


def _threads_arg(value: str):
    """argparse type for thread counts: a positive integer."""
    try:
        count = int(value)
        if count < 1:
            raise ValueError(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            "expected a positive integer, got %r" % value
        )
    return count


def _env_epilog() -> str:
    """The ``--help`` environment section, printed from the knob table."""
    import textwrap

    from repro.core.config import KNOBS

    lines = ["environment:"]
    for row in KNOBS.values():
        text = row.doc
        if row.choices:
            text += " [%s]" % " | ".join(row.choices)
        if row.kind != "flag" and row.default is not None:
            text += " (default %s)" % row.default
        name = row.name + ("=1" if row.kind == "flag" else "")
        lines += textwrap.wrap(
            text,
            width=79,
            initial_indent="  %-24s " % name,
            subsequent_indent=" " * 27,
        )
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    from repro.core.config import BACKEND_CHOICES, DTYPE_CHOICES

    parser = argparse.ArgumentParser(
        prog="repro",
        description="SySTeC symmetric sparse tensor compiler",
        epilog=_env_epilog(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compile", help="compile an einsum and show the result")
    p.add_argument("einsum")
    p.add_argument(
        "--symmetric",
        action="append",
        default=[],
        metavar="TENSOR",
        help="declare a fully symmetric tensor (repeatable)",
    )
    p.add_argument("--loop-order", default=None, help="comma-separated, outermost first")
    p.add_argument("--naive", action="store_true", help="build the naive baseline")
    p.add_argument(
        "--backend",
        choices=BACKEND_CHOICES,
        default=None,
        help="execution backend (default: $REPRO_BACKEND or python)",
    )
    p.add_argument(
        "--dtype",
        choices=DTYPE_CHOICES,
        default=None,
        help="element dtype (default: float64)",
    )
    p.add_argument(
        "--trace",
        action="store_true",
        help="print the compile pipeline's span tree before the listing",
    )
    p.set_defaults(fn=_cmd_compile)

    p = sub.add_parser("kernels", help="list the kernel library")
    p.set_defaults(fn=_cmd_kernels)

    p = sub.add_parser("bench", help="run one figure's experiment")
    p.add_argument("figure", choices=sorted(_FIGURES))
    p.add_argument(
        "--scale",
        type=float,
        default=None,
        help="Table 2 matrix scale, fig06-fig09 only (default: 0.02)",
    )
    p.add_argument(
        "--names",
        default=None,
        help="comma-separated Table 2 matrix names, fig06-fig09 only",
    )
    p.add_argument(
        "--backend",
        choices=BACKEND_CHOICES,
        default="python",
        help="execution backend both methods run on (default: python)",
    )
    p.add_argument(
        "--threads",
        default=None,
        type=_threads_arg,
        metavar="N",
        help="C-backend thread count both methods run with (default: 1)",
    )
    p.add_argument(
        "--dtype",
        choices=DTYPE_CHOICES,
        default="float64",
        help="element dtype both methods run in (default: float64)",
    )
    p.set_defaults(fn=_cmd_bench, error=p.error)

    p = sub.add_parser(
        "backends", help="show execution backends and toolchain status"
    )
    p.set_defaults(fn=_cmd_backends)

    p = sub.add_parser("table2", help="print the Table 2 matrix collection")
    p.set_defaults(fn=_cmd_table2)

    p = sub.add_parser(
        "serve-warmup",
        help="pre-compile the kernel library into a kernel-service cache",
    )
    p.add_argument(
        "--dir",
        default=None,
        help="disk-store directory (omit for a memory-only dry run)",
    )
    p.add_argument("--kernels", default=None, help="comma-separated subset")
    p.add_argument(
        "--extensions", action="store_true", help="include extension kernels"
    )
    p.add_argument("--capacity", type=int, default=128, help="LRU capacity")
    p.set_defaults(fn=_cmd_serve_warmup)

    p = sub.add_parser(
        "cache", help="inspect, clear, or garbage-collect an on-disk kernel cache"
    )
    p.add_argument(
        "action",
        nargs="?",
        choices=("list", "gc"),
        default="list",
        help="list entries (default) or evict LRU entries down to the bound",
    )
    p.add_argument("--dir", required=True, help="disk-store directory")
    p.add_argument(
        "--max-bytes",
        type=int,
        default=None,
        metavar="N",
        help="gc size bound in bytes (default: $REPRO_STORE_MAX_BYTES)",
    )
    p.add_argument(
        "--clear", action="store_true", help="remove every entry after listing"
    )
    p.add_argument(
        "--json", action="store_true", help="emit the listing as JSON"
    )
    p.set_defaults(fn=_cmd_cache)

    p = sub.add_parser(
        "serve",
        help="run the kernel-service daemon on a unix socket",
        description=(
            "Serve execute/stats/health/shutdown requests over a unix "
            "socket: one long-lived process owns the kernel cache, the disk "
            "store and a pool of warm execution plans.  Other processes "
            "share its compiles by opening the same --dir "
            "(KernelService(store=DIR)).  SIGTERM drains gracefully; a "
            "killed daemon's socket and lock are reclaimed on the next "
            "start."
        ),
    )
    p.add_argument("--socket", required=True, help="unix socket path to serve on")
    p.add_argument(
        "--dir",
        default=None,
        help="disk-store directory (omit for a memory-only daemon)",
    )
    p.add_argument("--capacity", type=int, default=128, help="LRU capacity")
    p.add_argument(
        "--queue",
        type=int,
        default=32,
        help="admission bound; excess requests shed with 'overloaded' "
        "(default 32)",
    )
    p.add_argument(
        "--workers",
        type=int,
        default=4,
        help="compile/execute worker threads (default 4)",
    )
    p.add_argument(
        "--deadline",
        type=float,
        default=30.0,
        help="per-request deadline seconds (default 30; 0 = none)",
    )
    p.add_argument(
        "--plans",
        type=int,
        default=32,
        help="warm execution-plan pool size (default 32; 0 disables pooling)",
    )
    p.add_argument(
        "--warm",
        action="store_true",
        help="rehydrate every disk-store entry into the LRU before serving",
    )
    p.set_defaults(fn=_cmd_serve)

    p = sub.add_parser(
        "trace",
        help="trace one kernel end to end and export Chrome trace JSON",
        description=(
            "Compile an einsum (or a named library kernel) cold, hit the "
            "service cache warm, then execute a reusable plan on synthetic "
            "inputs — all under the span recorder — and export the result "
            "as Chrome trace_event JSON (load in chrome://tracing or "
            "https://ui.perfetto.dev)."
        ),
    )
    p.add_argument("einsum", help="einsum string or library kernel name")
    p.add_argument(
        "--symmetric",
        action="append",
        default=[],
        metavar="TENSOR",
        help="declare a fully symmetric tensor (repeatable)",
    )
    p.add_argument("--loop-order", default=None, help="comma-separated, outermost first")
    p.add_argument(
        "--backend",
        choices=BACKEND_CHOICES,
        default=None,
        help="execution backend (default: $REPRO_BACKEND or python)",
    )
    p.add_argument(
        "--dtype",
        choices=DTYPE_CHOICES,
        default=None,
        help="element dtype (default: float64)",
    )
    p.add_argument(
        "--size", type=int, default=32, help="synthetic input extent per mode"
    )
    p.add_argument(
        "--calls", type=int, default=3, help="plan executions to record"
    )
    p.add_argument(
        "--out", default="trace.json", metavar="PATH", help="output JSON path"
    )
    p.add_argument(
        "--tree", action="store_true", help="also print the human span tree"
    )
    p.set_defaults(fn=_cmd_trace)

    p = sub.add_parser(
        "stats", help="show kernel-service statistics (optionally as JSON)"
    )
    p.add_argument(
        "--dir",
        default=None,
        help="disk-store directory to count entries in (omit for memory-only)",
    )
    p.add_argument(
        "--warmup",
        action="store_true",
        help="warm the kernel library first so the counters have content",
    )
    p.add_argument("--capacity", type=int, default=128, help="LRU capacity")
    p.add_argument(
        "--json",
        action="store_true",
        help="emit JSON (includes the metrics registry when REPRO_METRICS=1)",
    )
    p.add_argument(
        "--socket",
        default=None,
        help="print a running daemon's live stats reply instead (JSON: its "
        "service stats plus the `server` counters, bytes_in/bytes_out included)",
    )
    p.set_defaults(fn=_cmd_stats)

    p = sub.add_parser(
        "doctor",
        help="probe the toolchain, OpenMP, a store and a daemon; list the knobs set",
    )
    p.add_argument(
        "--dir",
        default=None,
        help="disk-store directory to check for readability/writability",
    )
    p.add_argument(
        "--socket",
        default=None,
        help="kernel-service daemon socket to probe for reachability",
    )
    p.add_argument("--json", action="store_true", help="emit JSON")
    p.set_defaults(fn=_cmd_doctor)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover - exercised via tests calling main
    sys.exit(main())
