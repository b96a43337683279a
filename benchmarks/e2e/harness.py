"""Measurement plumbing: hermetic environment, work directories, the
provisioned kernel store, the closed loop, spans, and daemon ownership.

Nothing here knows a workload; ``workloads.py`` and ``layers.py`` build on it.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
#: everything a run writes lands under here (relative to ROOT, which the
#: entry point makes the working directory: unix socket paths stay short).
WORK = Path(".bench_build") / "e2e"


class ChildSurvived(RuntimeError):
    """A process this benchmark started outlived its reaping."""


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------
def enter_hermetic() -> None:
    """Scrub every ``REPRO_*`` knob (so neither ``TUNED.json`` nor a user
    cache is consulted) and pin the BLAS/OpenMP pools to one thread.  Must
    run before numpy is imported."""
    for name in [n for n in os.environ if n.startswith("REPRO_")]:
        del os.environ[name]
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[name] = "1"
    os.environ["PYTHONPATH"] = str(SRC)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def pin_to_one_cpu() -> None:
    """Pin this process (and the children it will start) to one CPU.

    On this host an idle vCPU halts, and waking it costs a trip through the
    hypervisor whose length depends on the neighbours: ``daemon_roundtrip``
    (two processes passing a socket back and forth) moved between 180 and
    290 ms from run to run across two CPUs and between 157 and 175 ms on one.
    A closed loop has one thing runnable at a time anyway."""
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[-1]})  # the last: CPU 0 takes the interrupts


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        pass  # alive, someone else's
    return True


def stragglers(marker: str) -> List[int]:
    """Live processes whose command line names *marker*, a run directory: the
    daemon's socket and every ``cc`` output of a run live in one."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit() or int(entry) == os.getpid():
            continue
        try:
            with open("/proc/%s/cmdline" % entry, "rb") as handle:
                if marker.encode("utf-8") in handle.read():
                    found.append(int(entry))
        except OSError:
            pass  # gone between listdir and open
    return found


@contextlib.contextmanager
def run_dir():
    """A fresh directory for this run's C cache, stores, socket and every
    ``tempfile`` the program makes; removed on exit.  What runs that were
    killed outright left behind is swept first: their directories, and any
    daemon still serving from one."""
    WORK.mkdir(parents=True, exist_ok=True)
    for stale in WORK.glob("run-*"):
        pid = stale.name.split("-")[1]
        if pid.isdigit() and not _pid_alive(int(pid)):
            for orphan in stragglers(stale.name):
                os.kill(orphan, signal.SIGKILL)
            shutil.rmtree(stale, ignore_errors=True)
    path = Path(tempfile.mkdtemp(prefix="run-%d-" % os.getpid(), dir=WORK))
    os.environ["TMPDIR"] = str(path.resolve())
    tempfile.tempdir = None  # re-read TMPDIR
    os.environ["REPRO_C_CACHE"] = str(path / "cc")
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


# ---------------------------------------------------------------------------
# the provisioned store
# ---------------------------------------------------------------------------
def source_digest() -> str:
    """Content hash of ``src/``: a store built from other sources is stale."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode("utf-8"))
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def compile_spec(name: str, naive: bool = False) -> dict:
    """``get_or_compile`` keyword arguments for a library kernel on the load
    model's configuration: C backend, float64, one thread, default passes."""
    from repro import DEFAULT
    from repro.kernels.library import KERNELS

    spec = KERNELS[name]
    return {
        "einsum": spec.einsum,
        "symmetric": dict(spec.symmetric),
        "loop_order": spec.loop_order,
        "formats": dict(spec.formats),
        "options": DEFAULT.but(backend="c", threads=1),
        "naive": naive,
    }


def provision(store: str, variants: Sequence[str]) -> None:
    """Cold-compile ``name`` / ``name:naive`` variants into *store* (run in a
    child process, so the measuring process never carries a compiler's
    footprint it did not ask for)."""
    from repro import KernelService

    service = KernelService(store=store)
    for variant in variants:
        name, _, naive = variant.partition(":")
        service.get_or_compile(**compile_spec(name, naive=bool(naive)))


def provisioned_store(kernels: Sequence[str]) -> Path:
    """The store of every benchmark kernel (SySTeC and naive), compiled once
    per checkout and source state.  Cold ``cc`` happens here, outside every
    clock: it is what ``cold_compile`` measures."""
    store = WORK / ("store-" + source_digest())
    if (store / "COMPLETE").exists():
        return store
    WORK.mkdir(parents=True, exist_ok=True)
    for old in WORK.glob("store-*"):  # other sources', or a killed provisioning's
        shutil.rmtree(old, ignore_errors=True)
    build = Path(tempfile.mkdtemp(prefix="store-build-", dir=WORK))
    halves = [list(kernels), ["%s:naive" % k for k in kernels]]
    script = str(Path(__file__).with_name("run.py"))
    children: List[subprocess.Popen] = []
    try:
        for half in halves:  # two compilers at once: one per CPU of the host
            children.append(subprocess.Popen(
                [sys.executable, script, "--provision", str(build)] + half,
                stdout=sys.stderr, start_new_session=True,
            ))
        codes = [child.wait() for child in children]
        if any(codes):
            raise RuntimeError("provisioning the kernel store failed: %s" % codes)
        (build / "COMPLETE").write_text("ok\n")
        os.rename(build, store)
    finally:
        for child in children:
            reap_group(child)
        shutil.rmtree(build, ignore_errors=True)  # renamed away on success
    return store


# ---------------------------------------------------------------------------
# timing
# ---------------------------------------------------------------------------
def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile of *values* (``q`` in [0, 1])."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


median = statistics.median


def tail(values: Sequence[float]) -> float:
    """p90 of *values*, or with fewer than 100 of them the highest percentile
    that still has ten samples beyond it (never below the median)."""
    return percentile(values, min(0.9, max(0.5, 1.0 - 10.0 / len(values))))


def timed_ms(fn: Callable[[], object], repeats: int, inner: int = 1) -> float:
    """Median duration of ``fn()`` in milliseconds over *repeats* blocks of
    *inner* calls."""
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(inner):
            fn()
        samples.append((time.perf_counter() - start) * 1e3 / inner)
    return median(samples)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Canary:
    """A fixed ~10 ms of work that shares no code with the program: an
    interpreter loop, a small matmul, a lexsort with gathers.

    The host's speed moves by 10-50 % over seconds to minutes (a shared
    hypervisor; the same loop, untouched, moves with it).  Timed right before
    and right after an operation, the canary measures the speed the operation
    ran at.  The gated times are wall times scaled by ``REF_MS`` / (the
    canary's time beside them): milliseconds at the speed at which the canary
    takes ``REF_MS``, which is this host's in a quiet minute.  Wall-clock
    medians of back-to-back runs land 17-77 % apart here, the scaled ones
    mostly 4-23 % (see README.md, "Noise")."""

    REF_MS = 10.0

    def __init__(self) -> None:
        import numpy as np

        rng = np.random.default_rng(0)
        self._np = np
        self._a = rng.random((160, 160))
        self._keys = rng.integers(0, 5000, size=(2, 30_000))
        self._vals = rng.random(30_000)

    def __call__(self) -> float:
        """Run once; returns the duration in milliseconds."""
        np = self._np
        start = time.perf_counter()
        total = 0
        for i in range(40_000):
            total += i * i % 7
        for _ in range(8):
            self._a @ self._a
        order = np.lexsort(self._keys[::-1])
        keys, vals = self._keys[:, order], self._vals[order]
        mask = keys[0] >= keys[1]
        np.cumsum(mask)
        vals[mask].sum()
        return (time.perf_counter() - start) * 1e3

    def scale(self, before_ms: float, after_ms: float) -> float:
        """What to multiply a wall time by, given the canary's time right
        before and right after it."""
        return self.REF_MS / (0.5 * (before_ms + after_ms))

    def normalised(self, fn: Callable[[], float]) -> float:
        """``fn()`` (which returns seconds it measured itself) scaled by the
        canary's speed right before and right after it."""
        before_ms = self()
        seconds = fn()
        return seconds * self.scale(before_ms, self())


class CompilerCanary(Canary):
    """``cc`` on a fixed source, for ``cold_compile``: its operations are
    97 % ``cc``, a burst of short-lived processes that the host slows by
    another factor than it slows a numpy loop (in one stretch the operation
    slowed by 42 %, the numpy canary by 34 %, ``cc`` on a trivial file by
    70 %).  Its own flags, not the program's: a change to how the program
    calls ``cc`` must not cancel."""

    REF_MS = 60.0
    SOURCE = """
#include <stdint.h>
#include <math.h>
double canary_a(const int64_t *pos, const int64_t *idx, const double *val,
                const double *x, double *y, int64_t n) {
  double acc = 0.0;
  for (int64_t i = 0; i < n; i++) {
    double s = 0.0;
    for (int64_t p = pos[i]; p < pos[i + 1]; p++) {
      s += val[p] * x[idx[p]];
      y[idx[p]] += val[p] * x[i];
    }
    y[i] += s;
    acc += sqrt(fabs(s));
  }
  return acc;
}
void canary_b(const int64_t *pos, const int64_t *idx, const double *val,
              const double *b, double *c, int64_t n, int64_t r) {
  for (int64_t i = 0; i < n; i++)
    for (int64_t p = pos[i]; p < pos[i + 1]; p++)
      for (int64_t k = 0; k < r; k++) {
        c[i * r + k] += val[p] * b[idx[p] * r + k];
        c[idx[p] * r + k] += val[p] * b[i * r + k];
      }
}
"""

    def __init__(self, directory: Path) -> None:
        self._cc = shutil.which("cc") or shutil.which("gcc")
        if self._cc is None:
            raise RuntimeError("no C compiler for the compiler canary")
        self._src = directory / "canary.c"
        self._out = directory / "canary.so"
        self._src.write_text(self.SOURCE)

    def __call__(self) -> float:
        start = time.perf_counter()
        subprocess.run(
            [self._cc, "-O2", "-shared", "-fPIC", "-o", str(self._out), str(self._src)], check=True
        )
        return (time.perf_counter() - start) * 1e3


def import_seconds() -> float:
    """How long ``import repro`` takes in a fresh interpreter (the child times
    the statement itself, not its own start-up)."""
    code = "import time; t = time.perf_counter(); import repro; print(time.perf_counter() - t)"
    done = subprocess.run([sys.executable, "-c", code], stdout=subprocess.PIPE, text=True, check=True)
    return float(done.stdout)


class Spans:
    """Benchmark-side spans, kept in memory: ``{name, start, end, parent,
    op_id}`` with times in ``perf_counter_ns`` (the clock ``repro.obs``
    uses, so its events can be filed under these)."""

    def __init__(self) -> None:
        self.records: List[dict] = []
        self._stack: List[int] = []
        self.op_id: Optional[int] = None

    @contextlib.contextmanager
    def span(self, name: str):
        record = {
            "name": name,
            "start": 0,
            "end": 0,
            "parent": self._stack[-1] if self._stack else None,
            "op_id": self.op_id,
        }
        self._stack.append(len(self.records))
        self.records.append(record)
        record["start"] = time.perf_counter_ns()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter_ns()
            self._stack.pop()

    def adopt(self, events) -> None:
        """File ``repro.obs`` trace events under the innermost benchmark span
        (or adopted event) that contains them in time."""
        for ev in sorted(events, key=lambda e: (e.t0, -e.t1)):
            parent = None
            for i, rec in enumerate(self.records):
                if rec["start"] <= ev.t0 and ev.t1 <= rec["end"]:
                    if parent is None or rec["start"] >= self.records[parent]["start"]:
                        parent = i
            self.records.append(
                {
                    "name": "obs:" + ev.name,
                    "start": ev.t0,
                    "end": ev.t1,
                    "parent": parent,
                    "op_id": self.records[parent]["op_id"] if parent is not None else None,
                }
            )

    def self_times(self, op_ids: Optional[set] = None) -> Dict[str, float]:
        """Seconds of self time per span name: a span's duration minus the
        part of it its children cover."""
        children: Dict[int, int] = {}
        for rec in self.records:
            if rec["parent"] is not None:
                children[rec["parent"]] = children.get(rec["parent"], 0) + rec["end"] - rec["start"]
        out: Dict[str, float] = {}
        for i, rec in enumerate(self.records):
            if op_ids is not None and rec["op_id"] not in op_ids:
                continue
            own = rec["end"] - rec["start"] - children.get(i, 0)
            out[rec["name"]] = out.get(rec["name"], 0.0) + own / 1e9
        return out


class LoopResult:
    """One closed loop: per operation the wall time (``raw``, seconds), the
    same scaled by the canary (``latencies``), the canary's own times, and
    the failure count."""

    def __init__(self) -> None:
        self.latencies: List[float] = []
        self.raw: List[float] = []
        self.canary_ms: List[float] = []
        self.failed = 0

    @property
    def attempted(self) -> int:
        return len(self.latencies)


def checksum(outputs) -> tuple:
    """Exact sums of an operation's outputs: the program is deterministic, so
    a repeat of the same operation must reproduce them bit for bit."""
    import numpy as np

    return tuple(float(np.sum(np.asarray(o, dtype=np.float64))) for o in outputs)


def closed_loop(
    op: Callable[[], Sequence],
    count: int,
    warmup: int,
    canary: Canary,
    spans: Optional[Spans] = None,
    between: Optional[Callable[[], None]] = None,
    budget_s: Optional[float] = None,
) -> LoopResult:
    """One caller, one operation in flight: the next starts when the previous
    returns.  ``op`` returns its outputs; an exception or a checksum that
    differs from the first operation's makes the operation a failure.
    ``between`` runs untimed before each operation, the canary untimed after
    each.  Automatic GC is off inside the timed region and collected outside
    it every 20 operations.
    ``budget_s`` stops a loop that a much slower host would carry past the
    harness's time limit (the shortfall shows in ``attempted``)."""
    result = LoopResult()
    expected = None
    started = time.perf_counter()
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        speed_before = canary()
        for i in range(-warmup, count):
            if budget_s is not None and time.perf_counter() - started > budget_s:
                break
            if i % 20 == 0:
                gc.collect()
            if between is not None:
                between()
            if spans is not None:
                spans.op_id = i
            outputs, ok = None, True
            scope = spans.span("op") if spans is not None else contextlib.nullcontext()
            start = time.perf_counter()
            try:
                with scope:
                    outputs = op()
            except Exception:
                traceback.print_exc(file=sys.stderr)
                ok = False
            elapsed = time.perf_counter() - start
            speed_after = canary()
            if ok:
                got = checksum(outputs)
                if expected is None:
                    expected = got
                ok = got == expected
            if i >= 0:
                result.raw.append(elapsed)
                result.latencies.append(elapsed * canary.scale(speed_before, speed_after))
                result.canary_ms.append(speed_after)
                result.failed += not ok
            elif not ok:
                raise RuntimeError("warm-up operation failed")
            speed_before = speed_after
    finally:
        if spans is not None:
            spans.op_id = None
        if gc_was_enabled:
            gc.enable()
    return result


# ---------------------------------------------------------------------------
# child processes: owned, reaped, verified gone
# ---------------------------------------------------------------------------
def reap_group(proc: subprocess.Popen, grace: float = 10.0) -> None:
    """End the process group *proc* leads (it was started with
    ``start_new_session=True``): SIGTERM, then SIGKILL, waiting *grace*
    seconds after each.  Raises :class:`ChildSurvived` if anything in the
    group is still alive afterwards; a no-op for a group that already ended."""
    pgid = proc.pid
    for signum in (signal.SIGTERM, signal.SIGKILL):
        try:
            os.killpg(pgid, signum)
        except ProcessLookupError:
            break
        try:
            proc.wait(timeout=grace)
            break
        except subprocess.TimeoutExpired:
            continue
    proc.wait(timeout=grace)
    deadline = time.perf_counter() + 5.0
    while True:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        if time.perf_counter() > deadline:
            os.killpg(pgid, signal.SIGKILL)
            raise ChildSurvived("process group %d outlived its leader" % pgid)
        time.sleep(0.01)


def run_child(cmd: Sequence[str], timeout: float) -> Tuple[int, str]:
    """Run one benchmark process (a workload in its own fresh interpreter) to
    completion; returns its exit code and standard output.  On every way out
    of here - return, exception, a signal turned into ``SystemExit`` - the
    child's group is ended (SIGTERM first: the child reaps its own daemon on
    that), and the run fails if anything it started is still alive."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
        return proc.returncode, out
    finally:
        reap_group(proc, grace=30.0)
        left = stragglers("run-%d-" % proc.pid)
        for pid in left:
            os.kill(pid, signal.SIGKILL)
        if left:
            raise ChildSurvived("processes %s outlived benchmark process %d" % (left, proc.pid))


class Daemon:
    """A ``repro serve`` child in its own process group; ``stop()`` is
    :func:`reap_group`, so the benchmark fails rather than leave one behind."""

    def __init__(self, directory: Path, store: Path, warm: bool = True, metrics: bool = False):
        directory.mkdir(parents=True, exist_ok=True)
        self.socket = str(directory / "s.sock")
        env = dict(os.environ)
        env["REPRO_C_CACHE"] = str(directory / "cc")
        if metrics:
            env["REPRO_METRICS"] = "1"
        cmd = [sys.executable, "-m", "repro", "serve", "--socket", self.socket, "--dir", str(store)]
        if warm:
            cmd.append("--warm")
        self._log = open(directory / "daemon.log", "wb")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, env=env, stdout=self._log, stderr=subprocess.STDOUT, start_new_session=True
        )
        self.client = None

    def wait_ready(self, timeout: float = 60.0):
        """Poll ``health`` until the daemon answers; returns the client."""
        from repro.serve.client import RemoteError, ServiceClient

        client = ServiceClient(self.socket, timeout=30.0, retries=0, backoff=0.0)
        deadline = time.perf_counter() + timeout
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError("daemon exited with %s before serving" % self.proc.returncode)
            try:
                client.health()
                break
            except RemoteError:
                if time.perf_counter() > deadline:
                    raise RuntimeError("daemon did not answer within %.0fs" % timeout)
                time.sleep(0.005)
        self.client = client
        return client

    def rss_mb(self) -> float:
        """The daemon's peak resident set (``VmHWM``), in MiB."""
        with open("/proc/%d/status" % self.proc.pid) as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM for pid %d" % self.proc.pid)

    def stop(self) -> None:
        if self.client is not None:
            self.client.close()
            self.client = None
        try:
            reap_group(self.proc)
        finally:
            self._log.close()


class Children:
    """Every daemon a run started; ``close()`` reaps whatever is left."""

    def __init__(self) -> None:
        self.daemons: List[Daemon] = []

    def spawn(self, *args, **kwargs) -> Daemon:
        daemon = Daemon(*args, **kwargs)
        self.daemons.append(daemon)
        return daemon

    def stop(self, daemon: Daemon) -> None:
        self.daemons.remove(daemon)
        daemon.stop()

    def close(self) -> None:
        errors = []
        while self.daemons:
            try:
                self.daemons.pop().stop()
            except Exception as exc:  # keep reaping the rest, then report
                errors.append(exc)
        if errors:
            raise errors[0]
