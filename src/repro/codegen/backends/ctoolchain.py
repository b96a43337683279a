"""Locating and driving the system C toolchain.

The probe runs once per process: find a compiler (``$REPRO_CC``, else
``cc``/``gcc``/``clang``), build and dlopen a trivial shared object, and
settle the flags every build shares (``-march=native`` and
``-fopenmp-simd`` are tried in that same trivial build and dropped when
the compiler rejects them).  ``$REPRO_NO_CC`` forcibly disables the
probe — the CI leg that exercises the no-compiler degradation path sets
it.

One rendered source builds into one of two objects
(:meth:`Toolchain.object_flags`):

* the **serial object** (``-fopenmp-simd``): ``_OPENMP`` is undefined, so
  the preprocessor drops every ``omp parallel`` body, the scatter-log
  pool and ``<omp.h>`` — roughly half the code ``cc -O3`` would
  otherwise optimize — while the ``#pragma omp simd`` hints stay live.
  It is what a request that can only ever run on one thread is served
  from, and it has no OpenMP runtime dependency;
* the **OpenMP object** (``-fopenmp``): both the parallel bodies and the
  serial branch.

OpenMP capability is probed lazily: the ``-fopenmp`` trivial object —
which must load and answer through the OpenMP runtime before the flag is
adopted — is built the first time an OpenMP object is wanted (or
``repro doctor`` / ``repro backends`` ask), so a process that
only ever runs serial kernels never pays for it.  ``$REPRO_NO_OPENMP``
skips that step (every kernel is then served from the serial object).
:func:`reset_probe_cache` forgets both — a test that flips the env
between probes gets a fresh answer for the compiler *and* for OpenMP.

Compiled objects live in the object cache
(:mod:`repro.codegen.backends.objects`) — by default the process instance,
``ObjectCache(build_dir())``: a per-process temp directory that
``$REPRO_C_CACHE`` replaces by a persistent one; :func:`compile_shared`
is the lookup order over it.
"""

from __future__ import annotations

import atexit
import ctypes
import os
import random
import shutil
import subprocess
import tempfile
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro import faults
from repro.codegen.backends.objects import ObjectCache, identity, program_digest
from repro.core.config import knob
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace


class ToolchainError(RuntimeError):
    """The compiler was found but a compilation failed."""


class ToolchainTimeout(ToolchainError):
    """A ``cc`` invocation exceeded ``$REPRO_CC_TIMEOUT`` (transient —
    the retry loop re-attempts it with backoff)."""


class ToolchainInterrupted(ToolchainError):
    """``cc`` was killed by a signal (OOM killer, operator) — transient,
    retried like a timeout."""


#: flags every build uses.  ``-ffp-contract=off`` keeps per-operation IEEE
#: semantics (no FMA fusion) so C results match the Python backend's
#: numpy arithmetic bit-for-bit on the same accumulation order.
BASE_FLAGS = ("-O3", "-shared", "-fPIC", "-fno-math-errno", "-ffp-contract=off")

#: seconds before the first cc retry, doubled per attempt; each wait gets
#: up to +100% random jitter, so raced processes decorrelate.
CC_BACKOFF = 0.25

_TRIVIAL = "int repro_probe(void) { return 42; }\n"

#: the OpenMP probe goes through the runtime library, not just the
#: pragma parser — a compiler that accepts ``-fopenmp`` but cannot link
#: libgomp/libomp fails here and is treated as OpenMP-less.
_TRIVIAL_OMP = (
    "#include <omp.h>\n"
    "int repro_probe(void) { return omp_get_max_threads() >= 1 ? 42 : 0; }\n"
)


@dataclass(frozen=True)
class Toolchain:
    """A probed, known-working compiler configuration."""

    cc: str
    #: flags every build shares (``-march=native`` when accepted).
    flags: tuple
    #: ``("-fopenmp-simd",)`` when the compiler accepts it, else ``()`` —
    #: what the serial object is built with so its SIMD hints stay live.
    simd_flags: tuple = ()

    @property
    def openmp_flags(self) -> tuple:
        """``("-fopenmp",)`` when the (lazy) OpenMP probe succeeds."""
        return openmp_flags()

    @property
    def openmp(self) -> bool:
        """Can this toolchain build OpenMP-parallel kernels?"""
        return bool(self.openmp_flags)

    def object_flags(self, omp: bool) -> tuple:
        """The flag set of the OpenMP (``omp``) or the serial object — a
        spelling, not a capability: whether ``-fopenmp`` works is
        :attr:`openmp`'s lazily probed answer, and naming an object must
        not wait for it (:func:`compile_shared` builds the serial object
        where it does not)."""
        return self.flags + (("-fopenmp",) if omp else self.simd_flags)

    def describe(self) -> str:
        return "%s %s" % (self.cc, " ".join(self.flags + self.simd_flags))


_lock = threading.Lock()
#: answers of the once-per-process probes (toolchain, OpenMP) by name.
_probed: Dict[str, object] = {}
_build_dir: Optional[str] = None


def _candidates() -> List[str]:
    env = knob("REPRO_CC")
    if env:
        return [env]
    return ["cc", "gcc", "clang"]


def build_dir() -> str:
    """The directory of the process's object cache (created lazily)."""
    global _build_dir
    with _lock:
        if _build_dir is None:
            override = knob("REPRO_C_CACHE")
            if override:
                os.makedirs(override, exist_ok=True)
                _build_dir = override
            else:
                _build_dir = tempfile.mkdtemp(prefix="repro-ckernels-")
                atexit.register(shutil.rmtree, _build_dir, True)
        return _build_dir


def _inject_cc_fault(cmd: List[str], timeout: Optional[float]) -> None:
    """The ``cc`` injection point: forge the failure the armed action
    describes *before* the subprocess runs (deterministic and fast)."""
    fault = faults.poll("cc")
    if fault is None:
        return
    if fault.action == "timeout":
        raise ToolchainTimeout(
            "injected: %s timed out after %.1fs" % (cmd[0], timeout or 0.0)
        )
    if fault.action == "crash":
        raise ToolchainInterrupted("injected: %s killed by signal 9" % cmd[0])
    if fault.action == "slow":
        time.sleep(fault.arg_float(0.1))
        return
    raise ToolchainError("injected: %s failed (1)" % cmd[0])


def _run_cc(
    cc: str, flags: tuple, src: str, out: str, timeout: Optional[float] = None
) -> None:
    """One bounded compiler invocation.

    ``timeout`` (seconds, ``None`` = unbounded) is enforced by
    ``subprocess.run`` — a hung ``cc`` is killed and surfaces as
    :class:`ToolchainTimeout` instead of stalling the caller forever.
    A ``cc`` killed by a signal raises :class:`ToolchainInterrupted`;
    both are transient.  A nonzero exit is deterministic for fixed
    source and raises plain :class:`ToolchainError` (permanent).
    """
    cmd = [cc] + list(flags) + ["-o", out, src]
    _inject_cc_fault(cmd, timeout)
    try:
        proc = subprocess.run(
            cmd,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        obs_metrics.inc("toolchain.cc_timeouts")
        raise ToolchainTimeout(
            "%s timed out after %.1fs (REPRO_CC_TIMEOUT)"
            % (" ".join(cmd), timeout or 0.0)
        )
    if proc.returncode != 0:
        if proc.returncode < 0:
            raise ToolchainInterrupted(
                "%s killed by signal %d" % (" ".join(cmd), -proc.returncode)
            )
        raise ToolchainError(
            "%s failed (%d):\n%s" % (" ".join(cmd), proc.returncode, proc.stderr[-2000:])
        )


def _probe_build_runs(cc_path: str, flags: tuple, source: str) -> bool:
    """Build *source* with *flags*, dlopen it and call ``repro_probe``.

    Probe files are process-unique (the build dir may be a shared
    ``$REPRO_C_CACHE``) and removed afterwards.
    """
    directory = build_dir()
    fd, src = tempfile.mkstemp(dir=directory, prefix=".probe.", suffix=".c")
    with os.fdopen(fd, "w") as handle:
        handle.write(source)
    fd, out = tempfile.mkstemp(dir=directory, prefix=".probe.", suffix=".so")
    os.close(fd)
    try:
        _run_cc(cc_path, flags, src, out, timeout=knob("REPRO_CC_TIMEOUT"))
        lib = ctypes.CDLL(out)
        return int(lib.repro_probe()) == 42
    except (ToolchainError, OSError, AttributeError):
        return False
    finally:
        for path in (src, out):
            try:
                os.unlink(path)
            except OSError:
                pass


def _try_probe(cc_path: str) -> Optional[Toolchain]:
    """Build + load + call the trivial shared object with *cc_path*.

    The first accepted combination of the optional flags wins, so the
    common case (both accepted) costs one build.
    """
    for march in (("-march=native",), ()):
        for simd in (("-fopenmp-simd",), ()):
            if _probe_build_runs(cc_path, BASE_FLAGS + march + simd, _TRIVIAL):
                return Toolchain(
                    cc=cc_path, flags=BASE_FLAGS + march, simd_flags=simd
                )
    return None


def _probe_once(name: str, compute: Callable[[], object]):
    """The cached answer of probe *name*, computed on first use (outside
    the lock: a probe runs ``cc``; racing first callers agree anyway)."""
    with _lock:
        if name in _probed:
            return _probed[name]
    value = compute()
    with _lock:
        return _probed.setdefault(name, value)


def _find_toolchain() -> Optional[Toolchain]:
    if knob("REPRO_NO_CC"):
        return None
    for cand in _candidates():
        path = shutil.which(cand)
        if path is not None:
            result = _try_probe(path)
            if result is not None:
                return result
    return None


def probe() -> Optional[Toolchain]:
    """The working toolchain, or ``None`` (cached after the first call)."""
    return _probe_once("toolchain", _find_toolchain)


def _probe_openmp() -> tuple:
    tc = probe()
    if tc is not None and not knob("REPRO_NO_OPENMP"):
        if _probe_build_runs(tc.cc, tc.flags + ("-fopenmp",), _TRIVIAL_OMP):
            return ("-fopenmp",)
    return ()


def openmp_flags() -> tuple:
    """``("-fopenmp",)`` when the toolchain builds and runs OpenMP code.

    Probed on first use, not in :func:`probe`: only a caller that wants an
    OpenMP object (or reports on the capability) pays the extra ``cc``
    run.  ``()`` without a toolchain or under ``$REPRO_NO_OPENMP``.
    """
    return _probe_once("openmp", _probe_openmp)


def reset_probe_cache() -> None:
    """Forget the cached probes (tests flip env vars between probes).

    Invalidates the compiler and the (lazily probed) OpenMP answer in one
    step — each is re-examined on next use.  The
    permanent-failure memo is dropped too (its digests cover the
    toolchain identity, which may be about to change).
    """
    with _lock:
        _probed.clear()
        _failed.clear()


#: objects whose build failed *permanently* (cc exited nonzero) — the
#: source is deterministic for a fixed toolchain, so re-running cc would
#: fail identically; remember the verdict instead of paying it again.
_failed: Dict[str, str] = {}


def reset_failure_memo() -> None:
    """Forget memoized permanent build failures (tests)."""
    with _lock:
        _failed.clear()


def _build_with_retry(
    tc: Toolchain, flags: tuple, c_path: str, out_path: str, stem: Optional[str]
) -> None:
    """Run cc with *flags* on *c_path* into *out_path*.

    Transient failures (:class:`ToolchainTimeout`, signal kills) are
    retried ``$REPRO_CC_RETRIES`` times with exponential backoff and
    jitter; a nonzero exit is permanent and propagates immediately.
    """
    attempts = 1 + knob("REPRO_CC_RETRIES")
    delay = CC_BACKOFF
    timeout = knob("REPRO_CC_TIMEOUT")
    for attempt in range(1, attempts + 1):
        try:
            with obs_trace.span(
                "cc",
                stem=stem,
                cc=tc.cc,
                attempt=attempt,
                omp=int("-fopenmp" in flags),
                flags=" ".join(flags),
            ):
                _run_cc(tc.cc, flags, c_path, out_path, timeout=timeout)
            return
        except (ToolchainTimeout, ToolchainInterrupted):
            if attempt == attempts:
                raise
            obs_metrics.inc("toolchain.retries")
            time.sleep(delay * (1.0 + random.random()))
            delay *= 2.0


def compile_shared(
    source: str,
    stem: Optional[str] = None,
    force: bool = False,
    omp: bool = False,
    objects: Optional[ObjectCache] = None,
) -> str:
    """The path of a verified shared object of C *source*, built if absent.

    ``objects`` is the cache instance to look in and build into (``None``:
    the process instance); ``stem`` only tags the ``cc`` span.  Which
    object answers is one lookup order:

    * ``omp`` (a threaded request) accepts only the OpenMP object;
    * a serial request prefers the serial object and accepts the OpenMP
      one of the same toolchain — both run the same serial loops, so a
      cache written by a threaded process costs a serial reader no ``cc``;
    * a process with **no** toolchain accepts any verified object of the
      program (the loaded object's ``repro_openmp`` marker says which it
      got), so a compilerless serving host keeps working.

    On a miss the wanted object is built — the serial one when the
    toolchain has no OpenMP — by one builder across the processes sharing
    the directory, each cc run bounded by ``$REPRO_CC_TIMEOUT`` and
    retried with backoff when it fails transiently.  A *permanent* failure
    (cc rejects the source) is memoized per object: later requests fail
    fast instead of re-running a compile known to be deterministic-bad.
    ``force`` skips lookup and memo (callers pass it after a verified
    object failed to load — e.g. a ``$REPRO_C_CACHE`` carried over from
    another architecture).  Raises :class:`ToolchainError` when nothing
    can be served or built.
    """
    if objects is None:
        objects = ObjectCache(build_dir())
    program = program_digest(source)
    tc = probe()
    if tc is None:
        path = None
        if not force:
            path = objects.lookup(program + "-serial-", program + "-omp-")
        if path is None:
            raise ToolchainError(
                "no working C compiler (set $REPRO_CC, or unset $REPRO_NO_CC)"
            )
        return path
    names = {
        kind: identity(program, kind, tc.cc, tc.object_flags(kind == "omp"))
        for kind in ("serial", "omp")
    }
    accept = ("omp",) if omp else ("serial", "omp")
    if knob("REPRO_NO_OPENMP"):
        accept = ("serial",)
    if not force:
        path = objects.lookup(*(names[kind] for kind in accept))
        if path is not None:
            return path
    kind = "omp" if omp and tc.openmp else "serial"
    ident = names[kind]
    with _lock:
        memo = _failed.get(ident)
    if memo is not None and not force:
        raise ToolchainError(
            "build of %s previously failed permanently "
            "(reset_failure_memo() to retry):\n%s" % (ident, memo)
        )
    flags = tc.object_flags(kind == "omp")
    try:
        return objects.build(
            ident,
            source,
            lambda c_path, out: _build_with_retry(tc, flags, c_path, out, stem),
            force,
        )
    except ToolchainError as exc:
        if not isinstance(exc, (ToolchainTimeout, ToolchainInterrupted)):
            obs_metrics.inc("toolchain.permanent_failures")
            with _lock:
                _failed[ident] = str(exc)[:2000]
        raise
