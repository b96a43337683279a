"""Locating and driving the system C toolchain.

The probe runs once per process: find a compiler (``$REPRO_CC``, else
``cc``/``gcc``/``clang``), build and dlopen a trivial shared object, and
settle the flags every build shares (``-march=native``,
``-fopenmp-simd`` and :data:`VECTOR_WIDTH` are tried in that same trivial
build and dropped when the compiler rejects them).  ``$REPRO_NO_CC``
forcibly disables the probe — the CI leg that exercises the no-compiler
fallback path sets it.

:data:`VECTOR_WIDTH` lets gcc use the AVX-512 registers its tuning for
recent x86 cores leaves at 256 bits: a register-blocked row update of 16
doubles becomes two zmm operations instead of four ymm ones.  It changes
no code where ``-march`` has no AVX-512 (AVX2, generic x86-64); hosts
whose AVX-512 lowers the clock (Skylake-SP class) are unmeasured.

Objects link lean (:data:`LEAN_LINK`): no default library, so ``ld`` skips
its libc pass — the Python process loading them has ``calloc``/``free``.
A flag set whose lean trivial object does not load (a sanitizer build)
keeps the full link.

One rendered source builds into exactly one object, chosen by the source
(:func:`compile_shared`):

* the **OpenMP object** (``-fopenmp``) when the source has a parallel nest
  and the toolchain has OpenMP: both the parallel bodies and the serial
  branch, so a ``threads=1`` call runs the serial loops of that same
  object;
* the **serial object** (``-fopenmp-simd``) otherwise: ``_OPENMP`` is
  undefined, so the preprocessor drops every ``omp parallel`` body and
  ``<omp.h>``, the ``#pragma omp simd`` hints stay live, and there is no
  OpenMP runtime dependency.

Either comes in two index widths: the narrow object every fitting
argument set runs, and the wide one (:data:`WIDE_INDEX_FLAG`), built only
for the first argument set that needs it.

OpenMP capability is probed lazily: the ``-fopenmp`` trivial object —
which must load and answer through the OpenMP runtime before the flag is
adopted — is built the first time a parallel source is compiled (or
``repro doctor`` / ``repro backends`` ask), so a process that only ever
compiles serial sources never pays for it.  :func:`reset_probe_cache`
forgets both answers, the compiler's and OpenMP's.

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
    """A ``cc`` invocation exceeded :data:`CC_TIMEOUT` (transient —
    the retry loop re-attempts it with backoff)."""


class ToolchainInterrupted(ToolchainError):
    """``cc`` was killed by a signal (OOM killer, operator) — transient,
    retried like a timeout."""


#: flags every build uses.  ``-ffp-contract=off`` keeps per-operation IEEE
#: semantics (no FMA fusion) so C results match the Python backend's
#: numpy arithmetic bit-for-bit on the same accumulation order.
BASE_FLAGS = ("-O3", "-shared", "-fPIC", "-fno-math-errno", "-ffp-contract=off")

#: accepted by x86 compilers only; a part of every object's identity.
VECTOR_WIDTH = "-mprefer-vector-width=512"

#: seconds before a hung cc is killed (and retried): a hung compiler must
#: never stall a caller forever, and 60 s is an order of magnitude above
#: the slowest observed kernel build.
CC_TIMEOUT = 60.0

#: retries after a transient cc failure (a timeout or a signal kill).
CC_RETRIES = 2

#: seconds before the first cc retry, doubled per attempt; each wait gets
#: up to +100% random jitter, so raced processes decorrelate.
CC_BACKOFF = 0.25

#: the lean link: no default library, ``-lgcc`` after the source (a static
#: archive before it resolves nothing, see :func:`_run_cc`).
LEAN_LINK = ("-nodefaultlibs", "-lgcc")

#: calls what a lean object takes from the loading process; its ``+`` is
#: checked by an UBSan build's runtime, a default library of that build.
_TRIVIAL = (
    "#include <stdlib.h>\nint repro_probe(void) {\n"
    "    int *volatile cell = calloc(1, sizeof(int));\n"
    "    int answer = cell == 0 ? 0 : *cell + 42;\n"
    "    free(cell);\n    return answer;\n}\n"
)

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
    #: flags every build shares (``-march=native``, :data:`VECTOR_WIDTH`,
    #: :data:`LEAN_LINK`: each when accepted); the width flag changes code
    #: on AVX-512 only (a 16-double row: two zmm operations, not four ymm).
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

    def object_flags(self, omp: bool, wide: bool = False) -> tuple:
        """The flag set of the OpenMP (``omp``) or the serial object, of
        the *wide* index width or the narrow one — a spelling, not a
        capability: whether ``-fopenmp`` works is :attr:`openmp`'s lazily
        probed answer."""
        return (
            self.flags
            + (("-fopenmp",) if omp else self.simd_flags)
            + ((WIDE_INDEX_FLAG,) if wide else ())
        )

    def describe(self) -> str:
        return "%s %s" % (self.cc, " ".join(self.flags + self.simd_flags))


#: what the wide object is built with: every ``pos``/``idx`` pointer of
#: the one source becomes 64-bit (see ``c.INDEX_DECLARATION``).
WIDE_INDEX_FLAG = "-DRP_INDEX=int64_t"

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
    source and raises plain :class:`ToolchainError` (permanent).  Link
    inputs (``-l…``) follow the source; every other flag precedes it.
    """
    link = [flag for flag in flags if flag.startswith("-l")]
    cmd = [cc] + [f for f in flags if f not in link] + ["-o", out, src] + link
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
            "%s timed out after %.1fs"
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
        _run_cc(cc_path, flags, src, out, timeout=CC_TIMEOUT)
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
    common case (all accepted, the lean link too) costs one build, and a
    compiler refusing only :data:`VECTOR_WIDTH` (innermost) one more.
    """
    for march in (("-march=native",), ()):
        for simd in (("-fopenmp-simd",), ()):
            for link in (LEAN_LINK, ()):
                for width in ((VECTOR_WIDTH,), ()):
                    flags = BASE_FLAGS + march + width + link
                    if _probe_build_runs(cc_path, flags + simd, _TRIVIAL):
                        return Toolchain(cc=cc_path, flags=flags, simd_flags=simd)
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
    if tc is not None and _probe_build_runs(
        tc.cc, tc.flags + ("-fopenmp",), _TRIVIAL_OMP
    ):
        return ("-fopenmp",)
    return ()


def openmp_flags() -> tuple:
    """``("-fopenmp",)`` when the toolchain builds and runs OpenMP code.

    Probed on first use, not in :func:`probe`: only a parallel source (or
    a caller reporting on the capability) pays the extra ``cc`` run.
    ``()`` without a toolchain.
    """
    return _probe_once("openmp", _probe_openmp)


def reset_probe_cache() -> None:
    """Forget the cached probes (tests change the toolchain between probes).

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
    retried :data:`CC_RETRIES` times with exponential backoff and
    jitter; a nonzero exit is permanent and propagates immediately.
    """
    attempts = 1 + CC_RETRIES
    delay = CC_BACKOFF
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
                _run_cc(tc.cc, flags, c_path, out_path, timeout=CC_TIMEOUT)
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
    parallel: bool = False,
    objects: Optional[ObjectCache] = None,
    wide: bool = False,
) -> str:
    """The path of a verified shared object of C *source*, built if absent.

    ``objects`` is the cache instance to look in and build into (``None``:
    the process instance); ``stem`` tags the ``cc`` span (else the program
    digest does); ``wide`` asks for the 64-bit index width (its kind words
    end in ``64``, so no lookup answers the other width).  ``parallel`` says the
    source has a parallel nest: on a toolchain with OpenMP it is the
    OpenMP object, everything else is the serial object — one identity
    per (program, width).  A process with **no** toolchain accepts any
    verified object of the program (the loaded object's ``repro_openmp``
    marker says which it got), so a compilerless serving host keeps
    working.

    On a miss the object is built by one builder across the processes
    sharing the directory, each cc run bounded by :data:`CC_TIMEOUT`
    and retried with backoff when it fails transiently.  A *permanent*
    failure (cc rejects the source) is memoized per object: later requests
    fail fast instead of re-running a compile known to be deterministic-bad.
    ``force`` skips lookup and memo (callers pass it after a verified
    object failed to load — e.g. a ``$REPRO_C_CACHE`` carried over from
    another architecture).  Raises :class:`ToolchainError` when nothing
    can be served or built.
    """
    if objects is None:
        objects = ObjectCache(build_dir())
    program = program_digest(source)
    suffix = "64" if wide else ""
    tc = probe()
    if tc is None:
        path = None
        if not force:
            path = objects.lookup(
                "%s-serial%s-" % (program, suffix), "%s-omp%s-" % (program, suffix)
            )
        if path is None:
            raise ToolchainError(
                "no working C compiler (set $REPRO_CC, or unset $REPRO_NO_CC)"
            )
        return path
    # only a parallel source asks the (lazy) OpenMP probe
    omp = parallel and tc.openmp
    flags = tc.object_flags(omp, wide)
    ident = identity(program, ("omp" if omp else "serial") + suffix, tc.cc, flags)
    if not force:
        path = objects.lookup(ident)
        if path is not None:
            return path
    with _lock:
        memo = _failed.get(ident)
    if memo is not None and not force:
        raise ToolchainError(
            "build of %s previously failed permanently "
            "(reset_failure_memo() to retry):\n%s" % (ident, memo)
        )
    try:
        return objects.build(
            ident,
            source,
            lambda c_path, out: _build_with_retry(tc, flags, c_path, out, stem or program),
            force,
        )
    except ToolchainError as exc:
        if not isinstance(exc, (ToolchainTimeout, ToolchainInterrupted)):
            obs_metrics.inc("toolchain.permanent_failures")
            with _lock:
                _failed[ident] = str(exc)[:2000]
        raise
