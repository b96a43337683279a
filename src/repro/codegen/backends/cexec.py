"""Loading and calling compiled C kernels.

The seam with :mod:`repro.codegen.backends.c`: that module turns a loop
program into C text (pure); this one asks the object cache it was handed
(:mod:`repro.codegen.backends.objects`: the process instance, or a disk
store's) for a verified object of that text, ``dlopen``s it — the one
``ctypes.CDLL`` of a kernel — upgrades serial -> OpenMP in that same
cache, builds the wide-index object of the same source on the first
argument set that needs it, and marshals arguments through ctypes.
"""

from __future__ import annotations

import ctypes
import threading
from typing import Callable, List, Mapping, Optional, Tuple

import numpy as np

from repro import faults
from repro.codegen.backends import ctoolchain, health
from repro.codegen.backends.base import (
    Backend,
    BackendError,
    BackendUnavailableError,
    CodegenConfig,
    Executable,
)
from repro.codegen.backends.c import CRender, render_c_full
from repro.codegen.backends.objects import ObjectCache
from repro.codegen.loopir import Dim
from repro.codegen.lower import LoweredKernel
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.obs.profile import NestProfile
from repro.tensor.coo import INDEX_DTYPES

#: index dtype by the byte count an object's ``repro_index_bytes`` reports
_INDEX_BY_BYTES = {dtype.itemsize: dtype for dtype in INDEX_DTYPES}


class IndexWidthError(ValueError):
    """An index array the loaded object cannot read without loss."""


class CExecutable(Executable):
    """A compiled kernel bound through ctypes.

    The call plan (which pointer/extent/scalar goes where) is computed
    once, here; :meth:`bind` coerces dtypes (a no-op for arrays
    :meth:`BoundKernel.prepare` built) and grabs data pointers once per
    argument set, and a run is one foreign call on that vector.

    The loaded object is either the serial or the OpenMP build of
    ``source`` (:attr:`kind`).  A serial object that is asked to run with
    ``threads > 1`` is upgraded in place (:meth:`upgrade`) — the check
    sits on the ``threads > 1`` branch only, so serial dispatch pays
    nothing for it.

    Each object reports its index width (:attr:`index_dtype`).  The
    executable a backend compiles holds the narrow object; an argument
    set whose ``pos``/``idx`` arrays are wide is bound to the wide object
    of the same source instead (:meth:`wide`, built once, on first need).
    """

    def __init__(
        self,
        lowered: LoweredKernel,
        so_path: str,
        rendered: CRender,
        stem: Optional[str] = None,
        objects: Optional[ObjectCache] = None,
    ):
        self.source = rendered.source
        self._built_from = (lowered, rendered)
        self._wide: Optional["CExecutable"] = None
        self._stem = stem
        #: where :meth:`upgrade` looks for and builds the OpenMP object —
        #: the cache this one came from, so a store learns of the upgrade
        self._objects = objects
        # the element dtype of every value pointer in the ABI
        self._elem = np.dtype(
            np.float32 if lowered.dtype == "float32" else np.float64
        )
        # (kind, name) per kernel argument: the typed argument list the
        # renderer printed the C signature from, so the call plan and the
        # signature cannot disagree
        self._steps = tuple(
            ("dim" if isinstance(a, Dim) else a.kind, a.name)
            for a in lowered.program.args
        )
        #: the OpenMP strategy per top-level nest (the profile report's)
        self.strategies = rendered.strategies
        self._load(so_path)
        # a kernel without parallel bodies has nothing to upgrade to
        self._upgradable = rendered.parallel and not self.omp
        self._upgrade_lock = threading.Lock()

    def _load(self, so_path: str, index_dtype: Optional[np.dtype] = None) -> None:
        """dlopen *so_path* and bind its entry points; on failure — or
        when its index width is not the *index_dtype* asked for — the
        previously loaded object (if any) stays in service."""
        with obs_trace.span("dlopen", path=so_path):
            if faults.poll("dlopen") is not None:
                raise OSError("injected: cannot dlopen %s" % so_path)
            lib = ctypes.CDLL(so_path)
            fn = lib.kernel  # AttributeError if absent
            width = lib.repro_index_bytes  # likewise
        # the kernel returns 0 on success, nonzero when a runtime
        # allocation (a workspace or a per-thread buffer) failed
        fn.restype = ctypes.c_int64
        width.restype = ctypes.c_int64
        loaded = _INDEX_BY_BYTES[width()]
        if index_dtype is not None and loaded != index_dtype:
            raise ctoolchain.ToolchainError("%s reads %s indices" % (so_path, loaded))
        self._lib, self._fn, self.so_path = lib, fn, so_path
        #: the dtype every ``pos``/``idx`` pointer of this object reads
        self.index_dtype = loaded
        #: whether this is the OpenMP object (its marker symbol exists
        #: only under ``_OPENMP``).
        self.omp = hasattr(lib, "repro_openmp")
        # per-nest profiling symbols exist only in REPRO_PROFILE builds;
        # their absence (the production case, or a pre-profiling artifact)
        # leaves `profiled` False and nest_profile() returning None
        try:
            nests_fn = lib.repro_profile_nests
            calls_fn = lib.repro_profile_calls
            reset_fn = lib.repro_profile_reset
            read_fn = lib.repro_profile_read
        except AttributeError:
            self._profile_fns = None
        else:
            nests_fn.restype = ctypes.c_int64
            calls_fn.restype = ctypes.c_int64
            reset_fn.restype = None
            read_fn.restype = None
            read_fn.argtypes = (ctypes.POINTER(ctypes.c_double),)
            self._profile_fns = (nests_fn, calls_fn, reset_fn, read_fn)

    @property
    def kind(self) -> str:
        """Which object is loaded: ``"serial"`` or ``"omp"``."""
        return "omp" if self.omp else "serial"

    def upgrade(self) -> None:
        """Swap, at most once, the serial object for the OpenMP one of its width.

        Single-flight across host threads (the lock) and across processes
        (the object cache's); plans bound before the swap follow it on
        their next ``threads > 1`` call.  When the OpenMP object cannot be
        had — no OpenMP toolchain (the cache then answers the serial
        object again), a ``cc`` or ``dlopen`` failure — the ``c@omp`` tier
        is marked unhealthy (sticky: later runs resolve to one thread),
        the serial object keeps serving bit-identical results and nothing
        raises.
        """
        with self._upgrade_lock:
            if not self._upgradable:
                return  # another host thread settled it first
            try:
                with obs_trace.span("backend:upgrade", stem=self._stem):
                    self._load(
                        ctoolchain.compile_shared(
                            self.source,
                            stem=self._stem,
                            omp=True,
                            objects=self._objects,
                            wide=self.index_dtype.itemsize == 8,
                        ),
                        self.index_dtype,
                    )
                    if not self.omp:
                        raise ctoolchain.ToolchainError(
                            "the toolchain cannot build OpenMP objects"
                        )
                obs_metrics.inc("toolchain.omp_upgrades")
            except (ctoolchain.ToolchainError, OSError, AttributeError) as exc:
                health.mark("c@omp", exc)
            finally:
                self._upgradable = False

    def wide(self) -> "CExecutable":
        """The wide-index object of this source, built (or found in the
        same cache) on the first call — single-flight like
        :meth:`upgrade` — and of this object's kind."""
        with self._upgrade_lock:
            if self._wide is None:
                try:
                    so_path = ctoolchain.compile_shared(
                        self.source,
                        stem=self._stem,
                        omp=self.omp,
                        objects=self._objects,
                        wide=True,
                    )
                except ctoolchain.ToolchainError as exc:
                    raise BackendError("no wide-index object: %s" % exc)
                lowered, rendered = self._built_from
                self._wide = CExecutable(
                    lowered, so_path, rendered, self._stem, self._objects
                )
            return self._wide

    @property
    def profiled(self) -> bool:
        return self._profile_fns is not None

    def nest_profile(self) -> Optional[NestProfile]:
        if self._profile_fns is None:
            return None
        nests_fn, calls_fn, _, read_fn = self._profile_fns
        count = int(nests_fn())
        buf = (ctypes.c_double * max(count, 1))()
        read_fn(buf)
        return NestProfile(
            seconds=tuple(buf[:count]), calls=int(calls_fn())
        )

    def profile_reset(self) -> None:
        if self._profile_fns is not None:
            self._profile_fns[2]()

    def _marshal(
        self, out: np.ndarray, arrays: Mapping[str, object]
    ) -> Tuple[List[object], List[object]]:
        """The ctypes argument vector (minus the thread count) plus the
        buffers its pointers reference."""
        if out.dtype != self._elem or not out.flags.c_contiguous:
            raise ValueError(
                "output buffer must be C-contiguous %s" % self._elem.name
            )
        out_dims = np.asarray(out.shape, dtype=np.int64)
        keep = [out, out_dims]
        argv = [
            ctypes.c_void_p(out.ctypes.data),
            ctypes.c_void_p(out_dims.ctypes.data),
        ]
        for kind, name in self._steps:
            value = arrays[name]
            if kind == "dim":
                argv.append(ctypes.c_int64(int(value)))
                continue
            if kind in ("pos", "idx"):
                arr = np.asarray(value)
                if not np.can_cast(arr.dtype, self.index_dtype):
                    # refused, never wrapped: bind() picks the object
                    raise IndexWidthError(
                        "index array %s is %s; this object reads %s"
                        % (name, arr.dtype, self.index_dtype)
                    )
                arr = np.ascontiguousarray(arr, dtype=self.index_dtype)
            else:
                arr = np.ascontiguousarray(value, dtype=self._elem)
            keep.append(arr)
            argv.append(ctypes.c_void_p(arr.ctypes.data))
            if kind == "dense":
                shape = np.asarray(arr.shape, dtype=np.int64)
                keep.append(shape)
                argv.append(ctypes.c_void_p(shape.ctypes.data))
        return argv, keep

    def bind(
        self, out: np.ndarray, arrays: Mapping[str, object]
    ) -> Callable[[int], None]:
        """Pre-marshal the whole ctypes argument vector once.

        Dtype coercion, contiguity checks and data-pointer extraction all
        happen here; the returned callable only rewrites the trailing
        thread-count cell and invokes the foreign function.  Arrays built
        by :meth:`BoundKernel.prepare` are already contiguous in the right
        dtypes, so the coercions below are no-ops that alias the caller's
        buffers — in-place updates to them are visible to later calls.
        (An array that *did* need coercion is snapshotted at bind time.)
        The bound callable owns references to every buffer it points into.

        The argument set picks the object: this one when :meth:`_marshal`
        takes every ``pos``/``idx`` array without loss, the wide one
        (:meth:`wide`) when it refuses one.
        """
        exe = self
        # keep: pointers stay valid for the callable's lifetime
        try:
            argv, keep = exe._marshal(out, arrays)
        except IndexWidthError:
            exe = self.wide()
            argv, keep = exe._marshal(out, arrays)
        # the runtime thread count rides last; ctypes releases the GIL
        # around the call, so batch fan-out threads and OpenMP teams of
        # distinct kernels genuinely overlap
        nthreads = ctypes.c_int64(1)
        argv.append(nthreads)
        packed = tuple(argv)
        fn = exe._fn

        def call(threads: int) -> None:
            if threads > 1:
                if exe._upgradable:
                    exe.upgrade()
                nthreads.value = threads
                rc = exe._fn(*packed)
            else:
                # the object bound here serves every serial call, also
                # after an upgrade: both objects run the same serial loops
                nthreads.value = 1
                rc = fn(*packed)
            if rc:
                raise BackendError(
                    "C kernel reported allocation failure (status %d)" % rc
                )

        call.keep = keep  # noqa: B010 - anchors buffer lifetimes to the plan
        return call

    def describe(self) -> str:
        return "c (%s, %s object)" % (self.so_path, self.kind)


class CBackend(Backend):
    name = "c"

    def is_available(self) -> bool:
        return ctoolchain.probe() is not None

    def compile(
        self,
        lowered: LoweredKernel,
        label: Optional[str] = None,
        codegen: Optional[CodegenConfig] = None,
        threaded: bool = False,
        objects: Optional[ObjectCache] = None,
    ) -> CExecutable:
        rendered = render_c_full(lowered, label, codegen)
        # a kernel without parallel bodies is the same code either way
        omp = threaded and rendered.parallel

        def load(force: bool) -> CExecutable:
            so_path = ctoolchain.compile_shared(
                rendered.source, stem=label, force=force, omp=omp, objects=objects
            )
            exe = CExecutable(lowered, so_path, rendered, label, objects)
            if threaded:
                exe.upgrade()  # no-op unless a serial object was loaded
            return exe

        try:
            try:
                return load(False)
            except (OSError, AttributeError):
                # a verified object that won't load (a cache carried over
                # from another machine): rebuild it once, then fail loudly
                return load(True)
        except ctoolchain.ToolchainError as exc:
            if ctoolchain.probe() is None:
                raise BackendUnavailableError(
                    "the C backend needs a working compiler or a prebuilt "
                    "object; neither was found (set $REPRO_CC, or use "
                    "backend='auto' to fall back to python)"
                )
            raise BackendError("C kernel build failed: %s" % exc)

    def describe(self) -> str:
        tc = ctoolchain.probe()
        if tc is None:
            return "c: unavailable (no working compiler found)"
        omp = "OpenMP" if tc.openmp else "no OpenMP, serial kernels"
        return "c: compiled shared objects via %s (%s)" % (tc.describe(), omp)
