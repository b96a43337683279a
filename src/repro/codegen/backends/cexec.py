"""Loading and calling compiled C kernels.

The seam with :mod:`repro.codegen.backends.c`: that module turns a loop
program into C text (pure); this one asks the object cache it was handed
(:mod:`repro.codegen.backends.objects`: the process instance, or a disk
store's) for a verified object of that text, loads it (:func:`dlopen`, the
one ``ctypes.CDLL``), builds the wide-index object of the same source in
that same cache on the first argument set that needs it, and marshals
arguments through ctypes.
"""

from __future__ import annotations

import ctypes
import threading
from typing import Callable, List, Mapping, Optional, Tuple

import numpy as np

from repro import faults
from repro.codegen.backends import ctoolchain
from repro.codegen.backends.base import (
    Backend,
    BackendError,
    BackendUnavailableError,
    Executable,
)
from repro.codegen.backends.c import CRender, render_c_full
from repro.codegen.backends.objects import ObjectCache
from repro.codegen.loopir import Dim
from repro.codegen.lower import LoweredKernel
from repro.obs import trace as obs_trace
from repro.obs.profile import NestProfile
from repro.tensor.coo import INDEX_DTYPES

#: index dtype by the byte count an object's ``repro_index_bytes`` reports
_INDEX_BY_BYTES = {dtype.itemsize: dtype for dtype in INDEX_DTYPES}


def dlopen(so_path: str) -> ctypes.CDLL:
    """Load a compiled object (a kernel, or the native split): traced, faultable."""
    with obs_trace.span("dlopen", path=so_path):
        if faults.poll("dlopen") is not None:
            raise OSError("injected: cannot dlopen %s" % so_path)
        return ctypes.CDLL(so_path)


class IndexWidthError(ValueError):
    """An index array the loaded object cannot read without loss."""


class CExecutable(Executable):
    """A compiled kernel bound through ctypes.

    The call plan (which pointer/extent/scalar goes where) is computed
    once, here; :meth:`bind` coerces dtypes (a no-op for arrays
    :meth:`BoundKernel.prepare` built) and grabs data pointers once per
    argument set, and a run is one foreign call on that vector.

    The loaded object is the one object of ``source`` (:attr:`kind`):
    the OpenMP build when the source has a parallel nest and the
    toolchain has OpenMP, else the serial build.  Every thread count runs
    on it — the OpenMP object's own serial branch serves ``threads=1``.

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
        index_dtype: Optional[np.dtype] = None,
    ):
        self.source = rendered.source
        self._built_from = (lowered, rendered)
        self._wide: Optional["CExecutable"] = None
        self._stem = stem
        #: where :meth:`wide` looks for and builds the wide object — the
        #: cache this one came from, so a store learns of it
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
        self._wide_lock = threading.Lock()
        self._load(so_path, index_dtype)
        #: a parallel source loaded as its serial object (a toolchain
        #: without OpenMP): every call runs on one thread
        self.single_threaded = rendered.parallel and not self.omp

    def _load(self, so_path: str, index_dtype: Optional[np.dtype]) -> None:
        """dlopen *so_path* and bind its entry points; raises
        :class:`~ctoolchain.ToolchainError` when its index width is not the
        *index_dtype* asked for (``None``: any)."""
        lib = dlopen(so_path)
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
        if hasattr(lib, "finish"):
            self.finish = self._finisher(lib.finish)
        #: the dtype every ``pos``/``idx`` pointer of this object reads
        self.index_dtype = loaded
        #: whether this is the OpenMP object (its marker symbol exists
        #: only under ``_OPENMP``).
        self.omp = hasattr(lib, "repro_openmp")
        # per-nest profiling symbols exist only in the instrumented objects
        # repro.obs.profile_kernel builds; in every other object they are
        # absent and nest_profile() returns None
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

    def _finisher(self, fn) -> Callable[[np.ndarray, np.ndarray], None]:
        """The object's ``finish``, on buffers checked as its pointers need."""
        fn.restype = None

        def finish(out: np.ndarray, res: np.ndarray) -> None:
            arrays = (out, np.asarray(out.shape, dtype=np.int64), res)
            if res.size != out.size or not res.flags.writeable or not all(
                a.dtype == self._elem and a.flags.c_contiguous for a in (out, res)
            ):
                raise ValueError("finish needs C-contiguous %s buffers of one size"
                                 % self._elem.name)
            fn(*[ctypes.c_void_p(a.ctypes.data) for a in arrays])

        return finish

    @property
    def kind(self) -> str:
        """Which object is loaded: ``"serial"`` or ``"omp"``."""
        return "omp" if self.omp else "serial"

    def wide(self) -> "CExecutable":
        """The wide-index object of this source, found or built by
        :func:`build` on the first call, single-flight across host
        threads; an object that does not read int64 indices is refused."""
        with self._wide_lock:
            if self._wide is None:
                lowered, rendered = self._built_from
                self._wide = build(
                    lowered, rendered, self._stem, self._objects, wide=True
                )
            return self._wide

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
        label = self._stem

        def call(threads: int) -> None:
            # a serial object ignores the count; the OpenMP object's own
            # serial branch serves threads == 1
            nthreads.value = threads
            rc = fn(*packed)
            if rc:
                raise MemoryError(
                    "C kernel %s: workspace allocation failed (status %d)"
                    % (label, rc)
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
        objects: Optional[ObjectCache] = None,
    ) -> CExecutable:
        return build(lowered, render_c_full(lowered, label), label, objects)

    def describe(self) -> str:
        tc = ctoolchain.probe()
        if tc is None:
            return "c: unavailable (no working compiler found)"
        omp = "OpenMP" if tc.openmp else "no OpenMP, serial kernels"
        return "c: compiled shared objects via %s (%s)" % (tc.describe(), omp)


def build(
    lowered: LoweredKernel,
    rendered: CRender,
    label: Optional[str] = None,
    objects: Optional[ObjectCache] = None,
    wide: bool = False,
) -> CExecutable:
    """Find or build the object of *rendered* in *objects* (``None``: the
    process instance) and load it; an object that does not load is
    rebuilt once.  ``wide`` asks for the int64-index object
    (:meth:`CExecutable.wide`).  :meth:`CBackend.compile` builds the
    production render; :func:`repro.obs.profile_kernel` an instrumented
    one, into the process instance only."""
    index_dtype = np.dtype(np.int64) if wide else None

    def load(force: bool) -> CExecutable:
        so_path = ctoolchain.compile_shared(
            rendered.source,
            stem=label,
            force=force,
            parallel=rendered.parallel,
            objects=objects,
            wide=wide,
        )
        return CExecutable(lowered, so_path, rendered, label, objects, index_dtype)

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
