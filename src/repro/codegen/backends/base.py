"""The execution-backend interface.

A *backend* turns a :class:`~repro.codegen.lower.LoweredKernel` into an
:class:`Executable` — something callable as ``executable(out, **arrays)``
on exactly the argument set :meth:`BoundKernel.prepare` produces.  The
loop structure is fixed by lowering; backends only decide how those loops
run (interpreted Python vs. a compiled shared object).
"""

from __future__ import annotations

from typing import Callable, Mapping, Optional

import numpy as np

from repro.codegen.lower import LoweredKernel


class BackendError(RuntimeError):
    """A backend failed to build or load an executable."""


class BackendUnavailableError(BackendError):
    """The requested backend cannot run on this machine (e.g. the C
    backend without a working compiler).  ``backend="auto"`` degrades to
    the Python backend instead of raising this."""


class Executable:
    """A runnable realization of one lowered kernel.

    ``threads`` is the runtime thread count for backends that can run a
    kernel's loops on several cores (the C backend's OpenMP bodies);
    backends without intra-kernel parallelism accept and ignore it.
    ``"threads"`` is therefore a reserved argument name — no tensor
    argument may use it.
    """

    #: the source text this executable runs (Python or C).
    source: str

    def __call__(self, out: np.ndarray, threads: int = 1, **arrays) -> None:
        raise NotImplementedError

    def bind(
        self, out: np.ndarray, arrays: Mapping[str, object]
    ) -> Callable[[int], None]:
        """Pre-marshal one complete argument set for repeat execution.

        Returns ``call(threads)``, a callable that runs the kernel's loops
        on exactly the bound arguments — the hot half of an
        :class:`~repro.codegen.executor.ExecutionPlan`.  Backends override
        this to move their per-call argument processing (dtype coercion,
        ctypes packing) to bind time; the bound callable must keep every
        coerced buffer alive for as long as it exists.  The default
        implementation simply forwards to :meth:`__call__`.
        """

        def call(threads: int) -> None:
            self(out, threads=threads, **arrays)

        return call

    def parallel_work(
        self, arrays: Mapping[str, object]
    ) -> Optional[float]:
        """Estimated scalar updates of this kernel's parallelizable nests.

        ``None`` means the executable has no parallel bodies (the Python
        backend, serial-only C kernels) and a thread team could never help;
        otherwise the estimate feeds the ``threads="auto"`` cost model
        (:func:`repro.core.config.auto_thread_count`).  ``arrays`` is the
        prepared argument mapping a run would receive.
        """
        return None

    # ------------------------------------------------------------------
    # per-nest profiling (repro.obs.profile) — only builds made with
    # REPRO_PROFILE=1 on backends that support it carry instrumentation;
    # everything else reports "not profiled" through these defaults.
    #: whether this build carries per-nest wall-time instrumentation.
    profiled: bool = False

    def nest_profile(self):
        """Accumulated per-nest times as a
        :class:`~repro.obs.profile.NestProfile`, or ``None`` when this
        build is not profiled."""
        return None

    def profile_reset(self) -> None:
        """Zero the per-nest accumulators (no-op when not profiled)."""

    def describe(self) -> str:
        raise NotImplementedError


class Backend:
    """Builds executables for lowered kernels."""

    #: registry name ("python", "c").
    name: str

    def is_available(self) -> bool:
        """Can this backend build and run kernels on this machine?"""
        raise NotImplementedError

    def compile(
        self,
        lowered: LoweredKernel,
        label: Optional[str] = None,
        artifact: Optional[str] = None,
        einsum: Optional[str] = None,
        threaded: bool = False,
    ) -> Executable:
        """Build an executable.

        ``label`` names the kernel in diagnostics; ``artifact`` is an
        optional path to a previously-built binary (the disk store's
        ``<key>.so``) the backend may reuse instead of recompiling — a
        stale or corrupt artifact must fall back to a fresh build.
        ``einsum`` is the kernel's semantic identity for tuned compile
        overrides (:func:`repro.tune.compile_overrides`); backends
        without tunable codegen ignore it.  ``threaded`` says the
        caller's default thread setting can resolve above 1, so a backend
        with a separate multi-threaded build should produce it up front
        instead of on the first threaded run.
        """
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError
