"""The execution-backend interface.

A *backend* turns a :class:`~repro.codegen.lower.LoweredKernel` into an
:class:`Executable` — something that binds, ``bind(out, arrays) ->
call(threads)``, exactly the argument set :meth:`BoundKernel.prepare`
produces, and runs only through what it bound.  The loop structure is
fixed by lowering; backends only decide how those loops run (interpreted
Python vs. a compiled shared object), and nothing configures the code
they generate: it depends on the lowered program alone.
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
    """A runnable realization of one lowered kernel: :meth:`bind` an
    argument set, then call what it returns.

    ``threads`` is the runtime thread count for backends that can run a
    kernel's loops on several cores (the C backend's OpenMP bodies);
    backends without intra-kernel parallelism accept and ignore it.
    ``"threads"`` is a reserved argument name — no tensor argument may
    use it.
    """

    #: the source text this executable runs (Python or C).
    source: str

    #: ``finish(out, res)``, the program's second entry point: the result
    #: of the raw buffer ``out`` into ``res`` (``None``: ``out`` is it)
    finish: Optional[Callable[[np.ndarray, np.ndarray], None]] = None

    #: runs on one thread whatever count a call asks for (a parallel C
    #: source loaded as its serial object, on a toolchain without OpenMP)
    single_threaded = False

    def bind(
        self, out: np.ndarray, arrays: Mapping[str, object]
    ) -> Callable[[int], None]:
        """Marshal one complete argument set; the only way to execute.

        Returns ``call(threads)``, a callable that runs the kernel's loops
        on exactly the bound arguments — the hot half of an
        :class:`~repro.codegen.executor.ExecutionPlan`.  All per-argument
        processing (dtype coercion, ctypes packing) and every check on
        *out* happens here; the bound callable must keep every coerced
        buffer alive for as long as it exists.
        """
        raise NotImplementedError

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
        objects=None,
    ) -> Executable:
        """Build an executable.

        ``label`` names the kernel in diagnostics.  ``objects`` is the
        :class:`~repro.codegen.backends.objects.ObjectCache` a backend
        with compiled binaries finds and builds them in (``None``: the
        process instance; a disk store hands down its own).
        """
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError
