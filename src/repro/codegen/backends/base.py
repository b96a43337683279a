"""The execution-backend interface and the configuration it compiles under.

A *backend* turns a :class:`~repro.codegen.lower.LoweredKernel` into an
:class:`Executable` — something that binds, ``bind(out, arrays) ->
call(threads)``, exactly the argument set :meth:`BoundKernel.prepare`
produces, and runs only through what it bound.  The loop structure is
fixed by lowering; backends only decide how those loops run (interpreted
Python vs. a compiled shared object).

:class:`CodegenConfig` is everything that shapes generated C beyond the
lowered loops and the fixed loop-phase pipeline that rewrites them.  It
is resolved **once** per compile request — :meth:`CodegenConfig.resolve`,
called by :func:`repro.core.compiler.resolve_request` — and from there
only moves as a value: the cache key hashes it, the wire spec and the
store entry carry it, and the C printer renders under it.  Nothing downstream of the
resolver looks at the environment again, so a key can never describe a
different program than the one that gets built for it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Optional

import numpy as np

from repro.codegen.lower import LoweredKernel
from repro.core.config import knob


@dataclass(frozen=True)
class CodegenConfig:
    """The resolved C-codegen configuration of one compile request.

    Every field changes the generated source, so every field is cache-key
    material (:meth:`repro.service.keys.CompileRequest.key_material`
    enumerates them — a field added here retires old keys by itself).
    The loop phases are not configuration: every kernel runs all of them.
    """

    #: whether per-nest wall-time instrumentation is compiled in.
    profile: bool = False

    @classmethod
    def resolve(cls) -> "CodegenConfig":
        """Defaults <- environment: ``$REPRO_PROFILE`` names the
        instrumentation.  Nothing here runs the toolchain."""
        return cls(knob("REPRO_PROFILE"))

    def to_dict(self) -> dict:
        """The JSON form the wire spec and the store entry carry."""
        return {"profile": self.profile}

    @classmethod
    def from_dict(cls, doc) -> "CodegenConfig":
        """Rebuild :meth:`to_dict` output, validated as outside input (a
        wire peer or a store file wrote it): ``ValueError`` on anything
        but a bool — and on any other key, so a peer asking for a setting
        this version does not know (an older one's pass selection, say)
        gets an error, not a build without it."""
        if not isinstance(doc, dict):
            raise ValueError("codegen must be an object")
        unknown = sorted(set(doc) - {"profile"})
        if unknown:
            raise ValueError("codegen has unknown keys: %s" % ", ".join(unknown))
        profile = doc.get("profile")
        if not isinstance(profile, bool):
            raise ValueError("codegen.profile must be a bool")
        return cls(profile)


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
        codegen: Optional[CodegenConfig] = None,
        objects=None,
    ) -> Executable:
        """Build an executable.

        ``label`` names the kernel in diagnostics.
        ``codegen`` is the request's resolved :class:`CodegenConfig`
        (``None`` for requests the Python backend serves, which has no
        configurable codegen).  ``objects`` is the
        :class:`~repro.codegen.backends.objects.ObjectCache` a backend
        with compiled binaries finds and builds them in (``None``: the
        process instance; a disk store hands down its own).
        """
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError
