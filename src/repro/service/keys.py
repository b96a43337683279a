"""Content-addressed cache keys for compile requests.

Two requests that would produce the same generated kernel must hash to the
same key, however they were spelled: einsum string or pre-parsed
:class:`Assignment`; ``{"A": True}`` or ``{"A": [[0, 1]]}`` or
``{"A": "{0,1}"}``; formats given in any dict order, with or without
explicit ``"dense"`` entries; loop order omitted or spelled out as the
default.  :func:`canonicalize` resolves every default the same way
``compile_kernel`` does and :func:`cache_key` hashes the canonical form.

The key material includes a format-version salt, so a change to the key
schema (or to what a key must capture) retires old disk-store entries
instead of silently aliasing them.

Runtime-only options (``CompilerOptions.threads`` — see
:data:`repro.core.config.RUNTIME_FIELDS`) are excluded from the key
material via ``CompilerOptions.to_dict``: two requests differing only in
thread count share one compiled kernel, and the thread count is supplied
per run instead.

The OpenMP *emission strategy* (``$REPRO_OMP_STRATEGY``) is the opposite
case: it changes the generated C, so for C-backend requests the resolved
strategy is captured at canonicalization time and keyed — an ``atomic``
build and an ``auto`` build of one einsum are distinct cached artifacts,
and a persisted ``.so`` is only ever rehydrated under the strategy that
produced it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Optional, Sequence, Tuple, Union

from repro.core.compiler import CompiledKernel, compile_kernel, resolve_request
from repro.core.config import CompilerOptions, DEFAULT
from repro.frontend.einsum import Assignment
from repro.frontend.parser import parse_assignment

#: bump when the canonical key material changes shape.
#: v2: options carry the execution backend (part of the key — a python
#: and a c build of the same einsum are distinct cached artifacts).
#: v3: C-backend requests key the resolved OpenMP emission strategy, so
#: auto/serial/atomic builds never alias one another in a shared store.
#: v4: options carry the element dtype — float32 and float64 builds of
#: one einsum are distinct artifacts and never alias in cache or store.
#: v5: C-backend requests key whether per-nest profiling (REPRO_PROFILE)
#: is compiled in, so instrumented builds never alias production ones.
#: v6: C-backend requests key the active optimization-pass set
#: (REPRO_PASSES / REPRO_TILE), so builds under different pass pipelines
#: never alias one another in cache or store.
#: v7: lowering factors workspaces; the default pass set tiles — an entry
#: persisted before holds a correct but slower program under the same
#: key material and would be served forever.
KEY_VERSION = 7


@dataclass(frozen=True)
class CompileRequest:
    """A fully-resolved, canonical compile request.

    Every field is in normal form (defaults applied, dicts flattened to
    name-sorted tuples), so structural equality of two requests coincides
    with equality of their cache keys (modulo the runtime-only ``threads``
    option, which keys ignore by design).
    """

    assignment: Assignment
    symmetric_modes: Tuple[Tuple[str, Tuple[Tuple[int, ...], ...]], ...]
    loop_order: Tuple[str, ...]
    formats: Tuple[Tuple[str, str], ...]
    options: CompilerOptions
    naive: bool
    sparse_levels: Tuple[Tuple[str, Tuple[str, ...]], ...]
    #: resolved OpenMP emission strategy for C-backend requests
    #: ("-" for backends the strategy cannot affect).
    omp_strategy: str = "-"
    #: whether per-nest profiling is compiled into the C source
    #: ("on"/"off"; "-" for backends profiling cannot affect).
    profile: str = "-"
    #: resolved optimization-pass signature for C-backend requests
    #: (:meth:`PassConfig.signature`; "-" for other backends).
    passes: str = "-"

    # ------------------------------------------------------------------
    def key_material(self) -> str:
        """The canonical string the cache key is a digest of."""
        parts = [
            "v%d" % KEY_VERSION,
            "einsum=%s" % self.assignment,
            "symmetric=%s"
            % ";".join(
                "%s:%s"
                % (name, "".join("(%s)" % ",".join(map(str, p)) for p in ps))
                for name, ps in self.symmetric_modes
            ),
            "loop=%s" % ",".join(self.loop_order),
            "formats=%s" % ";".join("%s:%s" % nf for nf in self.formats),
            "options=%s"
            % ",".join(
                "%s=%s" % (name, int(value) if isinstance(value, bool) else value)
                for name, value in self.options.to_dict().items()
            ),
            "naive=%d" % self.naive,
            "levels=%s"
            % ";".join(
                "%s:%s" % (name, ",".join(levels))
                for name, levels in self.sparse_levels
            ),
            "omp=%s" % self.omp_strategy,
            "profile=%s" % self.profile,
            "passes=%s" % self.passes,
        ]
        return "|".join(parts)

    @cached_property
    def key(self) -> str:
        """Stable content hash of the request (sha256 hex).

        Memoized per instance (writes to ``__dict__`` directly, which the
        frozen dataclass permits) — the hot serve path probes this on
        every request.
        """
        return hashlib.sha256(self.key_material().encode("utf-8")).hexdigest()

    # ------------------------------------------------------------------
    def compile(self) -> CompiledKernel:
        """Run the full compiler on this (already-canonical) request."""
        return compile_kernel(
            self.assignment,
            symmetric=dict(self.symmetric_modes),
            loop_order=self.loop_order,
            formats=dict(self.formats),
            options=self.options,
            naive=self.naive,
            sparse_levels={n: list(ls) for n, ls in self.sparse_levels} or None,
        )


def canonicalize(
    einsum: Union[str, Assignment],
    symmetric: Optional[Mapping] = None,
    loop_order: Optional[Sequence[str]] = None,
    formats: Optional[Mapping[str, str]] = None,
    options: CompilerOptions = DEFAULT,
    naive: bool = False,
    sparse_levels: Optional[Mapping[str, Sequence[str]]] = None,
) -> CompileRequest:
    """Resolve a user-facing compile spec into a :class:`CompileRequest`.

    Defaulting is delegated to
    :func:`repro.core.compiler.resolve_request` — the same code path
    ``compile_kernel`` runs — so a key can never describe different
    defaults than the compiler would apply.
    """
    assignment = (
        parse_assignment(einsum) if isinstance(einsum, str) else einsum
    )
    symmetric_modes, loop_order, formats, options = resolve_request(
        assignment, symmetric, loop_order, formats, options, naive
    )
    # explicit "dense" entries equal the unlisted default — drop them so
    # {"A": "sparse", "x": "dense"} and {"A": "sparse"} share a key
    canonical_formats = tuple(
        sorted((n, f) for n, f in formats.items() if f != "dense")
    )
    if options.backend == "c":
        from repro import tune
        from repro.codegen.backends.c import default_omp_strategy
        from repro.codegen.backends.cpasses import active_pass_config
        from repro.obs import profile as obs_profile

        # a tuned compile-level variant fills whatever the environment
        # left at its default — through the same helper the renderer
        # consults, so the key always describes the source that gets
        # rendered for it
        tuned_passes, tuned_strategy = tune.compile_overrides(
            str(assignment), options.dtype
        )
        omp_strategy = (
            tuned_strategy
            if tuned_strategy is not None
            else default_omp_strategy()
        )
        profile = "on" if obs_profile.enabled() else "off"
        passes = (
            tuned_passes
            if tuned_passes is not None
            else active_pass_config()
        ).signature()
    else:
        omp_strategy = "-"  # the strategy cannot affect other backends
        profile = "-"  # only the C renderer emits instrumentation
        passes = "-"  # only the C renderer runs the pass pipeline
    return CompileRequest(
        assignment=assignment,
        symmetric_modes=tuple(sorted(symmetric_modes.items())),
        loop_order=tuple(loop_order),
        formats=canonical_formats,
        options=options,
        naive=bool(naive),
        sparse_levels=tuple(
            sorted(
                (name, tuple(levels))
                for name, levels in (sparse_levels or {}).items()
            )
        ),
        omp_strategy=omp_strategy,
        profile=profile,
        passes=passes,
    )


def cache_key(
    einsum: Union[str, Assignment],
    symmetric: Optional[Mapping] = None,
    loop_order: Optional[Sequence[str]] = None,
    formats: Optional[Mapping[str, str]] = None,
    options: CompilerOptions = DEFAULT,
    naive: bool = False,
    sparse_levels: Optional[Mapping[str, Sequence[str]]] = None,
) -> str:
    """The content-address of a compile spec (convenience wrapper)."""
    return canonicalize(
        einsum, symmetric, loop_order, formats, options, naive, sparse_levels
    ).key
