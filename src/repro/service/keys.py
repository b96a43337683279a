"""Content-addressed cache keys for compile requests.

Two requests that would produce the same generated kernel must hash to the
same key, however they were spelled: einsum string or pre-parsed
:class:`Assignment`; ``{"A": True}`` or ``{"A": [[0, 1]]}`` or
``{"A": "{0,1}"}``; formats given in any dict order, with or without
explicit ``"dense"`` entries; loop order omitted or spelled out as the
default.  :func:`canonicalize` resolves every default the same way
``compile_kernel`` does and :func:`cache_key` hashes the canonical form.

The configuration half of the key is *derived, not listed*: the material
enumerates the dataclass fields of :class:`CompilerOptions`, so a field
is keyed unless it is tagged runtime-only
(:data:`repro.core.config.RUNTIME_FIELDS`: two requests differing only
in thread count share one compiled kernel) and adding a field retires
old keys by itself.  Nothing else configures the generated code — the
environment included — so the material describes the program built for
it.

The material also includes a version salt, bumped by hand only when a
*semantic* change must retire entries whose material would read the same.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields
from functools import cached_property, lru_cache
from typing import Mapping, Optional, Sequence, Tuple, Union

from repro.core.compiler import CompiledKernel, compile_kernel, resolve_request
from repro.core.config import CompilerOptions, DEFAULT, RUNTIME_FIELDS
from repro.frontend.einsum import Assignment
from repro.frontend.parser import parse_assignment

#: the salt for *semantic* changes — ones that alter the program built
#: for unchanged key material (v7: lowering factored workspaces and the
#: default pass set began tiling; an entry persisted before would hold a
#: correct but slower program forever).  Added, removed or renamed
#: configuration fields need no bump: the material enumerates them.
#: v8: the material changed shape once, to that enumeration.
KEY_VERSION = 8

#: one parse per einsum text: every service hit canonicalizes its spec, and
#: an :class:`Assignment` is immutable (a failed parse is never cached)
_parse = lru_cache(maxsize=256)(parse_assignment)


def _fields_text(config, skip=frozenset()) -> str:
    """``name=value,...`` over every dataclass field of *config* not in
    *skip*, in declaration order (bools as 0/1, anything else as its
    ``str``)."""
    parts = []
    for f in fields(config):
        if f.name not in skip:
            value = getattr(config, f.name)
            if isinstance(value, bool):
                value = int(value)
            parts.append("%s=%s" % (f.name, value))
    return ",".join(parts)


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
            "options=%s" % _fields_text(self.options, RUNTIME_FIELDS),
            "naive=%d" % self.naive,
            "levels=%s"
            % ";".join(
                "%s:%s" % (name, ",".join(levels))
                for name, levels in self.sparse_levels
            ),
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
    assignment = _parse(einsum) if isinstance(einsum, str) else einsum
    symmetric_modes, loop_order, formats, options = resolve_request(
        assignment, symmetric, loop_order, formats, options, naive
    )
    # explicit "dense" entries equal the unlisted default — drop them so
    # {"A": "sparse", "x": "dense"} and {"A": "sparse"} share a key
    canonical_formats = tuple(
        sorted((n, f) for n, f in formats.items() if f != "dense")
    )
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
