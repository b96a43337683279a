"""The ``Pass`` interface, pass-set configuration and pipeline driver.

:data:`PIPELINE` (bottom of this file) is the one ordered declaration of
the loop phases, each entry saying what switches it on — a
``$REPRO_PASSES`` token for the five optional rewrites, the
``omp_strategy`` field for parallelisation.  :func:`run_pipeline` checks
:func:`~repro.codegen.loopir.verify` after every phase that changed a
statement, so one that breaks the naming rules fails here, by name, not
in ``cc``.

A pass-selection spec (``$REPRO_PASSES``, ``repro compile --passes``) is
a comma list of tokens: a bare name (or ``+name``) enables a pass,
``-name`` / ``!name`` disables one, and the words ``none`` / ``all`` /
``default`` reset the working set.  Tokens apply left to right, so
``none,tile`` means "only tiling" and ``all,-denormals`` means
"everything bit-exact".  Unknown tokens warn once per process and are
ignored.

Nothing here looks at ``REPRO_*`` variables or probes the toolchain: which
spec applies is decided once per compile request, by
:meth:`repro.codegen.backends.base.CodegenConfig.resolve`, and the
pipeline runs under the ``CodegenConfig`` it is handed.  That resolved
value is part of a C kernel's identity — the service cache key, the wire
spec and the persisted state all carry it — so two differently
transformed builds of one einsum never alias in cache or store.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, List, Optional, Tuple

from repro.codegen.loopir import LoopIR, LoweringError, verify
from repro.core.config import warn_env_once
from repro.obs import trace as obs_trace

if TYPE_CHECKING:  # backends.base imports this module for PassConfig
    from repro.codegen.backends.base import CodegenConfig
    from repro.codegen.lower import LoweredKernel

#: the ``$REPRO_PASSES`` tokens, in pipeline order (Devito's DLE stage
#: order: denormal avoidance, then the loop restructurings, then
#: vectorization hints).
PASS_ORDER = ("denormals", "fission", "fuse", "tile", "simd")

#: passes on by default — only those whose transformation is bit-exact
#: *and* never a regression (tile bounds its own cost, see its module).
#: fission reshapes iteration and is opt-in; denormals changes results
#: whenever a denormal occurs.
DEFAULT_ON = ("fuse", "tile", "simd")


@dataclass(frozen=True)
class PassConfig:
    """The resolved pass selection one render runs under."""

    enabled: Tuple[str, ...]
    #: tile-pass row-block size; 0 sizes the block at run time from the
    #: output row width (only an explicit ``PassConfig`` pins it).
    tile_rows: int = 0

    def is_on(self, name: str) -> bool:
        return name in self.enabled

    def signature(self) -> str:
        """Canonical cache-key text of this selection (``none``,
        ``fuse+simd``, ``fission+tile@64`` ...)."""
        parts = []
        for name in PASS_ORDER:
            if name not in self.enabled:
                continue
            if name == "tile":
                parts.append(
                    "tile@%s" % (self.tile_rows if self.tile_rows > 0 else "auto")
                )
            else:
                parts.append(name)
        return "+".join(parts) if parts else "none"

    __str__ = signature


class Pass:
    """One loop phase: takes a :class:`LoopIR`, returns it.

    Subclasses set ``name``, ``default_on`` and ``bit_exact`` (whether
    the transformed kernel is bit-identical to the Python backend — the
    differential fuzzer enforces this for every pass claiming it), and
    implement :meth:`run`.  ``name`` is the ``$REPRO_PASSES`` token that
    switches the phase on; a phase switched by another ``CodegenConfig``
    field clears ``token`` and overrides :meth:`enabled` to read it.
    """

    name = "?"
    token = True
    default_on = False
    bit_exact = True

    def describe(self) -> str:
        """One line for ``repro backends`` / trace spans."""
        raise NotImplementedError

    def enabled(self, codegen: "CodegenConfig") -> bool:
        return codegen.passes.is_on(self.name)

    def run(self, ir: LoopIR, codegen: "CodegenConfig") -> LoopIR:
        raise NotImplementedError


def parse_passes(text: str, default: Tuple[str, ...] = DEFAULT_ON) -> Tuple[str, ...]:
    """Resolve a pass-selection comma list into an enabled-name tuple."""
    enabled = {n for n in default if n in PASS_ORDER}
    for raw in text.split(","):
        token = raw.strip().lower()
        if not token:
            continue
        if token == "none":
            enabled.clear()
            continue
        if token == "all":
            enabled.update(PASS_ORDER)
            continue
        if token == "default":
            enabled = {n for n in default if n in PASS_ORDER}
            continue
        negate = token[0] in "-!"
        name = token[1:] if token[0] in "+-!" else token
        if name not in PASS_ORDER:
            warn_env_once(
                "REPRO_PASSES",
                token,
                "tokens from %s (optionally +/-/! prefixed), "
                "or none/all/default" % (", ".join(PASS_ORDER)),
                "the remaining tokens",
            )
            continue
        if negate:
            enabled.discard(name)
        else:
            enabled.add(name)
    return tuple(n for n in PASS_ORDER if n in enabled)


def run_pipeline(
    lowered: "LoweredKernel", codegen: "CodegenConfig", label: Optional[str] = None
) -> LoopIR:
    """Run every enabled phase over *lowered*'s top-level statements, in
    :data:`PIPELINE` order, under trace spans; :func:`verify` after each
    one that left the statements changed."""
    program = lowered.program
    ir = LoopIR(list(program.body), lowered)
    for p in PIPELINE:
        if not p.enabled(codegen):
            continue
        before, body = len(ir.notes), list(ir.body)
        with obs_trace.span("cpass:%s" % p.name, label=label) as sp:
            ir = p.run(ir, codegen)
            if len(ir.notes) > before:
                sp.add(note="; ".join(ir.notes[before:]))
            if ir.body == body:
                continue  # flags only, or no nest matched: nothing to re-check
            try:
                verify(replace(program, body=tuple(ir.body)))
            except LoweringError as exc:
                raise LoweringError("after phase %r: %s" % (p.name, exc)) from exc
    return ir


def describe_passes(codegen: "CodegenConfig") -> List[Tuple[str, bool, str]]:
    """``(name, enabled, description)`` per phase, in pipeline order."""
    return [(p.name, p.enabled(codegen), p.describe()) for p in PIPELINE]


# importing the pass modules at the bottom sidesteps the base<->pass
# circularity; PIPELINE is the one place phase order is spelled out.
from repro.codegen.passes.denormals import DenormalsPass  # noqa: E402
from repro.codegen.passes.fission import FissionPass  # noqa: E402
from repro.codegen.passes.fuse import FusePass  # noqa: E402
from repro.codegen.passes.parallelize import ParallelizePass  # noqa: E402
from repro.codegen.passes.simd import SimdPass  # noqa: E402
from repro.codegen.passes.tile import TilePass  # noqa: E402

PIPELINE: Tuple[Pass, ...] = (
    DenormalsPass(),  # token "denormals"
    FissionPass(),  # token "fission"
    FusePass(),  # token "fuse"
    TilePass(),  # token "tile"
    SimdPass(),  # token "simd"
    # last, so it sees the nests the rewrites above left behind
    ParallelizePass(),  # codegen.omp_strategy != "serial"
)

assert tuple(p.name for p in PIPELINE if p.token) == PASS_ORDER
