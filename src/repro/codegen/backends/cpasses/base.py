"""The ``Pass`` interface, pass-set configuration and pipeline driver.

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
pipeline runs under the :class:`PassConfig` it is handed.  That resolved
value is part of a C kernel's identity — the service cache key, the wire
spec and the persisted state all carry it — so two differently
transformed builds of one einsum never alias in cache or store.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.codegen.loopir import LoopIR
from repro.core.config import warn_env_once
from repro.obs import trace as obs_trace

#: pipeline order (Devito's DLE stage order: denormal avoidance, then
#: the loop restructurings, then vectorization hints).
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
    """One loop transformation: takes a :class:`LoopIR`, returns it.

    Subclasses set ``name`` (the ``$REPRO_PASSES`` token), ``default_on``
    and ``bit_exact`` (whether the transformed kernel is bit-identical to
    the Python backend — the differential fuzzer enforces this for every
    pass claiming it), and implement :meth:`run`.
    """

    name = "?"
    default_on = False
    bit_exact = True

    def describe(self) -> str:
        """One line for ``repro backends`` / trace spans."""
        raise NotImplementedError

    def enabled(self, config: PassConfig) -> bool:
        return config.is_on(self.name)

    def run(self, ir: LoopIR, config: PassConfig) -> LoopIR:
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
    ir: LoopIR, config: PassConfig, label: Optional[str] = None
) -> LoopIR:
    """Run every enabled pass, in :data:`PASS_ORDER`, under trace spans."""
    for p in PIPELINE:
        if not p.enabled(config):
            continue
        before = len(ir.notes)
        with obs_trace.span("cpass:%s" % p.name, label=label) as sp:
            ir = p.run(ir, config)
            if len(ir.notes) > before:
                sp.add(note="; ".join(ir.notes[before:]))
    return ir


def describe_passes(config: PassConfig) -> List[Tuple[str, bool, str]]:
    """``(name, enabled, description)`` per pass, in pipeline order."""
    return [(p.name, p.enabled(config), p.describe()) for p in PIPELINE]


# importing the pass modules at the bottom sidesteps the base<->pass
# circularity; PIPELINE is the one place pass order is spelled out.
from repro.codegen.backends.cpasses.denormals import DenormalsPass  # noqa: E402
from repro.codegen.backends.cpasses.fission import FissionPass  # noqa: E402
from repro.codegen.backends.cpasses.fuse import FusePass  # noqa: E402
from repro.codegen.backends.cpasses.simd import SimdPass  # noqa: E402
from repro.codegen.backends.cpasses.tile import TilePass  # noqa: E402

PIPELINE: Tuple[Pass, ...] = (
    DenormalsPass(),
    FissionPass(),
    FusePass(),
    TilePass(),
    SimdPass(),
)

assert tuple(p.name for p in PIPELINE) == PASS_ORDER
