"""The ``Pass`` interface and the pipeline driver.

:data:`PIPELINE` (bottom of this file) is the one ordered declaration of
the loop phases, and :func:`run_pipeline` runs every one of them, every
time: nothing selects a subset.  Each phase decides from the program
itself whether it applies — a nest it does not match passes through
unchanged — the way Devito's ``_pipeline`` runs a fixed phase sequence.
:func:`run_pipeline` checks :func:`~repro.codegen.loopir.verify` after
every phase that changed a statement, so one that breaks the naming
rules fails here, by name, not in ``cc``.

Nothing here looks at ``REPRO_*`` variables: the C a kernel gets
depends only on its lowered program.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING, Optional, Tuple

from repro.codegen.loopir import LoopIR, LoweringError, verify
from repro.obs import trace as obs_trace

if TYPE_CHECKING:
    from repro.codegen.lower import LoweredKernel


class Pass:
    """One loop phase: takes a :class:`LoopIR`, returns it.

    Subclasses set ``name`` and implement :meth:`run`, which must leave
    the kernel bit-identical to the Python backend (the differential
    fuzzer runs every kernel through the whole pipeline to enforce it).
    """

    name = "?"

    def describe(self) -> str:
        """One line for ``repro backends`` / trace spans."""
        raise NotImplementedError

    def run(self, ir: LoopIR) -> LoopIR:
        raise NotImplementedError


def run_pipeline(lowered: "LoweredKernel", label: Optional[str] = None) -> LoopIR:
    """Run every phase over *lowered*'s top-level statements, in
    :data:`PIPELINE` order, under trace spans; :func:`verify` after each
    one that left the statements changed."""
    program = lowered.program
    ir = LoopIR(list(program.body), lowered)
    for p in PIPELINE:
        before, body = len(ir.notes), list(ir.body)
        with obs_trace.span("cpass:%s" % p.name, label=label) as sp:
            ir = p.run(ir)
            if len(ir.notes) > before:
                sp.add(note="; ".join(ir.notes[before:]))
            if ir.body == body:
                continue  # flags only, or no nest matched: nothing to re-check
            try:
                verify(replace(program, body=tuple(ir.body)))
            except LoweringError as exc:
                raise LoweringError("after phase %r: %s" % (p.name, exc)) from exc
    return ir


# importing the pass modules at the bottom sidesteps the base<->pass
# circularity; PIPELINE is the one place phase order is spelled out.
from repro.codegen.passes.fuse import FusePass  # noqa: E402
from repro.codegen.passes.parallelize import ParallelizePass  # noqa: E402
from repro.codegen.passes.regblock import RegblockPass  # noqa: E402
from repro.codegen.passes.simd import SimdPass  # noqa: E402
from repro.codegen.passes.tile import TilePass  # noqa: E402

PIPELINE: Tuple[Pass, ...] = (
    # the loop restructurings, then vectorization hints (Devito's DLE
    # stage order)
    FusePass(),
    TilePass(),
    RegblockPass(),  # leaves the Tiled nests alone
    SimdPass(),
    # last, so it sees the nests the rewrites above left behind
    ParallelizePass(),
)
