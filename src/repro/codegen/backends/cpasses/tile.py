"""Cache blocking (row tiling) of triangle-bounded scatter nests.

The SSYRK-shape nest walks the whole sparse structure once and scatters
``out[j, i] += ...`` with ``j`` read off a sorted fiber; for outputs
larger than cache, successive ``j`` values touch rows far apart and
every write misses.  This pass wraps the nest in a block loop over
output rows: each pass over the structure handles only the rows in
``[lo, hi)``, skipping foreign entries with a guard injected right after
the fiber coordinate read —

.. code-block:: c

    for (rp_tb = 0; rp_tb < out_dims[0]; rp_tb += rp_tile) {
        /* original nest, with inside the fiber loop: */
        j = idx[q];
        if (j >= rp_thi) { break; }
        if (j < rp_tb)   { continue; }

``break`` (not ``continue``) is sound because the fiber's ``idx`` run is
sorted ascending — once ``j`` leaves the block no later entry of that
fiber can belong to it — which makes the re-walk cheap: each fiber scan
stops at the block's upper row.  A block of output rows stays
cache-resident across one full structure walk (measured 1.3–2.8x on
dense-row SSYRK at n in the thousands).

Bit-identity argument.  Every write to one output element carries the
same blocked coordinate ``j``, so all of an element's writes land in
exactly one block; within that block's pass, iteration order is the
serial order restricted to a subset.  Per-element accumulation order is
therefore exactly the serial order — bit-identical results.

The block size defaults to keeping roughly 1 MiB of output rows resident
(``$REPRO_TILE`` pins an explicit row count).  The annotation applies to
serial emission only; OpenMP bodies replay in untiled serial order and
stay bit-identical by the existing replay argument.
"""

from __future__ import annotations

from typing import List, Optional

from repro.codegen.backends.cpasses.base import Pass, PassConfig
from repro.codegen.backends.cpasses.fission import single_fiber
from repro.codegen.loopir import (
    DenseLoop,
    Intersect,
    LoopIR,
    Tiled,
    defines,
    scan_nest,
    walk,
)


def auto_tile_rows(elem: str, pos: str, fibers: str) -> List[str]:
    """C statements defining ``rp_tile``, the run-time block height.

    About 1 MiB of output rows per block, but no more blocks than a
    quarter of the mean length of the fibers the nest walks
    (``pos[fibers] / fibers``) — the bound of the module docstring.
    """
    return [
        "int64_t rp_tile = 1048576 / ((out_dims[1] > 0 ? out_dims[1] : 1)"
        " * (int64_t) sizeof(%s));" % elem,
        "if (rp_tile < 8) { rp_tile = 8; }",
        "int64_t rp_nb = (out_dims[0] + rp_tile - 1) / rp_tile;",
        "int64_t rp_cap = (%s) > 0 ? %s[%s] / (4 * (%s)) : 0;"
        % (fibers, pos, fibers, fibers),
        "if (rp_nb > rp_cap) { rp_nb = rp_cap; }",
        "if (rp_nb < 1) { rp_nb = 1; }",
        "rp_tile = (out_dims[0] + rp_nb - 1) / rp_nb;",
        "if (rp_tile < 1) { rp_tile = 1; }",
    ]


class TilePass(Pass):
    name = "tile"
    default_on = True
    bit_exact = True

    def describe(self) -> str:
        return (
            "row-block triangle-bounded scatter nests (SSYRK shape) so a "
            "block of output rows stays cache-resident per structure walk; "
            "bit-exact (per-element write order preserved); blocks of "
            "~1MiB, at most mean fiber length / 4 of them (REPRO_TILE "
            "pins a row count instead)"
        )

    def run(self, ir: LoopIR, config: PassConfig) -> LoopIR:
        if ir.out_ndim != 2:
            return ir
        tiled = 0
        for pos, stmt in enumerate(ir.body):
            lead = self._match(stmt)
            if lead is not None:
                ir.body[pos] = Tiled(stmt, lead, config.tile_rows)
                tiled += 1
        if tiled:
            ir.notes.append(
                "tiled %d nest(s) (rows=%s)"
                % (tiled, config.tile_rows if config.tile_rows > 0 else "auto")
            )
        return ir

    # ------------------------------------------------------------------
    def _match(self, node) -> Optional[str]:
        """The blocked coordinate of a tileable nest, else None."""
        if not (isinstance(node, DenseLoop) and len(node.body) == 1):
            return None
        # the guarded loop must walk exactly one fiber, whose idx run is
        # sorted — that is what licenses the break (vs continue) guard
        bind = node.body[0]
        if not single_fiber(node, bind):
            return None
        lead = bind.coord_var
        # structured fors only (the injected break must bind to the
        # fiber loop)
        inner = list(walk([node]))
        if any(isinstance(st, Intersect) for st in inner):
            return None
        scan = scan_nest(node)
        if not scan.ok or not scan.out_writes:
            return None
        # every write must lead with the blocked coordinate — that is the
        # whole bit-identity argument
        for kind, row, write_lead in scan.out_writes:
            if kind != "add" or row or write_lead != lead:
                return None
        # the lead must be bound exactly once (the fiber coordinate read)
        bindings = [name for st in inner for name, _ in defines(st)]
        if bindings.count(lead) != 1:
            return None
        return lead
