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
cache-resident across one full structure walk.

Bit-identity argument.  Every write to one output element carries the
same blocked coordinate ``j``, so all of an element's writes land in
exactly one block; within that block's pass, iteration order is the
serial order restricted to a subset.  Per-element accumulation order is
therefore exactly the serial order — bit-identical results, for any
block count.

Block count (the pass always runs, so it has to bound its own cost).
The block height is sized at run time: about 1 MiB of output rows per
block, but at most ``max(1, c / 4)`` blocks, where ``c = pos[n] / n`` is
the mean length of the ``n`` fibers the nest walks
(:func:`auto_tile_rows`).  Why a quarter: every block re-walks each
fiber up to its upper row, which reads at most
``blocks / 2 * nnz <= c * nnz / 8`` index entries, while the nest
performs ``sum(c_f ** 2) / 2 >= c * nnz / 2`` updates (Cauchy-Schwarz,
any fiber-length distribution) — the extra sequential compares stay
under a quarter of the read-modify-write updates even where blocking
buys no locality at all.  Without the cap, "1 MiB per block" loses
whenever there are more blocks than the fibers have entries to amortise
them over.  SSYRK on uniform random operands, one pinned CPU, the whole
pipeline against the pipeline without ``tile`` interleaved (2 MiB L2;
the ``1 MiB`` column is what that rule alone would pick):

==========================  ====  ======  ======  =====================
output, stored entries      c     1 MiB   blocks  tiled vs untiled
==========================  ====  ======  ======  =====================
1200 x 1200, nnz 48 000     40    12      10      1.75x faster
1200 x 1200, nnz 12 000     10    12      2       1.05-1.08x slower
3000 x 3000, nnz 60 000     20    70      5       equal
3000 x 3000, nnz 300 000    100   70      25      2.0x faster
600 x 600, nnz 12 000       20    3       3       1.09x slower (20 us)
192 x 192, nnz 2 000        10    1       1       equal
==========================  ====  ======  ======  =====================

(Pinned at 10 blocks, the second shape is 1.5x slower.)  What the bound
does not model is the fixed cost of visiting a fiber once more per block
— two unpredictable branches — which is what the two sub-millisecond
shapes lose.

The kernel's output clear (:class:`~repro.codegen.loopir.ClearOut`),
when it directly precedes a tiled nest, moves into it once every
phase has run (:func:`~repro.codegen.passes.base.absorb_clear`): each block clears
its own rows' part of the region just before it accumulates into them,
so the zeroing happens in cache instead of going out to memory ahead of
the nest.  Every write of the nest leads with the blocked output row,
so no row is written before its block has cleared it.

The annotation applies to serial emission only: an OpenMP team body
prints the nest untiled.  The ssyrk-shaped nests it matches are ``+``
scatters, which get no team body at all.
"""

from __future__ import annotations

from typing import List, Optional

from repro.codegen.passes.base import Pass
from repro.codegen.loopir import (
    DenseLoop,
    FiberLoop,
    Intersect,
    LoopIR,
    Tiled,
    Var,
    defines,
    loop_var,
    scan_nest,
    walk,
)


def single_fiber(nest, bind) -> bool:
    """Does *bind* walk exactly the one fiber *nest*'s variable selects
    (``range(pos[v], pos[v + 1])``)?  Then its ``idx`` run is sorted."""
    return (
        isinstance(bind, FiberLoop)
        and bind.parent == Var(loop_var(nest), "int")
        and bind.bound is None
        and bind.coord_var is not None
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

    def describe(self) -> str:
        return (
            "row-block triangle-bounded scatter nests (SSYRK shape) so a "
            "block of output rows stays cache-resident per structure walk; "
            "bit-exact (per-element write order preserved); blocks of "
            "~1MiB, at most mean fiber length / 4 of them"
        )

    def run(self, ir: LoopIR) -> LoopIR:
        if ir.lowered.output.ndim != 2:
            return ir
        tiled = 0
        for pos, stmt in enumerate(ir.body):
            lead = self._match(stmt)
            if lead is not None:
                ir.body[pos] = Tiled(stmt, lead)
                tiled += 1
        if tiled:
            ir.notes.append("tiled %d nest(s)" % tiled)
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
