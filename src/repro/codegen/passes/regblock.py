"""Register blocking of row-valued nests over the vector index.

Every row statement the renderer prints is its own element loop
``for (_v = 0; _v < n_j; ++_v)`` with a run-time trip count, over
``malloc``'d workspaces, so each partial sum (``ws0[_v] += t0 * t3[_v]``)
makes a round trip through L1 for every nonzero the sparse walk visits.
This pass wraps each top-level nest whose every update is row-valued in
a :class:`~repro.codegen.loopir.Blocked` node, which the C printer
emits as

.. code-block:: c

    if (n_j % 16 == 0) {
        int64_t rp_vb;
        for (rp_vb = 0; rp_vb < n_j; rp_vb += 16) {
            /* the nest: every element loop 16 long, row reads at
               [rp_vb + _v], and each row workspace a local double ws[16]
               declared where its Init is */
        }
    } else {
        /* the nest, unchanged */
    }

— Devito's ``_loop_blocking`` full block, with the remainder replaced by
the whole unblocked nest, and its ``promote_scalar_expressions`` done by
the compiler on the fixed-size local arrays.

Matched nests (:func:`blockable`): a top-level ``for`` nest with no
:class:`~repro.codegen.loopir.If` (orbit-guarded diagonal nests stay as
they are) and no :class:`~repro.codegen.loopir.Tiled`, whose every
``Init``/``Reduce`` is row-valued — so running it once per block repeats
no scalar side effect — and whose workspaces are each initialised once,
inside the nest, ahead of every use in the same scope, and used nowhere
else (what makes a block-local array a faithful copy).

Bit-identity argument.  Every row access is at the element index (the
argument of :mod:`~repro.codegen.passes.fuse`), so elements never
interact: for each element ``v`` the blocked schedule performs the same
operations on the same operands in the same order as the unblocked one,
only interleaved differently with other elements'.  Bit-identical
results, python / c / c@threads.

Width.  A constant, not a knob: the blocked branch runs only when the
vector extent is a multiple of it, so any other extent runs exactly the
unblocked code.  Measured on the ``kernel_steady`` inputs (rank 16, one
pinned CPU, 30 alternating calls per kernel, generated C edited by hand,
output bit-identical on every call):

==========  ===========  ===========  ========  =====================
kernel      unblocked    blocked      speedup   over four sessions
==========  ===========  ===========  ========  =====================
mttkrp3d    3.92 ms      2.34 ms      1.68x     1.47-1.77x
mttkrp4d    3.51 ms      1.95 ms      1.80x     1.47-1.80x
ttm         2.63 ms      2.09 ms      1.26x     1.26-1.54x
==========  ===========  ===========  ========  =====================

Ranks 32 and 48 gained 1.10-1.82x.  Shapes that lost: width 8 (two
walks of the structure at rank 16, 1.01-1.12x); blocking only the
innermost fiber loop (MTTKRP-4D 0.73x: its innermost fibers hold 1.75
entries on average); one masked copy for any extent (0.30-0.43x); a
remainder walk instead of the guard (MTTKRP-4D 0.80x at rank 24).

The OpenMP team body prints the nest unblocked (as it does a ``Tiled``
one); the MTTKRP/TTM nests it matches are ``+`` scatters, which get no
team body at all.
"""

from __future__ import annotations

from typing import AbstractSet, Sequence, Set

from repro.codegen.loopir import (
    ROW,
    WS,
    Blocked,
    DenseLoop,
    FiberLoop,
    If,
    Init,
    LoopIR,
    Reduce,
    Stmt,
    assigned,
    children,
    local_types,
    reads,
    walk,
)
from repro.codegen.passes.base import Pass

#: vector elements per block (the table in the module docstring).
WIDTH = 16


def _names(stmts: Sequence[Stmt]) -> Set[str]:
    return reads(stmts) | assigned(stmts)


def _scoped(body: Sequence[Stmt], live: AbstractSet[str], ws: AbstractSet[str]) -> bool:
    """Is every workspace of *ws* that *body* touches declared first —
    by an ``Init`` earlier in the same statement list or an enclosing
    one — and initialised only once?"""
    live = set(live)
    for stmt in body:
        if isinstance(stmt, Init):
            if stmt.ws.name in live or (reads([stmt]) & ws) - live:
                return False
            live.add(stmt.ws.name)
        elif not children(stmt):  # Let / Reduce; loop headers are integers
            if (_names([stmt]) & ws) - live:
                return False
        elif not _scoped(children(stmt), live, ws):
            return False
    return True


def blockable(nest, others: Sequence[Stmt], ws: AbstractSet[str]) -> bool:
    """Can the top-level statement *nest* run once per vector block?
    *others* are the remaining top-level statements, *ws* the kernel's
    workspace names."""
    # a Tiled (SSYRK-shaped) nest is not a bare loop: never matched
    if not isinstance(nest, (DenseLoop, FiberLoop)):
        return False
    inner = list(walk([nest]))
    if any(isinstance(s, If) for s in inner):
        return False
    updates = [s for s in inner if isinstance(s, (Init, Reduce))]
    if not updates or not all(
        s.row if isinstance(s, Reduce) else s.ws.type == ROW for s in updates
    ):
        return False
    return not (_names(others) & _names([nest]) & ws) and _scoped([nest], (), ws)


class RegblockPass(Pass):
    name = "regblock"

    def describe(self) -> str:
        return (
            "run row-valued nests once per %d-wide block of the vector index "
            "with block-local workspaces, when the extent is a multiple of "
            "%d; bit-exact (elements never interact)"
            % (WIDTH, WIDTH)
        )

    def run(self, ir: LoopIR) -> LoopIR:
        if ir.lowered.vector_index is None:
            return ir
        types = local_types(ir.lowered.program)
        ws = {name for name, tag in types.items() if tag == WS}
        blocked = 0
        for pos, stmt in enumerate(ir.body):
            if blockable(stmt, ir.body[:pos] + ir.body[pos + 1:], ws):
                ir.body[pos] = Blocked(stmt)
                blocked += 1
        if blocked:
            ir.notes.append("blocked %d nest(s) by %d" % (blocked, WIDTH))
        return ir
