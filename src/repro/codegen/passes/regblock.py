"""Register blocking of row-valued nests over the vector index.

Every row statement the renderer prints is its own element loop over
the vector index, so each partial sum (``ws0[_v] += t0 * t3[_v]``) makes
a round trip through L1 for every nonzero the sparse walk visits, and an
element loop whose trip count is the run-time extent ``n_j`` takes
``gcc -O3`` far longer to compile than a fixed-16 one (the ``cc`` column
of the table below).  This pass wraps each
top-level nest whose every update is row-valued in a
:class:`~repro.codegen.loopir.Blocked` node that states its padded
copies, and :func:`stage` merges each run of consecutive blocked nests
into one, once every phase has run; the C printer prints the node's
fields, deciding none of them, as

.. code-block:: c

    {   /* rows: start rp_vb, stride rp_w = the extent rounded up */
        int64_t rp_vb = 0, rp_r = 0, rp_w = (n_j + 15) / 16 * 16;
        double *rp_out = out, *rp_B = (double *) B;   /* rows.copies */
        if (rp_w != n_j) {
            /* one calloc per array of rows.copies, rows of stride rp_w;
               the rows of copy_in copied in with __builtin_memcpy, or
               rp_status = 1 */
        }
        if (!rp_status) {
            if (rp_w == n_j) {   /* no test when clear_padded */
                /* clear, over rp_out: its canonical rows set to 0 */
            }
            for (rp_vb = 0; rp_vb < rp_w; rp_vb += 16) {
                /* nests[0] over rows: every element loop 16 long, row
                   reads at t[rp_vb + _v] with t = rp_B + row * rp_w, each
                   workspace of rows.local a double ws[16] at its Init */
            }
            /* ... one rp_vb loop per nest of the run ... */
            if (rp_w != n_j) {
                /* the rows of back copied back, n_j wide */
            }
        }
        if (rp_w != n_j) {
            /* the copies freed */
        }
    }

— Devito's ``_loop_blocking`` full block, with the remainder block
padded instead of printed again, and its ``promote_scalar_expressions``
done by the compiler on the fixed-size local arrays.  One nest is
printed per vector extent: no element loop of a blocked nest has a
run-time trip count, and no function-scope workspace is ``malloc``'d
for it.  When the extent is a multiple of the width nothing is copied
(``rp_out`` is ``out``).

Staging (:func:`_staging`).  The output and every dense array a nest
reads rows of get a zero-filled copy whose row stride is the padded
extent ``rp_w``; input rows are copied in and the output's rows back
out with ``__builtin_memcpy`` (a call, not an element loop for ``gcc``
to vectorize).  The output is not copied in by a run right after the
kernel's :class:`~repro.codegen.loopir.ClearOut`, which it takes in:
the clear resets what the run writes — the caller's rows when nothing
is staged, the staged copy otherwise, where ``calloc`` has already
written the ``+`` identity (a ``min``/``max`` clear writes it) — and
only the rows it cleared are copied back, so the non-canonical rows of
a symmetric output are never written; a clear with no coordinates
covers the whole buffer, so every row (one, of a 1-D output) is copied
back, and no nest that would take a clear ending inside a row is
blocked.  A run without the clear (after another nest, or in a profiled
build) copies the output in and back whole.  Against copying in the zeros
the executor used to write: TTM at rank 8 on ``kernel_steady``'s
inputs, one pinned CPU, 60 alternating calls on shared prepared
arguments, 0.74x and 0.76x per call (57 and 60 wins, seeds 12 and 29);
skipping the clear of the ``calloc``'d copy read 0.76x and 0.75x where
clearing it again read 0.82x and 0.83x.  Padding lives and dies inside one kernel call.

Matched nests (:func:`blockable`): a top-level ``for`` nest with no
:class:`~repro.codegen.loopir.Tiled`, whose every
:class:`~repro.codegen.loopir.If` tests only the nest's own loop
indices (the orbit guards of the diagonal nests: a guard that reads a
value or a scalar workspace is not matched), whose every
``Init``/``Reduce`` is row-valued — so running it once per block repeats
no scalar side effect — whose rows are all bound inside it, and whose
workspaces are each initialised once, inside the nest, ahead of every
use in the same scope, and used nowhere else (what makes a block-local
array a faithful copy).

Bit-identity argument.  Every row access is at the element index (the
argument of :mod:`~repro.codegen.passes.fuse`), so elements never
interact: for each element ``v < n_j`` the blocked schedule performs the
same operations on the same operands in the same order as the unblocked
one, only interleaved differently with other elements'.  A guard reads
only loop indices, so it takes the same branch in every block.  Padded
lanes (``n_j <= v < rp_w``) read zeros and are never copied back.
Bit-identical results, python / c / c@threads, at every extent.

Width.  A constant, not a knob.  Measured on the ``kernel_steady``
inputs when blocking first landed (rank 16, one pinned CPU, 30
alternating calls per kernel, output bit-identical on every call):

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
entries on average); one masked copy for any extent (0.30-0.43x; a
masked remainder block measured 3.4x and 2.4x slower at ranks 16 and 8);
a remainder walk instead of the guard (MTTKRP-4D 0.80x at rank 24).

One nest per extent, against the two-nest form it replaced (a fixed-16
copy behind ``if (n_j % 16 == 0)``, else the whole nest at run-time
width with unblocked diagonal nests): ``kernel_steady``'s inputs at
seed 12 with the rank varied, both objects called on the same prepared
arguments in one process, 30 alternating calls per rank on one pinned
CPU of a 2-vCPU Xeon, output bit-identical on every call; median ms,
two-nest → one nest.  The ``cc`` row is gcc 12.2 ``-O3 -march=native``,
median of 7 alternating builds of each source:

=====  ==================  ==================  ==================
rank   mttkrp3d            mttkrp4d            ttm
=====  ==================  ==================  ==================
1      3.40 → 2.00         3.89 → 2.24         2.25 → 2.66
4      3.62 → 2.52         4.02 → 2.12         2.56 → 3.28
8      3.13 → 2.15         3.56 → 2.24         2.35 → 3.69
12     5.11 → 2.37         5.20 → 2.18         4.56 → 4.16
16     2.47 → 2.36         2.34 → 2.11         2.41 → 2.39
24     5.93 → 4.89         9.05 → 4.46         6.02 → 9.39
32     5.42 → 5.22         4.47 → 4.24         5.88 → 5.87
cc     297 → 134 ms        523 → 235 ms        204 → 129 ms
=====  ==================  ==================  ==================

MTTKRP-5D builds in 425 ms instead of 1163, TTM-4D in 159 instead of
277.  TTM pays for the padding off multiples of 16: its output has
``n²`` rows (40 000 here), all staged, and its padded lanes double the
output traffic at rank 8 (1.2-1.6x at ranks 1, 4, 8 and 24).

The OpenMP team body prints the nest unblocked (as it does a ``Tiled``
one); the MTTKRP/TTM nests it matches are ``+`` scatters, which get no
team body at all.
"""

from __future__ import annotations

from dataclasses import replace
from typing import AbstractSet, Dict, Optional, Sequence, Set, Tuple

from repro.codegen.loopir import (
    ROW,
    WS,
    Array,
    BinOp,
    Blocked,
    ClearOut,
    Const,
    DenseLoop,
    Expr,
    FiberLoop,
    If,
    Init,
    Let,
    Loop,
    LoopIR,
    Load,
    Name,
    Reduce,
    Rows,
    Stmt,
    assigned,
    children,
    defines,
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
    # a guard runs once per block, so it may test only the nest's own loop
    # indices: never a value or a scalar workspace
    indices = {name for s in inner if isinstance(s, Loop) for name, _ in defines(s)}
    if any(
        isinstance(s, If) and reads([replace(s, body=())]) - indices for s in inner
    ):
        return False
    updates = [s for s in inner if isinstance(s, (Init, Reduce))]
    if not updates or not all(
        s.row if isinstance(s, Reduce) else s.ws.type == ROW for s in updates
    ):
        return False
    # a row bound outside the nest would point into an unpadded array
    outer_rows = {
        s.var.name for s in walk(others) if isinstance(s, Let) and s.var.type == ROW
    }
    if outer_rows & (reads([nest]) - assigned([nest])):
        return False
    return not (_names(others) & _names([nest]) & ws) and _scoped([nest], (), ws)


def _row_arrays(expr: Expr, found: Dict[str, Array]) -> None:
    if isinstance(expr, Load) and expr.type == ROW:
        found[expr.array.name] = expr.array
    elif isinstance(expr, BinOp):
        for arg in expr.args:
            _row_arrays(arg, found)


def _staging(
    ir: LoopIR, nests: Tuple[Stmt, ...], clear: Optional[ClearOut]
) -> Blocked:
    """The padded copies of one run of *nests*, which carries *clear*:
    the output's, then those of the dense arrays the nests read rows of."""
    output = ir.lowered.output
    found: Dict[str, Array] = {}
    for s in walk(nests):
        if isinstance(s, (Let, Init, Reduce)):
            _row_arrays(s.expr if isinstance(s, Let) else s.value, found)
    copies = (Array(Name("out"), "dense", output.ndim),)
    copies += tuple(found[name] for name in sorted(found))
    # each workspace is a block-local array (what blockable checked)
    local = sorted({name for s in walk(nests) for name, tag in defines(s) if tag == WS})
    rows = Rows(Const(WIDTH), Name("rp_vb"), Name("rp_w"), copies, tuple(local))
    return Blocked(
        nests,
        rows,
        # the clear resets what the run writes: the output is not copied in
        copy_in=copies[1:] if clear is not None else copies,
        clear=clear,
        # calloc's zeros are the + identity already; a min/max clear writes its own
        clear_padded=clear is not None and output.reduce_op != "+",
        # a clear with no coordinates is the whole buffer: every row back
        back=clear if clear is not None and clear.coords else None,
    )


def stage(ir: LoopIR, profile: bool) -> None:
    """Merge each run of consecutive top-level :class:`Blocked` nests into
    one, so that it stages its padded rows once (not in a *profile*
    build, which times each nest on its own), and move the kernel's
    ``ClearOut`` into the run right after it, as
    :func:`~repro.codegen.passes.base.absorb_clear` does for a ``Tiled``
    nest.  A nest with a team body is a ``Parallel`` here: a run of its
    own, for its serial fallback, which the clear stays ahead of."""
    body: list = []
    for s in ir.body:
        if isinstance(s, Blocked) and body and isinstance(body[-1], Blocked) and not profile:
            s = _staging(ir, body[-1].nests + s.nests, body.pop().clear)
        elif isinstance(s, Blocked) and body and isinstance(body[-1], ClearOut):
            s = _staging(ir, s.nests, body.pop())
        body.append(s)
    ir.body[:] = body


class RegblockPass(Pass):
    name = "regblock"

    def describe(self) -> str:
        return (
            "run row-valued nests once per %d-wide block of the vector index "
            "with block-local workspaces, over rows padded to a multiple of "
            "%d; bit-exact (elements never interact)"
            % (WIDTH, WIDTH)
        )

    def run(self, ir: LoopIR) -> LoopIR:
        if ir.lowered.vector_index is None:
            return ir
        types = local_types(ir.lowered.program)
        ws = {name for name, tag in types.items() if tag == WS}
        ndim = ir.lowered.output.ndim
        blocked = 0
        for pos, stmt in enumerate(ir.body):
            # a copy-back moves whole rows: no nest that would take a clear
            # ending inside a row is blocked (none does: the vector index is
            # never permutable, so no replication group reaches the last axis)
            clear = ir.body[pos - 1] if pos else None
            if isinstance(clear, ClearOut) and len(clear.coords) >= max(ndim - 1, 1):
                continue
            if blockable(stmt, ir.body[:pos] + ir.body[pos + 1:], ws):
                ir.body[pos] = _staging(ir, (stmt,), None)
                blocked += 1
        if blocked:
            ir.notes.append("blocked %d nest(s) by %d" % (blocked, WIDTH))
        return ir
