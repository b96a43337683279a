"""Parallelisation: which top-level nests a thread team may share, and how.

The last phase of the pipeline.  It rewrites no loop: it wraps each
top-level nest that can run on several cores in a
:class:`~repro.codegen.loopir.Parallel` node naming the nest's
**reduction strategy**, and records one :class:`NestWork` per top-level
``for`` nest (annotated or not) on the pipeline state.  The C printer
emits an annotated nest twice — an OpenMP body and the serial fallback;
``repro backends`` and the ``REPRO_PROFILE`` report read the recorded
strategies.  The strategy depends on the nest's output-write pattern:

* ``for`` — every write's leading output coordinate is the (injective)
  outer loop variable, so iterations touch disjoint output elements: a
  plain ``#pragma omp parallel for schedule(static)``.
* ``privatized`` — min/max scatter (e.g. Bellman–Ford relaxations): each
  thread updates a private output buffer initialized to the reduction
  identity; the buffers are combined pairwise in a tree and folded into
  the output.  min/max is associative and commutative over IEEE doubles,
  so any combination order is bit-identical to the serial run.
* ``replay`` — ``+`` scatter (the symmetric-kernel case: SSYMV / SSYRK /
  SYPRD / MTTKRP / TTM mirror canonical entries to both triangles):
  floating-point addition is *not* associative, so per-thread partial
  sums would drift from the serial bit pattern.  Instead each thread
  appends its (target, value) scatter updates to a private log;
  ``schedule(static)`` hands threads contiguous iteration chunks in
  thread order, so replaying the logs thread-by-thread after the join
  reconstructs the exact serial write sequence — the multiply/traversal
  work parallelizes, and results are bit-identical to ``threads=1`` and
  to the Python backend at any thread count.  The per-thread log buffers
  live in a pool inside the shared object that is *reused across calls*
  (grown once, reset to empty per run), so steady-state repeat execution
  pays no per-call allocation; when two host threads run the same kernel
  concurrently, the second takes a freshly allocated local set instead
  of the pool.  The logs cost memory proportional to the largest run's
  scatter-write count (16 bytes per scalar update, ``8 + 8*vlen`` per
  row update, split across threads), retained for the life of the loaded
  object; a failed log (or per-thread workspace) allocation makes the
  kernel return a nonzero status, which surfaces as a
  :class:`~repro.codegen.backends.base.BackendError` and lets the
  execution ladder re-serve the call serially.
* ``atomic`` — ``#pragma omp atomic`` on each scalar ``+=``; the fallback
  when the ordered log is explicitly disabled
  (``REPRO_OMP_STRATEGY=atomic``).  Atomic updates commute in arrival
  order, so this mode trades bit-reproducibility for zero log memory.

Nests the analysis cannot prove safe (top-level intersection merges, a
guarded outer fiber loop, mixed reduction operators, reads of a carried
accumulator) stay bare, i.e. serial.  The phase is switched by
``CodegenConfig.omp_strategy`` — already cache-key material — not by a
``$REPRO_PASSES`` token: ``serial`` skips it, so no nest is annotated,
no strategy is recorded and the kernel is never upgraded to an OpenMP
object.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Set

from repro.codegen import loopir as ir
from repro.codegen.passes.base import Pass
from repro.core.config import OMP_STRATEGY_CHOICES


@dataclass(frozen=True)
class NestWork:
    """What the phase decided for one top-level nest."""

    #: the strategy the nest's OpenMP body runs under; ``None`` = serial.
    strategy: Optional[str] = None

    def describe(self) -> str:
        return self.strategy or "serial"


def for_nest(stmt):
    """The ``for`` loop a top-level statement opens — what a thread team
    can share — looking through the pass wrappers; else ``None``."""
    while isinstance(stmt, (ir.Tiled, ir.Blocked, ir.Parallel)):
        stmt = stmt.nest
    return stmt if isinstance(stmt, (ir.DenseLoop, ir.FiberLoop)) else None


class ParallelizePass(Pass):
    name = "parallelize"
    token = False

    def describe(self) -> str:
        return (
            "tag each top-level nest with its OpenMP strategy (for | "
            "privatized | replay | atomic); bit-exact "
            "but for atomic; switched by REPRO_OMP_STRATEGY, not a token"
        )

    def enabled(self, codegen) -> bool:
        return codegen.omp_strategy != "serial"

    def run(self, state: ir.LoopIR, codegen) -> ir.LoopIR:
        if codegen.omp_strategy not in OMP_STRATEGY_CHOICES:
            raise ValueError(
                "unknown parallel mode %r (choices: %s)"
                % (codegen.omp_strategy, ", ".join(OMP_STRATEGY_CHOICES))
            )
        kernel = state.lowered.program
        types = ir.local_types(kernel)
        atomic = codegen.omp_strategy == "atomic"
        # names bound before the nest at hand: a carried accumulator must
        # have been initialized by the preamble or an earlier nest
        assigned_top = ir.assigned(kernel.preamble)
        for pos, stmt in enumerate(state.body):
            nest = for_nest(stmt)
            if nest is not None:
                plan = _plan_nest(nest, stmt, state, types, assigned_top, atomic)
                state.work.append(NestWork(plan.strategy if plan is not None else None))
                if plan is not None:
                    state.body[pos] = plan
            assigned_top |= ir.assigned([stmt])
        state.notes.append(
            "nests: %s" % ", ".join(w.strategy or "serial" for w in state.work)
        )
        return state


# ----------------------------------------------------------------------
# nest analysis: can this top-level loop run on all cores, and how?
# (the scan itself lives in loopir so the pass matchers and the
# strategy choice agree on what a nest contains)
# ----------------------------------------------------------------------
def _plan_nest(
    node, stmt, state: ir.LoopIR, types: Mapping[str, str], assigned_top: Set[str], atomic: bool
) -> Optional[ir.Parallel]:
    """Choose a parallel strategy for the top-level nest *node* (None =
    serial); *stmt* is what the annotation wraps, *node* or its ``Tiled``
    or ``Blocked`` wrapper."""
    scan = ir.scan_nest(node)
    if not scan.ok:
        return None

    # accumulators carried across iterations: updated inside the
    # nest, initialized before it
    carried = sorted(name for name in scan.updates if name not in scan.inits)
    if any(name not in assigned_top for name in carried):
        return None
    # a *read* of a carried accumulator inside the nest would observe
    # a partially-replayed value — only pure updates are safe
    if ir.reads([node]) & set(carried):
        return None
    kinds = {k for k, _, _ in scan.out_writes}
    kinds |= {scan.updates[n] for n in carried}
    if len(kinds) > 1:
        return None
    kind = kinds.pop() if kinds else None

    rows = {row for _, row, _ in scan.out_writes}
    rows |= {types.get(n) == ir.WS for n in carried}
    if len(rows) > 1:
        return None  # mixed scalar and row writes in one nest
    row = rows.pop() if rows else False
    if row and state.lowered.vector_index is None:
        return None

    assigned = tuple(
        sorted(
            n
            for n in scan.assigned
            if n not in carried and types.get(n) not in (ir.WS, ir.LUT)
        )
    )
    ws_names = tuple(
        sorted(n for n in scan.assigned if types.get(n) == ir.WS and n not in carried)
    )
    plan = lambda strategy: ir.Parallel(  # noqa: E731 - local shorthand
        nest=stmt,
        strategy=strategy,
        row=row,
        carried=tuple(carried),
        assigned=assigned,
        ws_names=ws_names,
    )

    if kind is None:
        return plan("for")  # nothing shared is written
    # names taking a distinct value on every iteration: the loop
    # variable, and the coordinate a top-level position loop reads —
    # it can only span one fiber, whose ``idx`` run is sorted
    injective = {ir.loop_var(node)}
    if isinstance(node, ir.FiberLoop):
        injective.add(node.coord_var)
    # disjointness needs every write to lead with the *same* injective
    # name: two distinct injective names (the position var and the
    # coordinate read off it) are each injective yet can collide with
    # one another across iterations
    leads = {lead for _, _, lead in scan.out_writes}
    disjoint = (
        not carried
        and len(leads) == 1
        and next(iter(leads)) is not None
        and next(iter(leads)) in injective
    )
    if disjoint:
        return plan("for")
    if kind == "minmax":
        if carried or state.lowered.output.reduce_op not in ("min", "max"):
            return None
        return plan("privatized")
    if atomic and not row:
        return plan("atomic")
    return plan("replay")
