"""Parallelisation: which top-level nests a thread team may share, and how.

The last phase of the pipeline.  It rewrites no loop: it wraps each
top-level nest that can run on several cores in a
:class:`~repro.codegen.loopir.Parallel` node naming the nest's
**reduction strategy**, and records one :class:`NestWork` per top-level
``for`` nest (annotated or not) on the pipeline state.  The C printer
emits an annotated nest twice — an OpenMP body and the serial fallback;
``repro backends`` and :func:`repro.obs.profile_kernel` read the recorded
strategies.  The strategy depends on the nest's output-write pattern:

* ``for`` — every write's leading output coordinate is the (injective)
  outer loop variable, so iterations touch disjoint output elements: a
  plain ``#pragma omp parallel for schedule(static)``.
* ``privatized`` — min/max scatter (e.g. Bellman–Ford relaxations): each
  thread updates a private output buffer initialized to the reduction
  identity; the buffers are combined pairwise in a tree and folded into
  the output.  min/max is associative and commutative over IEEE doubles,
  so any combination order is bit-identical to the serial run.  A failed
  buffer (or per-thread workspace) allocation makes the kernel return a
  nonzero status, which the call raises as :class:`MemoryError`.

A ``+`` scatter (the symmetric-kernel case: SSYMV / SSYRK / SYPRD /
MTTKRP / TTM mirror canonical entries to both triangles) gets no OpenMP
body.  Floating-point addition is not associative, so per-thread partial
sums would drift from the serial bit pattern, and both bit-exact ways
around that — an ordered per-thread scatter log replayed after the join,
``#pragma omp atomic`` on each update — ran every paper kernel slower at
two threads than at one, so neither is printed.  Nests the analysis
cannot prove safe (top-level intersection merges, a guarded outer fiber
loop, mixed reduction operators, an accumulator carried across
iterations) stay bare too, i.e. serial: such a kernel runs its serial
object at every thread count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

from repro.codegen import loopir as ir
from repro.codegen.passes.base import Pass


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

    def describe(self) -> str:
        return (
            "tag each top-level nest with its OpenMP strategy (for | "
            "privatized; a + scatter stays serial); bit-exact"
        )

    def run(self, state: ir.LoopIR) -> ir.LoopIR:
        types = ir.local_types(state.lowered.program)
        for pos, stmt in enumerate(state.body):
            nest = for_nest(stmt)
            if nest is not None:
                plan = _plan_nest(nest, stmt, state, types)
                state.work.append(NestWork(plan.strategy if plan is not None else None))
                if plan is not None:
                    state.body[pos] = plan
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
    node, stmt, state: ir.LoopIR, types: Mapping[str, str]
) -> Optional[ir.Parallel]:
    """Choose a parallel strategy for the top-level nest *node* (None =
    serial); *stmt* is what the annotation wraps, *node* or its ``Tiled``
    or ``Blocked`` wrapper."""
    scan = ir.scan_nest(node)
    # an accumulator updated inside the nest but initialised before it is
    # carried across iterations: one value every thread would update
    if not scan.ok or any(name not in scan.inits for name in scan.updates):
        return None
    kinds = {k for k, _, _ in scan.out_writes}
    if len(kinds) > 1:
        return None
    rows = {row for _, row, _ in scan.out_writes}
    if len(rows) > 1:
        return None  # mixed scalar and row writes in one nest
    if rows == {True} and state.lowered.vector_index is None:
        return None

    plan = lambda strategy: ir.Parallel(  # noqa: E731 - local shorthand
        nest=stmt,
        strategy=strategy,
        assigned=tuple(
            sorted(n for n in scan.assigned if types.get(n) not in (ir.WS, ir.LUT))
        ),
        ws_names=tuple(sorted(n for n in scan.assigned if types.get(n) == ir.WS)),
    )

    if not kinds:
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
    lead = leads.pop() if len(leads) == 1 else None
    if lead is not None and lead in injective:
        return plan("for")
    if kinds == {"minmax"} and state.lowered.output.reduce_op in ("min", "max"):
        return plan("privatized")
    return None
