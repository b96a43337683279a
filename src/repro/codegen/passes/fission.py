"""Loop fission of symmetric-scatter nests (the SSYMV shape).

The canonical-triangle walk of a symmetric operand fuses two logical
updates into one nest: a *scatter* half that mirrors each strict-triangle
entry to the other triangle (``out[i] += A[q] * x[j]`` with ``i`` read
off the fiber), and an *own-row* half accumulated into a scalar and
written at the outer coordinate (``out[j] += ws0``).  Mixed write leads
force the whole nest onto the ordered-replay parallel strategy; split
apart, the own-row half has provably disjoint writes and runs as a plain
``parallel for``, and each half traverses with a simpler inner body.

Bit-identity argument.  Strict canonical coordinates are strictly
*decreasing* in mode order — the outer loop carries the larger index, so
every scatter write targets ``out[i]`` with ``i < j``.  For any output
element ``x``, the serial schedule therefore performs the own-row write
(at iteration ``j == x``) first and the scatter writes (at iterations
``j > x``, in ascending ``(j, q)`` order) after it.  Emitting the
own-row nest first and the scatter nest second reproduces exactly that
per-element accumulation order, and floating-point addition only cares
about per-element order — so the fissioned kernel is bit-identical to
the fused one (and to the Python backend) at any thread count.

The matcher is deliberately narrow: one inner fiber loop over a
``strict`` view, straight-line scalar assigns, ``+=`` writes only.  Both copies recompute the cheap shared scalar
loads (``t1 = x[j]``); dead-code elimination then strips whatever each
half no longer needs.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Optional, Tuple

from repro.codegen.passes.base import Pass
from repro.codegen.loopir import (
    DenseLoop,
    ELEM,
    FiberLoop,
    Init,
    Let,
    LoopIR,
    Out,
    Reduce,
    Stmt,
    Var,
    loop_var,
    reads,
    scan_nest,
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


def _is_local_def(st: Stmt) -> bool:
    return isinstance(st, Let) or (isinstance(st, Init) and st.ws.type == ELEM)


def _is_accumulate(st: Stmt) -> bool:
    return isinstance(st, Reduce) and isinstance(st.target, Var)


def _out_lead(st: Stmt) -> Optional[str]:
    """Leading coordinate of an ``out[...] +=`` statement."""
    if isinstance(st, Reduce) and isinstance(st.target, Out) and st.target.coords:
        return st.target.coords[0]
    return None


def _local_name(st: Stmt) -> Optional[str]:
    """The scalar local *st* defines or accumulates into, if any."""
    if isinstance(st, Let):
        return st.var.name
    if _is_accumulate(st):
        return st.target.name
    return st.ws.name if _is_local_def(st) else None


def _dce(nest):
    """Fixpoint-remove local definitions nothing in the nest reads."""
    while True:
        live = reads([nest])

        def prune(body: Tuple[Stmt, ...]) -> Tuple[Stmt, ...]:
            kept = []
            for st in body:
                if isinstance(st, FiberLoop):
                    coord = st.coord_var if st.coord_var in live else None
                    st = replace(st, coord_var=coord, body=prune(st.body))
                elif isinstance(st, DenseLoop):
                    st = replace(st, body=prune(st.body))
                elif _local_name(st) not in live | {None}:
                    continue
                kept.append(st)
            return tuple(kept)

        pruned = replace(nest, body=prune(nest.body))
        if pruned == nest:
            return nest
        nest = pruned


class FissionPass(Pass):
    name = "fission"
    default_on = False
    bit_exact = True

    def describe(self) -> str:
        return (
            "split symmetric-scatter nests (strict-triangle mirror + "
            "own-row write) into a disjoint-write nest and a scatter nest; "
            "bit-exact (per-element write order preserved)"
        )

    def run(self, ir: LoopIR, codegen) -> LoopIR:
        body: List[Stmt] = []
        split = 0
        for stmt in ir.body:
            pieces = (
                self._try_split(stmt)
                if isinstance(stmt, (DenseLoop, FiberLoop))
                else None
            )
            if pieces is None:
                body.append(stmt)
            else:
                body.extend(pieces)
                split += 1
        ir.body = body
        if split:
            ir.notes.append("split %d nest(s)" % split)
        return ir

    # ------------------------------------------------------------------
    def _try_split(self, node) -> Optional[List[Stmt]]:
        outer = loop_var(node)
        scan = scan_nest(node)
        # scalar += writes only
        if not scan.ok or not scan.out_writes or any(
            kind != "add" or row for kind, row, _ in scan.out_writes
        ):
            return None

        bind: Optional[FiberLoop] = None
        own_writes = 0
        for st in node.body:
            if isinstance(st, (DenseLoop, FiberLoop)):
                if bind is not None:
                    return None  # one fiber loop only
                bind = st
            elif _is_local_def(st):
                continue
            elif _out_lead(st) == outer:
                own_writes += 1
            else:
                return None
        # strict canonical triangle: scatter lead strictly below the
        # outer coordinate, which the bit-identity argument requires
        if not (
            single_fiber(node, bind)
            and bind.tensor_filter == "strict"
            and bind.guard is None
        ):
            return None
        lead = bind.coord_var
        scatter_writes = 0
        for st in bind.body:
            if _is_local_def(st):
                continue
            if _is_accumulate(st):
                continue  # local accumulator (own-row half)
            if _out_lead(st) == lead:
                scatter_writes += 1
                continue
            return None
        if not scatter_writes or not own_writes:
            return None

        def rebuilt(bind_body, keep) -> Stmt:
            inner = replace(bind, body=tuple(bind_body))
            return _dce(
                replace(
                    node,
                    body=tuple(
                        inner if st is bind else st
                        for st in node.body
                        if st is bind or keep(st)
                    ),
                )
            )

        # own-row copy: drop the scatter writes, keep accumulators and
        # the outer-lead writes.  Emitted FIRST (see module docstring).
        own = rebuilt(
            [s for s in bind.body if _out_lead(s) != lead], lambda st: True
        )
        # scatter copy: drop local accumulators and outer-lead writes.
        scatter = rebuilt(
            [s for s in bind.body if not _is_accumulate(s)],
            lambda st: _out_lead(st) != outer,
        )
        return [own, scatter]
