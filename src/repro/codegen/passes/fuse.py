"""Fusion of adjacent vectorized statements into one element loop.

The lowered vocabulary renders every numpy row-slice update
(``ws0 += ...``, ``out[i] += ...`` over the trailing vector axis) as its
own ``for (_v = 0; _v < vlen; ++_v)`` loop.  Runs of two or more such
statements walk the same index space back to back; fusing them into a
single element loop reads each shared operand once per element and
halves the loop overhead.

Bit-identity argument.  In the element context every vector access —
read or write — is at index ``_v`` exactly (workspace elements
``ws[_v]``, output rows ``out[base + _v]``, dense rows ``x[row + _v]``).
For any element ``v``, the fused schedule executes the member statements
in original order, and a member that reads a vector an earlier member
wrote sees precisely the value the unfused schedule would have published
at index ``v``; elements never interact.  So the fused loop performs the
identical arithmetic per element in the identical order — bit-equal
results.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Sequence, Tuple

from repro.codegen.passes.base import Pass
from repro.codegen.loopir import Fused, LoopIR, Out, Reduce, Stmt


class FusePass(Pass):
    name = "fuse"

    def describe(self) -> str:
        return (
            "fuse runs of adjacent vectorized += statements into one "
            "element loop; bit-exact (all vector accesses are at the "
            "element index)"
        )

    def run(self, ir: LoopIR) -> LoopIR:
        body, fused = self._rewrite(ir.body)
        if fused:
            ir.body = list(body)
            ir.notes.append("fused %d run(s)" % fused)
        return ir

    def _rewrite(self, body: Sequence[Stmt]) -> Tuple[Tuple[Stmt, ...], int]:
        count = 0
        out: List[Stmt] = []
        run: List[Reduce] = []

        def flush() -> None:
            nonlocal count
            if len(run) >= 2:
                out.append(Fused(tuple(run)))
                count += 1
            else:
                out.extend(run)
            run.clear()

        for st in body:
            if self._fusable(st):
                run.append(st)
                continue
            flush()
            if hasattr(st, "body"):
                inner, n = self._rewrite(st.body)
                st = replace(st, body=inner)
                count += n
            out.append(st)
        flush()
        return tuple(out), count

    @staticmethod
    def _fusable(st: Stmt) -> bool:
        """A row ``+=`` onto a workspace or an ``out[...]`` row (the bare
        ``out[:]`` slice of a 1-d output stays a loop of its own)."""
        if not (isinstance(st, Reduce) and st.op == "+" and st.row):
            return False
        return not isinstance(st.target, Out) or bool(st.target.coords)
