"""Explicit SIMD hints on provably element-disjoint vector loops.

The element loops the renderer emits for vectorized statements (and the
fused loops :mod:`~repro.codegen.passes.fuse` builds) touch
index ``_v`` only, through ``restrict``-qualified pointers — iterations
are independent by construction.  ``cc -O3`` usually proves that itself;
the ``#pragma omp simd`` hint makes the promise explicit so the
vectorizer stops re-deriving it (and keeps vectorizing when the
surrounding parallel region complicates its alias analysis).

Bit-identity: the hint is only placed on loops with no loop-carried
scalar reduction — each iteration computes and stores its own element,
so lane order cannot change any arithmetic.  The pragma is emitted
unguarded: the serial object is built with ``-fopenmp-simd`` (which
honours ``omp simd`` without defining ``_OPENMP`` or linking a runtime),
the OpenMP object with ``-fopenmp``, and a compiler that accepts neither
flag ignores the unknown pragma — one source, the same hint in both
objects.
"""

from __future__ import annotations

from repro.codegen.passes.base import Pass
from repro.codegen.loopir import LoopIR


class SimdPass(Pass):
    name = "simd"
    default_on = True
    bit_exact = True

    def describe(self) -> str:
        return (
            "#pragma omp simd on element-disjoint vector loops; bit-exact "
            "(no loop-carried reductions are hinted)"
        )

    def run(self, ir: LoopIR, codegen) -> LoopIR:
        ir.simd = True
        ir.notes.append("simd hints armed")
        return ir
