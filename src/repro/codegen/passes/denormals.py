"""Denormal avoidance: flush-to-zero / denormals-are-zero for the kernel.

Denormal operands put the FPU on a microcode assist path that can cost
two orders of magnitude per operation; iterative kernels whose values
decay toward zero (graph relaxations, repeated rank-k accumulation)
hit it hard.  The usual cure, ``-ffast-math``, is off the table here —
it licenses reassociation and breaks the bit-identity contract — so this
pass instead sets the FTZ and DAZ bits in the SSE control register
(MXCSR) for the duration of the kernel and restores the caller's state
afterwards, per thread inside OpenMP regions (MXCSR is thread state).

The pass is **off by default** and excluded from the bit-exact set:
whenever a denormal actually occurs, flushing it to zero changes the
result relative to the Python backend by definition.  It participates in
the pipeline, the cache key and the trace spans like every other pass;
the generated code is ``__SSE2__``-guarded and the env-driven
configuration drops the pass when :func:`ctoolchain.probe_ftz` fails.
"""

from __future__ import annotations

from repro.codegen.passes.base import Pass
from repro.codegen.loopir import LoopIR


class DenormalsPass(Pass):
    name = "denormals"
    default_on = False
    #: flushing denormals changes results when denormals occur.
    bit_exact = False

    def describe(self) -> str:
        return (
            "flush denormals to zero via MXCSR (FTZ|DAZ), saved/restored "
            "around the kernel and per OpenMP thread; not bit-exact"
        )

    def run(self, ir: LoopIR, codegen) -> LoopIR:
        ir.ftz = True
        ir.notes.append("ftz prologue armed")
        return ir
