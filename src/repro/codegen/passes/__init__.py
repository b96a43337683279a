"""The loop-IR phase pipeline: every loop-level decision made after lowering.

Loop transformations are staged the way Devito's DLE rewriter stages
them and Parakeet chains ``Phase`` objects: the lowered program's
top-level statements (:mod:`repro.codegen.loopir` nodes) ride in a
:class:`~repro.codegen.loopir.LoopIR`, an ordered list of
:class:`~repro.codegen.passes.base.Pass` objects each takes and
returns it — matching on typed nodes, rebuilding the frozen ones it
changes, :func:`~repro.codegen.loopir.verify` re-checked after each —
and ``backends/c.py`` prints C from the transformed, annotated
statements.  It decides nothing itself.

Phases (pipeline order — mirroring Devito's ``_loop_blocking ->
_simdize -> _ompize``):

``fuse``
    merges runs of adjacent vectorized statements (numpy row-slice
    updates) into one element loop.  Bit-identical because every fused
    statement only touches vector element ``_v`` in iteration ``_v``.
``tile``
    row-blocks the triangle-bounded scatter nests (the SSYRK shape) so a
    block of output rows stays cache-resident across the whole structure
    walk.  Bit-identical because all writes to one output element share
    the same blocked coordinate, so per-element write order is the serial
    order.  The block count is chosen at run time, about 1 MiB of output
    rows per block and never more blocks than a quarter of the mean fiber
    length, which keeps the re-walk under a quarter of the nest's updates
    (proof sketch and measured shapes in :mod:`~repro.codegen.passes.tile`).
``simd``
    ``#pragma omp simd`` on the provably element-disjoint vector loops.
``parallelize``
    tags each top-level nest a thread team can share with its OpenMP
    strategy (``for | privatized | replay | atomic``; untagged = serial)
    and records the strategy per nest.  Not a ``$REPRO_PASSES``
    token: ``CodegenConfig.omp_strategy`` switches it (``serial`` = off).

Every ``$REPRO_PASSES`` token is on by default, and every pass preserves
bit-identity with the Python backend; the cross-backend differential
fuzzer sweeps pass subsets to enforce this per pass.  The resolved pass
set keys the service cache (see :mod:`repro.service.keys`) so
differently transformed kernels never alias.  Which set applies is
resolved once per request by
:meth:`repro.codegen.backends.base.CodegenConfig.resolve`.
"""

from repro.codegen.passes.base import (  # noqa: F401
    PASS_ORDER,
    PIPELINE,
    Pass,
    PassConfig,
    describe_passes,
    parse_passes,
    run_pipeline,
)
