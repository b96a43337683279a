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
_simdize -> _ompize``, with ``regblock`` its register-level blocking):

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
``regblock``
    register-blocks the vector index: a nest whose every update is
    row-valued and whose guards test only its loop indices (the MTTKRP/TTM
    nests) runs once per 16-wide block of the rank with block-local
    workspaces, over rows padded to a multiple of 16, each ``Blocked``
    node stating its padded copies; once every phase has run, each run of
    blocked nests is merged into one.  Bit-identical because elements
    never interact (measured shapes in
    :mod:`~repro.codegen.passes.regblock`).
``simd``
    ``#pragma omp simd`` on the provably element-disjoint vector loops.
``parallelize``
    tags each top-level nest a thread team can share with its OpenMP
    strategy (``for`` for disjoint writes, ``privatized`` for a min/max
    scatter; a ``+`` scatter stays untagged, i.e. serial) and records the
    strategy per nest.

Every phase always runs — there is no pass selection, so one lowered
program has exactly one C translation unit — and
every phase preserves bit-identity with the Python backend; the
cross-backend differential fuzzer enforces it over the whole pipeline,
and a phase's worth is measured by timing a copy of the tree with that
phase removed from ``PIPELINE``.
"""

from repro.codegen.passes.base import PIPELINE, Pass, run_pipeline  # noqa: F401
