"""Batch execution: many einsum requests, amortized compilation & binding.

A :class:`BatchRequest` pairs a compile spec with the runtime tensors to
apply it to.  :func:`run_batch` groups the batch three ways:

1. **by cache key** — each distinct kernel spec is resolved through the
   service's ``get_or_compile`` exactly once, however many requests share
   it;
2. **by input set** — within a kernel group, requests over the *same*
   tensor objects share one :class:`~repro.codegen.executor.ExecutionPlan`
   (:meth:`CompiledKernel.prepare` — the argument check of
   :func:`repro.frontend.validate.validate_inputs`, then format packing,
   transposed copies, fibertree construction — *and* the backend's
   argument marshaling run once, the paper's untimed setup; a request
   whose arguments fail the check raises ``ValidationError`` out of the
   batch before anything runs);
   the plan executes once per distinct input set and every duplicate
   request receives the (copied) result instead of re-running identical
   loops;
3. **across a thread pool** — the timed loop bodies of distinct input
   sets can fan out over worker threads; both the vectorized numpy
   kernels (GIL-releasing BLAS/ufunc calls) and the C backend (ctypes
   releases the GIL around the compiled loops) see real parallelism
   without multiprocessing.

Batch fan-out composes with *intra-kernel* OpenMP threading without
oversubscription: when the pool runs ``workers`` requests concurrently,
each kernel's resolved thread count is divided by the worker count
(floored at 1), so ``workers x threads`` never exceeds the machine by
design.  Pass an explicit per-request thread count via the kernel's
``CompilerOptions.threads`` to take manual control.

Results come back in request order, each tagged with the cache key and
whether the kernel was served hot.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.codegen.executor import ExecutionPlan, plan_identity
from repro.core.config import CompilerOptions, DEFAULT, resolve_threads
from repro.frontend.einsum import Assignment
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.service.keys import CompileRequest, canonicalize


@dataclass
class BatchRequest:
    """One unit of work: a compile spec plus the tensors to run it on."""

    einsum: Union[str, Assignment]
    tensors: Mapping[str, object]
    symmetric: Optional[Mapping] = None
    loop_order: Optional[Sequence[str]] = None
    formats: Optional[Mapping[str, str]] = None
    options: CompilerOptions = DEFAULT
    naive: bool = False
    sparse_levels: Optional[Mapping[str, Sequence[str]]] = None
    #: opaque caller identifier, echoed on the result.
    tag: Optional[object] = None

    def canonical(self) -> CompileRequest:
        return canonicalize(
            self.einsum,
            self.symmetric,
            self.loop_order,
            self.formats,
            self.options,
            self.naive,
            self.sparse_levels,
        )


@dataclass
class BatchResult:
    """The outcome of one batch request, in the order it was submitted."""

    tag: Optional[object]
    key: str
    output: np.ndarray
    cache_hit: bool
    group_size: int = 1


@dataclass
class _Group:
    """Requests sharing one compiled kernel."""

    kernel: object
    cache_hit: bool
    #: intra-kernel thread count for this batch (None = kernel default)
    threads: Optional[int] = None
    #: input-set identity -> reusable execution plan
    plans: Dict[Tuple, ExecutionPlan] = field(default_factory=dict)
    positions: List[int] = field(default_factory=list)


def _group_threads(kernel, workers: Optional[int]) -> Optional[int]:
    """The thread count that composes fan-out with OpenMP teams.

    Without fan-out the kernel's own default applies (``None``).  With
    ``workers`` concurrent input sets, the kernel's thread count is split
    across the pool so ``workers x threads`` never exceeds it.
    """
    if workers is None or workers <= 1:
        return None
    options = getattr(kernel, "options", None)
    setting = getattr(options, "threads", None)
    if setting is None:
        return None
    return max(1, resolve_threads(setting) // workers)


def _input_identity(tensors: Mapping[str, object]) -> Tuple:
    """Identity of a request's input set: same objects => same binding.

    Object identity keys the plan memo — two requests naming the very
    same arrays share the packed views and marshaled arguments;
    equal-but-distinct arrays are conservatively prepared separately.
    Each tensor also contributes its dtype and shape
    (:func:`repro.codegen.executor.plan_identity`), so a plan cached for
    one input set can never be replayed against a recast or reshaped
    twin that happens to reuse a collected object's ``id``.
    """
    return plan_identity(tensors)


def run_batch(
    service,
    requests: Sequence[BatchRequest],
    workers: Optional[int] = None,
) -> List[BatchResult]:
    """Execute *requests* against *service*, amortizing compile + prepare.

    ``workers`` > 1 fans the run stage across a thread pool; ``None`` or
    ``1`` runs sequentially (still amortized).  Results keep request order.
    """
    with obs_trace.span(
        "batch:run", requests=len(requests), workers=workers or 1
    ) as sp:
        results = _run_batch(service, requests, workers, sp)
    obs_metrics.inc("batch.runs")
    obs_metrics.inc("batch.requests", len(requests))
    obs_metrics.observe("batch.queue_depth", float(len(requests)))
    return results


def _run_batch(
    service,
    requests: Sequence[BatchRequest],
    workers: Optional[int],
    sp,
) -> List[BatchResult]:
    groups: Dict[str, _Group] = {}
    order: List[Tuple[str, Tuple, BatchRequest]] = []

    for position, request in enumerate(requests):
        canonical = request.canonical()
        key = canonical.key
        group = groups.get(key)
        if group is None:
            was_cached = service.is_cached(key)
            kernel = service.get_or_compile_request(canonical)
            group = groups[key] = _Group(
                kernel=kernel,
                cache_hit=was_cached,
                threads=_group_threads(kernel, workers),
            )
        ident = _input_identity(request.tensors)
        if ident not in group.plans:
            prepared, shape = group.kernel.prepare(**request.tensors)
            group.plans[ident] = group.kernel.bound.plan_prepared(
                prepared,
                shape,
                threads=group.threads,
                identity=ident,
                sources=request.tensors,
            )
        group.positions.append(position)
        order.append((key, ident, request))

    # each distinct (kernel, input set) executes its plan exactly once —
    # duplicate requests receive copies of the finished result instead of
    # re-running identical loops (plans hold one reusable buffer each, so
    # they must not run concurrently with themselves anyway)
    unique: List[Tuple[str, Tuple]] = []
    seen = set()
    for key, ident, _ in order:
        if (key, ident) not in seen:
            seen.add((key, ident))
            unique.append((key, ident))

    def run_unique(item: Tuple[str, Tuple]) -> np.ndarray:
        key, ident = item
        group = groups[key]
        return group.kernel.finalize(group.plans[ident]())

    sp.add(kernels=len(groups), unique_plans=len(unique))
    if workers is not None and workers > 1 and len(unique) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            outputs = dict(zip(unique, pool.map(run_unique, unique)))
    else:
        outputs = {item: run_unique(item) for item in unique}

    results: List[BatchResult] = []
    delivered = set()
    for key, ident, request in order:
        group = groups[key]
        output = outputs[(key, ident)]
        if (key, ident) in delivered:
            output = output.copy()  # isolate duplicate deliveries
        else:
            delivered.add((key, ident))
        results.append(
            BatchResult(
                tag=request.tag,
                key=key,
                output=output,
                cache_hit=group.cache_hit,
                group_size=len(group.positions),
            )
        )
    return results
