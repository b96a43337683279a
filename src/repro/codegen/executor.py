"""Bind tensor arguments and execute through a pluggable backend.

The :class:`BoundKernel` separates *preparation* (building fibertree views,
transposed dense copies, dimension resolution — the data rearrangement the
paper excludes from its timings) from *execution* (the generated loops) and
*finalization* (transposing the output view back and replicating the
canonical triangle — likewise excluded from the paper's timings).

Execution has one path: an :class:`ExecutionPlan` binds a prepared
argument set to the backend's executable
(:mod:`repro.codegen.backends`: the Python backend ``exec``'s the lowered
source, the C backend runs the same loop structure as a compiled shared
object) and every call of the plan runs the loops.  Running once
(:meth:`repro.core.compiler.CompiledKernel.run`) is a plan that is called
once.

Compile-time fallback
---------------------
A C source that does not build or load (other than
:class:`BackendUnavailableError`, which callers asked for explicitly)
falls back to the interpreted backend in :class:`BoundKernel`'s
constructor; the ``backend:compile`` span carries the reason as its
``fallback`` tag.  Nothing falls back at run time: a failed kernel call
raises (a C kernel's failed workspace allocation as :class:`MemoryError`).
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict, Mapping, Optional, Tuple

import numpy as np

from repro.codegen.backends import get_backend
from repro.codegen.backends.base import (
    BackendError,
    BackendUnavailableError,
)
from repro.codegen.lower import LoweredKernel
from repro.codegen.runtime import (
    REDUCE_IDENTITY,
    make_output,
    np_dtype,
    replicate_output,
)
from repro.core.config import resolve_threads
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.tensor.coo import COO
from repro.tensor.tensor import Tensor


def _instrumented(call):
    """*call* inside a ``plan:execute`` span and a
    ``plan.dispatch_seconds`` sample."""

    def observed(count: int) -> None:
        start = perf_counter()
        with obs_trace.span("plan:execute", threads=count):
            call(count)
        obs_metrics.observe("plan.dispatch_seconds", perf_counter() - start)

    return observed


def _as_tensor(name: str, value, symmetric_modes, dtype=np.float64) -> Tensor:
    """Wrap *value* as a :class:`Tensor` in the kernel's element dtype.

    A tensor already in the requested dtype is passed through untouched
    (keeping its warm view caches); anything else is cast once here, so
    every array the kernel reads — sparse payloads and dense views alike —
    carries exactly the dtype the generated code computes in.
    """
    dtype = np.dtype(dtype)
    if isinstance(value, Tensor):
        return value.astype(dtype)
    if isinstance(value, COO):
        return Tensor(value.astype(dtype), symmetric_modes.get(name, ()))
    arr = np.asarray(value)
    if arr.dtype != dtype:
        arr = arr.astype(dtype)
    return Tensor.from_dense(arr, symmetric_modes.get(name, ()))


def plan_identity(tensors: Mapping[str, object]) -> Tuple:
    """Fingerprint of an argument set for plan-reuse decisions.

    Object identity alone is not enough: an ``id()`` can be recycled after
    its owner is collected, and a recast twin (``t.astype(np.float32)``)
    could then masquerade as the original.  Each tensor therefore also
    contributes its dtype and shape, so a plan built for one argument set
    can never be replayed against a recast or reshaped replacement.
    Content is deliberately *not* hashed — same objects means same
    binding, equal-but-distinct arrays are conservatively distinct.
    """
    items = []
    for name in sorted(tensors):
        value = tensors[name]
        dtype = getattr(value, "dtype", None)
        shape = getattr(value, "shape", None)
        items.append(
            (
                name,
                id(value),
                str(dtype) if dtype is not None else None,
                tuple(shape) if shape is not None else None,
            )
        )
    return tuple(items)


class ExecutionPlan:
    """One kernel bound to one argument set: the only thing that runs loops.

    Built by :meth:`BoundKernel.plan_prepared` (or
    :meth:`CompiledKernel.execution_plan`): validation, dtype checks,
    backend argument marshaling and output allocation all happen exactly
    once, here.  Each ``plan()`` call only resets the output buffer to the
    reduction identity and invokes the pre-bound executable — no dict
    walks, no numpy wrapping, no ctypes re-marshaling — and returns the
    buffer (the timed region, i.e. *before*
    :meth:`~CompiledKernel.finalize`).  :meth:`CompiledKernel.run` is a
    plan built and called once.

    The returned array is the plan's internal buffer (or the caller-owned
    ``out``): its contents are valid until the next call.  Snapshots of
    sparse inputs are taken at prepare time exactly as with
    :meth:`BoundKernel.prepare` — replacing an input tensor's payload does
    **not** flow into an existing plan; use :meth:`matches` to detect a
    changed argument set and build a fresh plan.  Plans are not
    thread-safe: concurrent callers must use one plan each.

    Observability is sampled at plan-build time, by wrapping the bound
    callable: a plan built while tracing and metrics are off calls the
    backend's callable directly, forever — its dispatch body has no
    branch for them (``tests/test_plans.py`` counts the frames) — and
    enabling tracing later does not retrofit existing plans.  A plan
    built while tracing or metrics are on records a ``plan:execute``
    span / ``plan.dispatch_seconds`` sample around each run of the bound
    callable.
    """

    __slots__ = (
        "kernel",
        "prepared",
        "output_shape",
        "out",
        "threads",
        "_call",
        "_fill",
        "_fill_value",
        "_identity",
        "_sources",
        "_observed",
    )

    def __init__(
        self,
        kernel: "BoundKernel",
        prepared: Mapping[str, object],
        output_shape: Tuple[int, ...],
        threads=None,
        out: Optional[np.ndarray] = None,
        identity: Optional[Tuple] = None,
        sources: Optional[Mapping[str, object]] = None,
    ):
        if "threads" in prepared:
            raise ValueError(
                "'threads' is a reserved argument name and cannot be a tensor"
            )
        self.kernel = kernel
        self.prepared = dict(prepared)
        self.output_shape = tuple(int(s) for s in output_shape)
        spec = kernel.lowered.output
        # the loops write up to the extent arguments, not the buffer's size
        bounds = tuple(self.prepared.get("n_%s" % i) for i in spec.index_names)
        if len(self.output_shape) != spec.ndim or any(
            n is not None and int(n) != s for n, s in zip(bounds, self.output_shape)
        ):
            raise ValueError(
                "output shape %s contradicts the prepared extents %s"
                % (self.output_shape, bounds)
            )
        layout = spec.layout
        expected = tuple(self.output_shape[m] for m in layout)
        if out is None:
            # uninitialised: every call starts by resetting the buffer
            out = np.empty(expected, kernel.dtype)
        else:
            if tuple(out.shape) != expected:
                raise ValueError(
                    "caller-owned output buffer has shape %s, kernel layout "
                    "needs %s" % (tuple(out.shape), expected)
                )
            if out.dtype != kernel.dtype:
                raise ValueError(
                    "caller-owned output buffer is %s, kernel computes in %s"
                    % (out.dtype, kernel.dtype)
                )
            if not out.flags.c_contiguous or not out.flags.writeable:
                raise ValueError(
                    "caller-owned output buffer must be C-contiguous and "
                    "writeable"
                )
        #: the reusable output buffer every call writes into.
        self.out = out
        self._fill = out.fill
        self._fill_value = REDUCE_IDENTITY[spec.reduce_op]
        self._identity = identity
        # strong references to the original argument objects: prepare()
        # repacks inputs into new arrays, so without these the originals
        # could be collected and a same-dtype/same-shape replacement could
        # land on a recycled id() and falsely satisfy matches()
        self._sources = dict(sources) if sources is not None else None
        with obs_trace.span("plan:bind") as sp:
            setting = threads if threads is not None else kernel.threads
            #: the thread count calls run with (resolved once, at plan time).
            self.threads = kernel.resolve_run_threads(setting)
            call = kernel.executable.bind(self.out, self.prepared)
            #: sampled once, here (see the class docstring).
            self._observed = obs_trace.enabled() or obs_metrics.enabled()
            if self._observed:
                call = _instrumented(call)
            self._call = call
            sp.add(threads=self.threads)

    def __call__(self, threads=None) -> np.ndarray:
        """Run the kernel's loops; returns the (reused) output buffer."""
        self._fill(self._fill_value)
        if threads is None:
            self._call(self.threads)
        else:
            self._call(self.kernel.resolve_run_threads(threads))
        return self.out

    def matches(self, tensors: Mapping[str, object]) -> bool:
        """Would :meth:`BoundKernel.plan` on *tensors* bind the same set?

        False whenever any argument object (or its dtype/shape) differs
        from what this plan was built on — the signal to rebuild instead
        of replaying stale bindings.  The plan pins its original argument
        objects, so the identity comparison cannot be spoofed by a
        replacement landing on a recycled ``id()``.
        """
        return (
            self._identity is not None
            and plan_identity(tensors) == self._identity
        )

    def finalized(self) -> np.ndarray:
        """Run once and finalize (layout transpose-back + replication).

        Convenience for callers that want end-to-end results; note the
        result may alias the plan's buffer when no transform is needed —
        copy it before the next call if it must outlive one.
        """
        return self.kernel.finalize(self())


class BoundKernel:
    """A compiled kernel plus its argument-binding logic."""

    def __init__(
        self,
        lowered: LoweredKernel,
        symmetric_modes: Mapping,
        label: Optional[str] = None,
        backend: str = "python",
        threads=None,
        objects=None,
    ):
        self.lowered = lowered
        self.symmetric_modes = dict(symmetric_modes)
        self.backend_name = backend
        #: the element dtype every bound array (and the output buffer)
        #: carries — fixed by lowering, not by what the caller passes in
        self.dtype = np_dtype(lowered.dtype)
        #: default runtime thread count (``None`` = 1); a run may ask for
        #: another, so one bound kernel can serve any thread count
        self.threads = threads
        with obs_trace.span("backend:compile", backend=backend, label=label) as sp:
            try:
                self.executable = get_backend(backend).compile(
                    lowered, label=label, objects=objects
                )
            except BackendUnavailableError:
                raise  # the caller named a backend this machine lacks
            except (BackendError, OSError) as exc:
                # a source that does not build or load: serve it
                # interpreted (the toolchain's failure memo keeps cc from
                # rerunning on it)
                if backend == "python":
                    raise
                sp.add(fallback="%s: %s" % (type(exc).__name__, exc))
                self.backend_name = "python"
                self.executable = get_backend("python").compile(
                    lowered, label=label
                )

    # ------------------------------------------------------------------
    def prepare(self, **tensors) -> Dict[str, object]:
        """Build every array argument the kernel needs (untimed setup).

        Identical inputs are wrapped, densified and realized once per
        call: when the same tensor object backs several argument names
        (or several view requirements), the fibertree views and
        transposed dense copies are memoized instead of rebuilt.
        """
        with obs_trace.span("prepare", tensors=len(tensors)) as sp:
            return self._prepare(tensors, sp)

    def _prepare(self, tensors: Mapping[str, object], sp) -> Dict[str, object]:
        args: Dict[str, object] = {}
        wrapped: Dict[str, object] = {}
        by_identity: Dict[Tuple, object] = {}
        sparse = {view.tensor for view in self.lowered.sparse_views}
        for name, value in tensors.items():
            if name in sparse or isinstance(value, (Tensor, COO)):
                sym = tuple(tuple(p) for p in self.symmetric_modes.get(name, ()))
                key = (id(value), sym)
                if key not in by_identity:
                    by_identity[key] = _as_tensor(
                        name, value, self.symmetric_modes, dtype=self.dtype
                    )
            else:
                # an array that feeds only dense views: one copy (a plan
                # must not see the caller mutate it later), no COO round trip
                key = (id(value), None)
                if key not in by_identity:
                    by_identity[key] = np.array(
                        value, dtype=self.dtype, order="C", copy=True
                    )
            wrapped[name] = by_identity[key]

        # sparse views: Tensor.view memoizes per (mode_order, levels,
        # filter) on the wrapped tensor, so shared tensors share realizations
        presorted = 0
        for view in self.lowered.sparse_views:
            tensor = wrapped[view.tensor]
            fiber = tensor.view(view.mode_order, view.levels, view.tensor_filter)
            presorted += fiber.presorted
            for arr_name, arr in fiber.arrays().items():
                args["%s_%s" % (view.name, arr_name)] = arr
        views = len(self.lowered.sparse_views)
        sp.add(views=views, sorted=presorted, sorts=views - presorted)

        dense_base: Dict[int, np.ndarray] = {}
        dense_perm: Dict[Tuple[int, Tuple[int, ...]], np.ndarray] = {}
        for view in self.lowered.dense_views:
            tensor = wrapped[view.tensor]
            tkey = id(tensor)
            if tkey not in dense_base:
                dense_base[tkey] = (
                    tensor.to_dense()
                    if isinstance(tensor, Tensor)
                    else np.asarray(tensor)
                )
            pkey = (tkey, view.perm)
            if pkey not in dense_perm:
                arr = dense_base[tkey]
                if view.perm != tuple(range(arr.ndim)):
                    arr = np.ascontiguousarray(np.transpose(arr, view.perm))
                dense_perm[pkey] = arr
            args[view.name] = dense_perm[pkey]

        for dim in self.lowered.dims:
            args[dim.name] = int(wrapped[dim.tensor].shape[dim.mode])
        missing = set(self.lowered.arg_names) - set(args)
        if missing:
            raise ValueError("unbound kernel arguments: %s" % sorted(missing))
        return {name: args[name] for name in self.lowered.arg_names}

    # ------------------------------------------------------------------
    def make_output_buffer(self, shape: Tuple[int, ...]) -> np.ndarray:
        """Output buffer in the kernel's (vector-last) layout and dtype."""
        layout = self.lowered.output.layout
        permuted = tuple(shape[m] for m in layout)
        return make_output(permuted, self.lowered.output.reduce_op, self.dtype)

    def resolve_run_threads(self, setting) -> int:
        """Collapse a ``threads`` setting onto a concrete count for one run.

        ``None`` is 1; a positive integer is taken as given
        (``REPRO_THREADS=4`` means 4) — except on an executable that runs
        on one thread whatever it is asked (a parallel source loaded as
        its serial object, on a toolchain without OpenMP).
        """
        count = 1 if setting is None else resolve_threads(setting)
        if self.executable.single_threaded:
            return 1
        return max(1, count)

    # ------------------------------------------------------------------
    def plan(
        self,
        tensors: Mapping[str, object],
        output_shape: Tuple[int, ...],
        threads=None,
        out: Optional[np.ndarray] = None,
    ) -> ExecutionPlan:
        """Prepare/bind/validate once; repeat execution via the plan.

        ``tensors`` is the same argument set :meth:`prepare` takes (as a
        mapping); ``output_shape`` the logical output shape;  ``out``
        optionally supplies a caller-owned output buffer (kernel layout
        and dtype, validated here once).  See :class:`ExecutionPlan`.
        """
        return self.plan_prepared(
            self.prepare(**tensors), output_shape, threads, out,
            identity=plan_identity(tensors), sources=tensors,
        )

    def plan_prepared(
        self,
        prepared: Mapping[str, object],
        output_shape: Tuple[int, ...],
        threads=None,
        out: Optional[np.ndarray] = None,
        identity: Optional[Tuple] = None,
        sources: Optional[Mapping[str, object]] = None,
    ) -> ExecutionPlan:
        """:meth:`plan` over an argument set that is already prepared.

        ``identity``/``sources`` (the original argument mapping the
        identity was computed from) enable :meth:`ExecutionPlan.matches`;
        without them the plan conservatively matches nothing.
        """
        return ExecutionPlan(
            self, prepared, output_shape, threads, out, identity, sources
        )

    def finalize(self, out: np.ndarray) -> np.ndarray:
        """Undo the output layout permutation and replicate triangles."""
        layout = self.lowered.output.layout
        if layout != tuple(range(len(layout))):
            out = np.transpose(out, np.argsort(layout))
        if self.lowered.output.replication_parts:
            out = replicate_output(out, self.lowered.output.replication_parts)
        if out.ndim == 0:
            return out
        return np.ascontiguousarray(out)
