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

Degradation ladder
------------------
Every tier executes the same lowered loop structure, so results are
bit-identical by construction across ``c@omp`` (compiled, threads > 1;
served from the kernel's OpenMP object, built up front when the default
thread setting can exceed 1 and otherwise on the first threaded run),
``c`` (compiled, serial) and ``python`` (interpreted).  A *runtime*
failure in a compiled tier — the shared object breaking mid-session, an
OpenMP-tier crash, an injected fault — is handled in exactly one place,
:meth:`ExecutionPlan._recover`: it marks that tier unhealthy for the
process (:mod:`repro.codegen.backends.health`), refills the output buffer
with the reduction identity (a failed attempt may have partially written
it) and transparently re-serves the call from the next tier down.  A
*compile-time* failure of the C backend (other than
:class:`BackendUnavailableError`, which callers asked for explicitly)
falls back to the interpreted backend in :class:`BoundKernel`'s
constructor.  ``REPRO_NO_DEGRADE=1`` turns all of this off — failures
propagate raw.
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict, Mapping, Optional, Tuple

import numpy as np

from repro import faults
from repro.codegen.backends import get_backend
from repro.codegen.backends import health
from repro.codegen.backends.base import (
    BackendError,
    BackendUnavailableError,
    CodegenConfig,
)
from repro.codegen.lower import LoweredKernel
from repro.codegen.runtime import (
    REDUCE_IDENTITY,
    make_output,
    np_dtype,
    replicate_output,
)
from repro.core.config import knob, resolve_threads
from repro.faults.spec import FaultError
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.tensor.coo import COO
from repro.tensor.tensor import Tensor

#: failures the degradation ladder absorbs.  Anything else (a dtype
#: mismatch, a bad argument set) is a caller error in every tier and
#: propagates untouched.  :class:`BackendUnavailableError` is excluded at
#: the handling sites, not here — compile fallback re-raises it first.
_RECOVERABLE = (BackendError, FaultError, OSError)


def _polling_faults(call):
    """*call* behind the ``exec.omp`` / ``exec.c`` / ``exec.alloc``
    injection points (C-family tiers only: :meth:`ExecutionPlan._bind`
    gates on the backend and on :func:`faults.enabled`)."""

    def faulted(count: int) -> None:
        if count > 1:
            fault = faults.poll("exec.omp")
            if fault is not None:
                raise FaultError(fault)
        # exec.alloc forges the kernel's nonzero OOM status (a failed
        # per-thread workspace or scatter-log allocation), which surfaces
        # as the same BackendError the real path raises — proving the
        # health ladder re-serves such calls serially
        fault = faults.poll("exec.alloc")
        if fault is not None:
            raise BackendError(
                "injected: kernel workspace allocation failed (exec.alloc)"
            )
        faults.raise_if("exec.c")
        call(count)

    return faulted


def _instrumented(call):
    """*call* inside a ``plan:execute`` span and a
    ``plan.dispatch_seconds`` sample (a failed attempt leaves its span,
    the attempt that answers leaves the sample)."""

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

    Observability and fault injection are sampled at plan-build time, by
    wrapping the bound callable: a plan built while tracing, metrics and
    faults are off calls the backend's callable directly, forever — its
    dispatch body has no branch for them (``tests/test_plans.py`` counts
    the frames) — and enabling tracing later does not retrofit existing
    plans.  A plan built while tracing or metrics are on records a
    ``plan:execute`` span / ``plan.dispatch_seconds`` sample around each
    run of the bound callable; arm faults (or ``REPRO_FAULTS``) *before*
    building a plan for the ``exec.*`` points to fire in it.
    """

    __slots__ = (
        "kernel",
        "prepared",
        "output_shape",
        "out",
        "threads",
        "_call",
        "_tier",
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
        layout = kernel.lowered.output.layout
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
        self._fill_value = REDUCE_IDENTITY[kernel.lowered.output.reduce_op]
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
            #: sampled once, here (see the class docstring).
            self._observed = obs_trace.enabled() or obs_metrics.enabled()
            self._bind()
            sp.add(threads=self.threads)

    def _bind(self) -> None:
        """Marshal the argument set for the kernel's current executable."""
        kernel = self.kernel
        call = kernel.executable.bind(self.out, self.prepared)
        #: the backend ``_call`` is bound to (a sibling plan may degrade
        #: the kernel underneath before this plan is bound again)
        self._tier = kernel.backend_name
        if self._tier != "python" and faults.enabled():
            call = _polling_faults(call)  # exec.* points are C-tier-only
        if self._observed:
            call = _instrumented(call)
        self._call = call

    def __call__(self, threads=None) -> np.ndarray:
        """Run the kernel's loops; returns the (reused) output buffer."""
        self._fill(self._fill_value)
        if threads is None:
            count = self.threads
        else:
            count = self.kernel.resolve_run_threads(threads)
        try:
            self._call(count)
        except _RECOVERABLE as exc:
            self._recover(count, exc)
        return self.out

    def _recover(self, count: int, exc: BaseException) -> None:
        """Re-serve a failed call from the next ladder tier.

        The output buffer is refilled with the reduction identity first —
        the failed attempt may have partially written it — so the degraded
        result is bit-identical to a clean run of the surviving tier.
        """
        kernel = self.kernel
        # this plan's own tier, not the kernel's: still bound to the C
        # callable after a sibling plan degraded the kernel, it rebinds
        if self._tier == "python" or knob("REPRO_NO_DEGRADE"):
            raise exc
        if count > 1:
            health.mark("c@omp", exc)
            self.threads = 1  # future calls skip the dead tier outright
            self._fill(self._fill_value)
            try:
                self._call(1)
                return
            except _RECOVERABLE as serial_exc:
                exc = serial_exc
        health.mark("c", exc)
        kernel.degrade_to_python()
        with obs_trace.span("plan:rebind", backend="python"):
            self._bind()
        self.threads = 1
        self._fill(self._fill_value)
        self._call(1)

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
        codegen: Optional[CodegenConfig] = None,
        objects=None,
    ):
        self.lowered = lowered
        self.symmetric_modes = dict(symmetric_modes)
        self.backend_name = backend
        self._label = label
        #: the resolved configuration the C source was (or, rehydrated,
        #: will again be) rendered under — persisted with the kernel;
        #: ``None`` for python-backend requests
        self.codegen = codegen
        #: the element dtype every bound array (and the output buffer)
        #: carries — fixed by lowering, not by what the caller passes in
        self.dtype = np_dtype(lowered.dtype)
        #: default runtime thread count (``None`` = 1); a run may ask for
        #: another, so one bound kernel can serve any thread count
        self.threads = threads
        if backend != "python" and not knob("REPRO_NO_DEGRADE") and not health.ok("c"):
            # the C tier already failed this process (sticky): serve from
            # the floor instead of paying the failure again per kernel
            backend = self.backend_name = "python"
        # can the default thread setting ever resolve above 1?  Then the
        # backend builds its multi-threaded object now, not on first use
        threaded = (
            threads is not None
            and resolve_threads(threads) > 1
            and health.ok("c@omp")
        )
        with obs_trace.span("backend:compile", backend=backend, label=label):
            try:
                self.executable = get_backend(backend).compile(
                    lowered,
                    label=label,
                    codegen=codegen,
                    threaded=threaded,
                    objects=objects,
                )
            except BackendUnavailableError:
                raise  # the caller named a backend this machine lacks
            except _RECOVERABLE as exc:
                if backend == "python" or knob("REPRO_NO_DEGRADE"):
                    raise
                health.mark("c", exc)
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
        (``REPRO_THREADS=4`` means 4).
        """
        count = 1 if setting is None else resolve_threads(setting)
        if count > 1 and self.backend_name != "python" and not health.ok("c@omp"):
            return 1  # the OpenMP tier is marked dead: stay serial
        return max(1, count)

    def degrade_to_python(self) -> None:
        """Swap in the interpreted executable (the ladder's floor).

        Called after a C-tier runtime failure: subsequent calls through
        this kernel run the same lowered loops interpreted — bit-identical
        results, no per-call exception cost.
        """
        if self.backend_name == "python":
            return
        with obs_trace.span("backend:degrade", label=self._label):
            self.executable = get_backend("python").compile(
                self.lowered, label=self._label
            )
        self.backend_name = "python"

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
