"""The SySTeC compiler driver (Figure 4).

``compile_kernel`` runs the full two-phase flow: symmetrize (Section 4.1),
optimize (Section 4.2), lower (concordize / CSE / workspace + sparse loop
emission) and bind, returning a :class:`CompiledKernel` callable on
logical tensors.  ``naive=True`` builds the baseline the paper's figures
normalize against instead: the naive plan, lowered without CSE and
workspaces.  ``optimize`` exposes just the plan-level pipeline for inspection
and testing.

The flow is factored into cacheable stages so the service layer
(:mod:`repro.service`) can memoize it: ``plan_kernel`` covers the
plan-level pipeline, ``lower_plan`` the loop-level one, and a finished
:class:`CompiledKernel` round-trips through :meth:`CompiledKernel.to_state`
/ :meth:`CompiledKernel.from_state` without re-running either.
"""

from __future__ import annotations

from dataclasses import dataclass

from typing import Dict, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.codegen.executor import BoundKernel, ExecutionPlan, plan_identity
from repro.codegen.lower import LoweredKernel, lower_plan
from repro.core.config import CompilerOptions, DEFAULT
from repro.core.kernel_plan import Block, KernelPlan, LoopNest
from repro.core.passes import (
    build_lookup_table,
    consolidate_blocks,
    group_across_branches,
    group_distributive,
    restrict_output_to_canonical,
    split_diagonals,
)
from repro.core.symmetrize import infer_loop_order, symmetrize
from repro.frontend.einsum import Assignment
from repro.obs import trace as obs_trace
from repro.frontend.parser import parse_assignment
from repro.frontend.validate import (
    validate_assignment,
    validate_inputs,
    validate_semiring,
)
from repro.symmetry.detect import default_rank
from repro.symmetry.groups import EquivalencePattern
from repro.symmetry.partitions import parse_mode_partition


def _normalize_symmetric(symmetric, assignment: Assignment) -> Dict[str, Tuple[Tuple[int, ...], ...]]:
    """User spec {tensor: True | partition | [[modes]]} -> mode parts."""
    out: Dict[str, Tuple[Tuple[int, ...], ...]] = {}
    for name, spec in (symmetric or {}).items():
        ndim = None
        for acc in assignment.accesses + (assignment.lhs,):
            if acc.tensor == name:
                ndim = len(acc.indices)
                break
        if ndim is None:
            raise ValueError("symmetric tensor %r not used in assignment" % name)
        partition = parse_mode_partition(spec, ndim)
        out[name] = tuple(tuple(p) for p in partition.parts)
    return out


def _validate_formats(formats: Mapping[str, str], assignment: Assignment) -> None:
    """Every format entry must name a tensor the assignment actually uses.

    A typo'd name used to be silently ignored (the kernel quietly fell back
    to the dense default for the tensor the user *meant*); now it fails
    loudly.
    """
    unknown = sorted(set(formats) - set(assignment.tensors))
    if unknown:
        raise ValueError(
            "formats name tensor(s) %s that do not appear in %s (tensors: %s)"
            % (unknown, assignment, ", ".join(assignment.tensors))
        )


#: the plan-level pipeline, in execution order: (name, pass).  Every
#: pass runs on every SySTeC plan (a pass with nothing to do returns the
#: plan unchanged).  One table drives both the pipeline and its per-pass
#: ``pass:<name>`` trace spans, so an added pass cannot silently run
#: untraced (or in a surprise order).
_PLAN_PASSES = (
    ("output_canonical", restrict_output_to_canonical),
    ("distributive", group_distributive),
    ("consolidate", consolidate_blocks),
    ("diagonal_split", split_diagonals),
    ("lookup_table", build_lookup_table),
    ("group_branches", group_across_branches),
)


def optimize(plan: KernelPlan) -> KernelPlan:
    """Run the plan-level optimization pipeline (Section 4.2)."""
    for name, pass_fn in _PLAN_PASSES:
        with obs_trace.span("pass:%s" % name):
            plan = pass_fn(plan)
    return plan


def naive_plan(
    assignment: Assignment, loop_order: Optional[Sequence[str]] = None
) -> KernelPlan:
    """The unoptimized plan: one nest, one unconditional block, iterating
    the *full* (replicated) tensors — the paper's naive-Finch baseline."""
    if loop_order is None:
        from repro.core.symmetrize import infer_loop_order

        loop_order = infer_loop_order(assignment)
    loop_order = tuple(loop_order)
    rank = default_rank(assignment, loop_order)
    block = Block(
        patterns=(EquivalencePattern((), ()),), assignments=(assignment,)
    )
    return KernelPlan(
        original=assignment,
        loop_order=loop_order,
        permutable=(),
        symmetric_modes={},
        nests=(LoopNest(blocks=(block,), tensor_filter="all"),),
        rank=rank,
        history=("naive",),
    )


def resolve_request(
    assignment: Assignment,
    symmetric: Optional[Mapping] = None,
    loop_order: Optional[Sequence[str]] = None,
    formats: Optional[Mapping[str, str]] = None,
    options: CompilerOptions = DEFAULT,
) -> Tuple[
    Dict[str, Tuple[Tuple[int, ...], ...]],
    Tuple[str, ...],
    Dict[str, str],
    CompilerOptions,
]:
    """Apply every defaulting rule of :func:`compile_kernel` in one place.

    Returns ``(symmetric_modes, loop_order, formats, options)`` fully
    resolved: symmetry specs normalized to mode partitions, an omitted
    loop order inferred, omitted formats marking each symmetric tensor
    sparse (explicit formats validated) and ``auto`` collapsed onto a
    concrete backend.  The cache-key canonicalizer
    (:mod:`repro.service.keys`) calls this same helper, so keys cannot
    drift from what the compiler builds.
    """
    from repro.codegen.backends import resolve_backend_name

    symmetric_modes = _normalize_symmetric(symmetric, assignment)
    if loop_order is None:
        loop_order = infer_loop_order(assignment)
    if formats is None:
        formats = {name: "sparse" for name in symmetric_modes}
    else:
        _validate_formats(formats, assignment)
    # "auto" collapses onto a concrete backend here, so cache keys and
    # persisted states always name the backend that actually runs
    backend = resolve_backend_name(options.backend)
    if backend != options.backend:
        options = options.but(backend=backend)
    return symmetric_modes, tuple(loop_order), dict(formats), options


def plan_kernel(
    assignment: Assignment,
    symmetric_modes: Mapping[str, Tuple[Tuple[int, ...], ...]],
    loop_order: Optional[Sequence[str]] = None,
    naive: bool = False,
) -> KernelPlan:
    """Stage 1 of compilation: the plan-level pipeline — symmetrize and
    :func:`optimize` for SySTeC, :func:`naive_plan` for the baseline."""
    if naive:
        return naive_plan(assignment, loop_order)
    with obs_trace.span("symmetrize"):
        plan = symmetrize(assignment, symmetric_modes, loop_order)
    return optimize(plan)


#: bump when the shape of :meth:`CompiledKernel.to_state` changes — stale
#: disk-store entries are then rejected instead of misinterpreted.
#: v2: options grew the ``backend`` field.
#: v3: the C kernel ABI gained a trailing runtime thread-count argument,
#: so shared objects persisted by earlier builds must not be rebound.
#: v4: the element dtype became a pipeline parameter (options.dtype +
#: lowered.dtype); float32 shared objects carry ``float`` value pointers,
#: so pre-dtype artifacts must not be rebound against the new ABI.
#: v5: the C kernel now returns an ``int64_t`` status (0 ok / 1 OOM);
#: void-ABI shared objects from earlier builds must not be rebound with
#: the status-checking call plan.
#: v6: ``lowered`` carries the typed loop program (``loopir`` nodes,
#: class-name tagged) instead of Python source text.
#: v7: the state carries the resolved ``codegen`` configuration and a
#: rehydrate renders under it, not under the reader's environment.
#: v8: a store entry's objects are an object-cache instance
#: (``<key>.<identity>-<content>.so``); the JSON no longer records an
#: ``artifact_sha256``, and the ``<key>.c``/``<key>.so`` sidecars of older
#: entries are evicted with them.
#: v9: ``pos``/``idx`` pointers are ``rp_index`` — 32-bit in the object a
#: fitting argument set runs, 64-bit only in the wide object — and every
#: object exports ``repro_index_bytes``; a v8 object (all ``int64_t``,
#: no width symbol) must not be rebound against 32-bit arrays.
#: v10: the state no longer carries a ``codegen`` configuration — the C
#: source depends on the lowered program alone.
#: v11: the loop program's first statement clears the output region it
#: writes (``ClearOut``) and the executor no longer fills the buffer per
#: call; a v10 program never clears, so it must not run under it.
#: v12: the persisted options lost the ``lookup_table`` field (every
#: SySTeC plan is built with the table).
#: v13: the loop program carries ``finish`` (``MirrorOut`` nests), the
#: entry point that replaced the executor's numpy transpose and mirror; a
#: v12 program has none, so its results would come back unfinished.
STATE_VERSION = 13


@dataclass(frozen=True)
class PlanSnapshot:
    """The slice of a :class:`KernelPlan` a compiled kernel needs at run
    time.

    Rehydrating from persisted state skips the pass pipeline entirely, so
    the nest/block structure is gone; what survives is the original
    assignment (for shape resolution), the loop facts, and the plan's
    pretty-printed description.
    """

    original: Assignment
    loop_order: Tuple[str, ...]
    permutable: Tuple[str, ...]
    symmetric_modes: Mapping[str, Tuple[Tuple[int, ...], ...]]
    history: Tuple[str, ...]
    description: str

    def describe(self) -> str:
        return self.description

    def _no_structure(self, attr: str):
        raise AttributeError(
            "this kernel was rehydrated from a persisted state and its plan "
            "is a PlanSnapshot without the optimized %s structure; recompile "
            "with compile_kernel(...) to inspect the full KernelPlan" % attr
        )

    # plan-structure surface that persistence intentionally drops — fail
    # with an explanation, not a bare missing-attribute error, when e.g.
    # analyze_plan or verify_plan_coverage receives a rehydrated plan
    @property
    def blocks(self):
        self._no_structure("block")

    @property
    def nests(self):
        self._no_structure("nest")

    @property
    def replication(self):
        self._no_structure("replication")

    @property
    def rank(self):
        self._no_structure("rank")


class CompiledKernel:
    """A ready-to-run kernel: plan + generated source + binder."""

    def __init__(
        self,
        plan: KernelPlan,
        lowered: LoweredKernel,
        bound: BoundKernel,
        options: CompilerOptions,
        formats: Mapping[str, str],
    ):
        self.plan = plan
        self.lowered = lowered
        self.bound = bound
        self.options = options
        self.formats = dict(formats)

    # ------------------------------------------------------------------
    @property
    def source(self) -> str:
        """The generated Python kernel (inspectable, as in the artifact)."""
        return self.lowered.source

    @property
    def backend(self) -> str:
        """Name of the execution backend this kernel runs on."""
        return self.bound.backend_name

    @property
    def backend_source(self) -> str:
        """The source the active backend executes (Python or C)."""
        return self.bound.executable.source

    def explain(self) -> str:
        """Human-readable options + backend + plan + source dump."""
        return (
            "options: %s\n" % self.options.describe()
            + "backend: %s\n" % self.bound.executable.describe()
            + self.plan.describe()
            + "\n\n"
            + self.lowered.source
        )

    # ------------------------------------------------------------------
    # persistence (used by repro.service's disk store)
    # ------------------------------------------------------------------
    def to_state(self) -> dict:
        """A JSON-serializable snapshot sufficient to rebuild this kernel
        without re-running the symmetrize/optimize/lower pipeline."""
        plan = self.plan
        return {
            "state_version": STATE_VERSION,
            "einsum": str(plan.original),
            "loop_order": list(plan.loop_order),
            "permutable": list(plan.permutable),
            "symmetric_modes": {
                name: [list(part) for part in parts]
                for name, parts in plan.symmetric_modes.items()
            },
            "history": list(plan.history),
            "plan_description": plan.describe(),
            "formats": dict(self.formats),
            "options": self.options.to_dict(),
            "lowered": self.lowered.to_dict(),
        }

    @classmethod
    def from_state(
        cls,
        state: Mapping,
        label: Optional[str] = None,
        objects=None,
    ) -> "CompiledKernel":
        """Rehydrate a kernel persisted with :meth:`to_state`.

        Only the persisted loop program is decoded and handed to the
        backend; the pass pipeline does not run, so ``plan`` is a
        :class:`PlanSnapshot` rather than a full :class:`KernelPlan`.
        ``objects`` is the object cache the C backend finds the compiled
        object in — and rebuilds it into (``None``: the process
        instance).
        """
        version = state.get("state_version")
        if version != STATE_VERSION:
            raise ValueError(
                "unsupported kernel state version %r (this build reads %d)"
                % (version, STATE_VERSION)
            )
        with obs_trace.span("rehydrate", label=label):
            return cls._from_state_checked(state, label, objects)

    @classmethod
    def _from_state_checked(
        cls,
        state: Mapping,
        label: Optional[str],
        objects,
    ) -> "CompiledKernel":
        assignment = parse_assignment(state["einsum"])
        symmetric_modes = {
            name: tuple(tuple(int(m) for m in part) for part in parts)
            for name, parts in state["symmetric_modes"].items()
        }
        snapshot = PlanSnapshot(
            original=assignment,
            loop_order=tuple(state["loop_order"]),
            permutable=tuple(state["permutable"]),
            symmetric_modes=symmetric_modes,
            history=tuple(state["history"]) + ("rehydrated",),
            description=state["plan_description"],
        )
        lowered = LoweredKernel.from_dict(state["lowered"])
        options = CompilerOptions.from_dict(state["options"])
        bound = BoundKernel(
            lowered,
            symmetric_modes,
            label=label,
            backend=options.backend,
            threads=options.threads,
            objects=objects,
        )
        return cls(snapshot, lowered, bound, options, dict(state["formats"]))

    # ------------------------------------------------------------------
    def output_shape(self, **tensors) -> Tuple[int, ...]:
        """The logical output shape for *tensors* — which are validated
        (:func:`repro.frontend.validate.validate_inputs`), not trusted."""
        extents = validate_inputs(
            self.plan.original, self.plan.symmetric_modes, tensors
        )
        return tuple(extents[i] for i in self.plan.original.lhs.indices)

    def prepare(self, **tensors):
        """Check the inputs, then bind them into the exact arrays the
        kernel consumes.

        Every entry to the generated loops passes through here
        (``kernel(...)``, :meth:`execution_plan`, the daemon's
        ``execute``): a missing, wrong-arity, complex-dtype or
        mismatched-extent argument raises
        :class:`~repro.frontend.validate.ValidationError` (a
        ``ValueError``) before any view is built.  Returns
        ``(prepared_args, output_shape)``; preparation (packing,
        splitting, transposing) happens once, outside the timed region."""
        shape = self.output_shape(**tensors)
        return self.bound.prepare(**tensors), shape

    def run(self, prepared, output_shape, threads=None) -> np.ndarray:
        """Allocate a fresh output buffer and run the loops, once.

        A one-shot :class:`~repro.codegen.executor.ExecutionPlan`: bound,
        called and dropped (its buffer is the result).  Callers that run
        the same arguments again keep the plan instead —
        :meth:`execution_plan` — and pay the bind once.

        ``threads`` overrides :attr:`CompilerOptions.threads` for this
        run only (a positive int) — the thread count is a runtime
        argument of the compiled kernel, not part of its identity.
        """
        return self.bound.plan_prepared(prepared, output_shape, threads=threads)()

    def execution_plan(self, threads=None, out=None, **tensors) -> ExecutionPlan:
        """Prepare, bind and validate once; run as often as needed.

        Returns an :class:`~repro.codegen.executor.ExecutionPlan` — a
        callable holding the pre-packed backend arguments and a reusable
        (or caller-owned, via ``out``) output buffer.  ``plan()`` runs
        the timed region and returns the raw buffer; pair with
        :meth:`finalize` (or :meth:`ExecutionPlan.finalized`) for the
        logical result.  Each call skips the bind :meth:`run` pays.
        """
        prepared, shape = self.prepare(**tensors)
        return self.bound.plan_prepared(
            prepared,
            shape,
            threads=threads,
            out=out,
            identity=plan_identity(tensors),
            sources=tensors,
        )

    def finalize(self, out: np.ndarray) -> np.ndarray:
        """The logical result of the raw buffer *out*, in a new array
        (*out* itself where it is the result already): the program's
        ``finish`` entry point restores the layout and mirrors the
        canonical region (§4.2.2; outside the paper's timed region)."""
        return self.bound.finish(out)

    def finalize_view(self, out: np.ndarray):
        """Symmetry-aware finalization (the paper's future-work item 3):
        skip the replication pass and return a :class:`SymmetricView` that
        redirects mirrored reads to the canonical triangle.  Falls back to
        a plain array when the output has no visible symmetry."""
        from repro.tensor.symmetric_view import SymmetricView

        layout = self.lowered.output.layout
        if layout != tuple(range(len(layout))):
            out = np.transpose(out, np.argsort(layout))
        parts = self.lowered.output.replication_parts
        if not parts:
            return np.ascontiguousarray(out) if out.ndim else out
        return SymmetricView(np.ascontiguousarray(out), parts)

    def __call__(self, **tensors) -> np.ndarray:
        prepared, shape = self.prepare(**tensors)
        out = self.run(prepared, shape)
        return self.bound.finish(out, out)


def compile_kernel(
    einsum: Union[str, Assignment],
    symmetric: Optional[Mapping] = None,
    loop_order: Optional[Sequence[str]] = None,
    formats: Optional[Mapping[str, str]] = None,
    options: CompilerOptions = DEFAULT,
    naive: bool = False,
    sparse_levels: Optional[Mapping[str, Sequence[str]]] = None,
) -> CompiledKernel:
    """Compile an einsum into a symmetry-exploiting sparse kernel.

    Parameters
    ----------
    einsum:
        ``"y[i] += A[i, j] * x[j]"`` or a pre-built :class:`Assignment`.
    symmetric:
        ``{"A": True}`` for full symmetry, or a partition of modes
        (``{"A": [[0, 1], [2]]}`` / ``{"A": "{0,1}{2}"}``).
    loop_order:
        index names, outermost first.  Defaults to reverse appearance order.
    formats:
        ``{"A": "sparse"}``; unlisted tensors are dense.  Defaults to
        marking every declared-symmetric tensor sparse.
    options:
        dtype, backend and threads (see :class:`CompilerOptions`).
    naive:
        build the unoptimized baseline kernel instead (full tensors, no
        triangle restriction) — the red line in the paper's figures.
    """
    assignment = (
        parse_assignment(einsum) if isinstance(einsum, str) else einsum
    )
    symmetric_modes, loop_order, formats, options = resolve_request(
        assignment, symmetric, loop_order, formats, options
    )

    validate_assignment(assignment, symmetric_modes)
    validate_semiring(
        assignment,
        [name for name, kind in formats.items() if kind == "sparse"],
    )
    with obs_trace.span("compile", einsum=str(assignment)):
        plan = plan_kernel(assignment, symmetric_modes, loop_order, naive)
        with obs_trace.span("lower"):
            lowered = lower_plan(plan, formats, options, sparse_levels, naive)
        bound = BoundKernel(
            lowered,
            plan.symmetric_modes,
            backend=options.backend,
            threads=options.threads,
        )
    return CompiledKernel(plan, lowered, bound, options, formats)
