"""Lowering: optimized kernel plan -> loop IR over fibertree arrays.

This is the stage Finch performs for SySTeC (Finch IR -> Julia); we lower
to the typed loop IR of :mod:`repro.codegen.loopir`, which the Python and
C backends print.  The three loop-level transforms of Section 4.2 happen
here:

* **concordization (4.2.3)** — every access is realized through a view whose
  storage order matches the loop order (sparse tensors get permuted
  fibertree views; dense tensors get transposed contiguous copies), so all
  sparse iteration is a concordant walk of ``pos``/``idx`` arrays;
* **common tensor access elimination (4.2.1)** — each distinct access is
  read once into a local, hoisted to the loop level where its indices are
  bound (loop-invariant code motion included);
* **workspace transformation (4.2.8)** — updates whose output coordinates
  are fixed by an outer loop accumulate into a scalar/vector workspace and
  are flushed when that loop advances.  The workspaces are
  *hierarchical*: a ``+``-reduced product does not multiply an operand
  inside a loop it is invariant over.  Every operand knows the depth at
  which it becomes valid, and that is used in both directions:

  - *suffix sums, coming up.*  Only the operands bound by the innermost
    loop are accumulated there, into a partial sum that lives one
    operand level up; when that level's iteration ends the sum is folded
    into the next one, times the operands bound at that level; at the
    target's own level it is flushed, times the multiplicity and whatever
    is bound further out.  Partial sums are keyed by their term, so the
    assignments of a block that are left with the same inner factors
    share one — in MTTKRP ``sum_i A*B[i]`` is accumulated once and feeds
    ``out[k]`` and, through one more fold per level, every outer row.
  - *prefix products, going down.*  For an update whose target moves
    with the innermost loop (``out[i] += c*A*B[k]*B[l]``) the product of
    the multiplicity and the operands bound further out is computed once
    per level, where its last operand becomes valid (an element ``Let``,
    or a row temporary written by an ``Init``).  The same prefix is the
    factor of the flushes above.

  The inner loop of an order-N MTTKRP is then two statements of one
  multiply each, whatever N.  Four rules bound the rewrite:

  1. only ``+`` over ``*`` — it is distributivity;
  2. only in an *unconditional* block, and an operand is never applied at
     a level where an iteration may have accumulated nothing (below a
     dense coordinate, a triangle guard or an intersection — in a
     fibertree the fiber below a *stored* entry is never empty): a sum
     that stayed 0 would be flushed as ``0 * B[l]``, and a NaN or inf in a
     row no stored coordinate references would reach the output, which it
     cannot when the whole product sits under the condition.  Such
     operands stay in the inner term (SYPRD's ``x[j]``: a column may be
     empty), and conditional blocks keep the flat accumulation;
  3. the lookup-table scale ``_f`` depends on every permutable index and
     stays in the innermost term; the multiplicity is a constant and is
     applied once, at the flush;
  4. operands are ordered by depth, then as written, so python / c /
     c@threads evaluate one tree.  A prefix of a single factor is that
     factor, not a temporary, and an assignment from which nothing is
     factored is emitted as the flat form — one workspace per target,
     the chain of length one.

  ``CompilerOptions.workspace`` governs all of it (off: no partial sums,
  no prefix products — the naive baseline).

Canonical-triangle restriction is *free* when a symmetric input is iterated:
its packed view only stores canonical coordinates.  When the chain is not
carried by a packed view (e.g. SSYRK, whose input is asymmetric), the
triangle is enforced with loop bounds: a dense inner loop runs to the outer
index, and two sparse iterators over the *same fiber* co-iterate with the
inner position bounded by the outer one — the paper's triangle iteration.

The innermost loop index may be vectorized: if it is dense, not permutable,
and innermost, the loop disappears and accesses binding it become rows
(dense views place it last).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Dict, List, Literal as Lit, Mapping, Optional, Sequence, Tuple, Union

from repro.codegen import loopir
from repro.codegen.loopir import (
    Array,
    BinOp,
    Binder,
    BoolOp,
    Cmp,
    Const,
    DenseLoop,
    Dim,
    ELEM,
    Expr,
    FiberLoop,
    Flat,
    INT,
    If,
    Init,
    Intersect,
    Kernel,
    Let,
    Load,
    LoweringError,
    LutDef,
    Out,
    ROW,
    Reduce,
    Stmt,
    Var,
    WorkspaceAlloc,
)
from repro.core.config import CompilerOptions
from repro.core.kernel_plan import (
    Block,
    FILTER_DIAGONAL,
    FILTER_STRICT,
    KernelPlan,
    LoopNest,
)
from repro.frontend.einsum import Access, Assignment, Literal, REDUCE_IDENTITY
from repro.tensor.tensor import default_levels


# ----------------------------------------------------------------------
# requirements the executor must satisfy
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SparseViewReq:
    """A fibertree realization of a sparse tensor the kernel iterates."""

    name: loopir.Name
    tensor: str
    mode_order: Tuple[int, ...]
    levels: Tuple[str, ...]
    tensor_filter: loopir.FILTERS

    @property
    def dense_prefix(self) -> int:
        """How many leading levels are dense (they have no pos/idx)."""
        d = 0
        while d < len(self.levels) and self.levels[d] == "dense":
            d += 1
        return d


@dataclass(frozen=True)
class DenseViewReq:
    """A (possibly transposed) contiguous dense array."""

    name: loopir.Name
    tensor: str
    perm: Tuple[int, ...]


@dataclass(frozen=True)
class DimReq:
    """An integer extent, resolved from some tensor's shape."""

    name: loopir.Name
    tensor: str
    mode: int


@dataclass(frozen=True)
class OutputSpec:
    """How the output buffer is laid out and finalized."""

    tensor: str
    ndim: int
    layout: Tuple[int, ...]  # out_v axis t = logical mode layout[t]
    reduce_op: Lit["+", "min", "max"]
    replication_parts: Tuple[Tuple[int, ...], ...]
    index_names: Tuple[str, ...]  # original lhs indices (logical order)


@dataclass
class LoweredKernel:
    """The loop program plus everything needed to bind and run it.

    The whole structure is frozen plain data, so it round-trips through
    JSON: :meth:`to_dict` / :meth:`from_dict` are what the service
    layer's disk store persists, letting a
    :class:`~repro.core.compiler.CompiledKernel` be rehydrated without
    re-running the symmetrize/optimize/lower pipeline.
    """

    program: Kernel
    sparse_views: Tuple[SparseViewReq, ...]
    dense_views: Tuple[DenseViewReq, ...]
    dims: Tuple[DimReq, ...]
    output: OutputSpec
    vector_index: Optional[loopir.Name]
    #: element dtype the kernel computes in — fixed at lowering time
    #: from :attr:`CompilerOptions.dtype`, it drives workspace/output
    #: allocation and the C value type.
    dtype: Lit["float64", "float32"] = "float64"

    @property
    def arg_names(self) -> Tuple[str, ...]:
        return tuple(a.name for a in self.program.args)

    @cached_property
    def source(self) -> str:
        """The program as Python source — printed on first read, so a
        kernel served by the C backend never pays for it."""
        from repro.codegen.backends import python

        return python.print_python(self.program, self.dtype)

    def to_dict(self) -> dict:
        """A JSON-serializable snapshot of the lowered kernel."""
        return loopir.encode(self)

    @classmethod
    def from_dict(cls, data: Mapping) -> "LoweredKernel":
        """Rebuild a lowered kernel from :meth:`to_dict` output.

        ``ValueError`` on anything :func:`loopir.decode` or
        :func:`loopir.verify` rejects — the data comes from disk or the
        wire and is about to become executable code.
        """
        lowered = loopir.decode(data, cls)
        try:
            loopir.verify(lowered.program)
        except LoweringError as exc:
            raise ValueError("persisted kernel: %s" % exc)
        return lowered


# ----------------------------------------------------------------------
# internal structures
# ----------------------------------------------------------------------
@dataclass
class _Chain:
    """One concordant iteration of a sparse view (an access's iterator)."""

    view: SparseViewReq
    indices: Tuple[str, ...]  # storage-order index names
    chain_id: int

    @property
    def levels(self) -> Tuple[str, ...]:
        return self.view.levels

    def q_var(self, level: int) -> str:
        return "q%d_%d" % (self.chain_id, level)

    def parent(self, level: int, dims: Mapping[str, str]) -> Expr:
        """Position feeding *level*: the flattened dense-prefix slot for
        the first sparse level, the previous level's position below."""
        d = self.view.dense_prefix
        if level != d:
            return Var(self.q_var(level - 1), INT)
        if d == 0:
            return Const(0)
        if d == 1:
            return Var(self.indices[0], INT)
        return Flat(
            self.indices[:d], tuple(dims[i] for i in self.indices[1:d])
        )

    def value(self) -> Load:
        return Load(
            Array("%s_vals" % self.view.name, "vals"),
            (Var(self.q_var(len(self.levels) - 1), INT),),
        )


class Lowerer:
    """Lowers one plan + format map + options into a loop program."""

    def __init__(
        self,
        plan: KernelPlan,
        formats: Mapping[str, str],
        options: CompilerOptions,
        sparse_levels: Optional[Mapping[str, Sequence[str]]] = None,
    ):
        self.plan = plan
        self.formats = dict(formats)
        self.options = options
        self.sparse_levels = dict(sparse_levels or {})
        self.rank = dict(plan.rank)
        self.original = plan.original

        self.sparse_views: Dict[str, SparseViewReq] = {}
        self.dense_views: Dict[str, DenseViewReq] = {}
        self.dims: Dict[str, DimReq] = {}
        self.temp_counter = 0
        self.ws_counter = 0
        self.prefix_counter = 0
        self.lut_counter = 0
        self.preamble: List[Union[WorkspaceAlloc, LutDef]] = []

        self.vector_index = self._choose_vector_index()
        self.output = self._output_spec()

    # ------------------------------------------------------------------
    # analysis helpers
    # ------------------------------------------------------------------
    def _choose_vector_index(self) -> Optional[str]:
        if not self.options.vectorize_innermost:
            return None
        v = self.plan.loop_order[-1]
        if v in self.plan.permutable:
            return None
        # v must never be bound by a sparse access
        for acc in self._all_accesses():
            if self.formats.get(acc.tensor) == "sparse" and v in acc.indices:
                return None
        if v not in self.original.free_indices:
            return None
        return v

    def _all_accesses(self) -> List[Access]:
        seen = []
        for block in self.plan.blocks:
            for a in block.assignments:
                for acc in a.accesses:
                    if acc not in seen:
                        seen.append(acc)
        return seen

    def _dim_name(self, index: str) -> str:
        name = "n_%s" % index
        if name not in self.dims:
            binder = self.original.index_dims().get(index)
            if binder is None:
                raise LoweringError("cannot resolve extent of index %r" % index)
            tensor, mode = binder
            self.dims[name] = DimReq(name=name, tensor=tensor, mode=mode)
        return name

    def _output_spec(self) -> OutputSpec:
        lhs = self.original.lhs
        ndim = len(lhs.indices)
        v = self.vector_index
        if v is not None and v in lhs.indices:
            vmode = lhs.indices.index(v)
            layout = tuple([m for m in range(ndim) if m != vmode] + [vmode])
        else:
            layout = tuple(range(ndim))
        repl = (
            self.plan.replication.mode_parts if self.plan.replication else ()
        )
        return OutputSpec(
            tensor=lhs.tensor,
            ndim=ndim,
            layout=layout,
            reduce_op=self.original.reduce_op,
            replication_parts=repl,
            index_names=lhs.indices,
        )

    # ------------------------------------------------------------------
    # view construction
    # ------------------------------------------------------------------
    def _sparse_view(self, acc: Access, tensor_filter: str) -> SparseViewReq:
        order = tuple(
            sorted(range(len(acc.indices)), key=lambda m: self.rank[acc.indices[m]])
        )
        if len(set(acc.indices)) != len(acc.indices):
            raise LoweringError("repeated index in sparse access %s" % acc)
        is_symmetric = bool(self.plan.symmetric_modes.get(acc.tensor))
        if not is_symmetric:
            tensor_filter = "full"
        name = "%s__%s" % (acc.tensor, tensor_filter)
        if order != tuple(range(len(order))):
            name += "_p" + "".join(str(m) for m in order)
        levels = tuple(
            self.sparse_levels.get(acc.tensor, default_levels(len(acc.indices)))
        )
        req = SparseViewReq(
            name=name,
            tensor=acc.tensor,
            mode_order=order,
            levels=levels,
            tensor_filter=tensor_filter,
        )
        self.sparse_views[name] = req
        return req

    def _dense_view(self, acc: Access) -> Tuple[Array, Tuple[str, ...]]:
        """Register a dense view; returns (array, storage-ordered indices)."""
        if not self.options.concordize:
            perm = tuple(range(len(acc.indices)))
        else:
            v = self.vector_index
            keyed = sorted(
                range(len(acc.indices)),
                key=lambda m: (
                    acc.indices[m] == v,  # vector index last
                    self.rank[acc.indices[m]],
                ),
            )
            perm = tuple(keyed)
        name = acc.tensor
        if perm != tuple(range(len(perm))):
            name += "__p" + "".join(str(m) for m in perm)
        self.dense_views[name] = DenseViewReq(name=name, tensor=acc.tensor, perm=perm)
        return (
            Array(name, "dense", len(perm)),
            tuple(acc.indices[m] for m in perm),
        )

    # ------------------------------------------------------------------
    # emission
    # ------------------------------------------------------------------
    def lower(self) -> LoweredKernel:
        body: List[Stmt] = []
        for nest in self.plan.nests:
            body.extend(self._emit_nest(nest))
        arrays: List[Array] = []
        for view in self.sparse_views.values():
            for level in range(view.dense_prefix, len(view.levels)):
                arrays.append(Array("%s_pos%d" % (view.name, level), "pos"))
                arrays.append(Array("%s_idx%d" % (view.name, level), "idx"))
            arrays.append(Array("%s_vals" % view.name, "vals"))
        arrays.extend(
            Array(v.name, "dense", len(v.perm)) for v in self.dense_views.values()
        )
        program = Kernel(
            args=tuple(sorted(arrays, key=lambda a: a.name))
            + tuple(Dim(name) for name in sorted(self.dims)),
            preamble=tuple(self.preamble),
            body=tuple(body),
        )
        loopir.verify(program)
        return LoweredKernel(
            program=program,
            sparse_views=tuple(self.sparse_views.values()),
            dense_views=tuple(self.dense_views.values()),
            dims=tuple(self.dims.values()),
            output=self.output,
            vector_index=self.vector_index,
            dtype=self.options.dtype,
        )

    # -- nest ----------------------------------------------------------
    def _emit_nest(self, nest: LoopNest) -> List[Stmt]:
        chains: Dict[Tuple, _Chain] = {}
        access_chain: Dict[Access, _Chain] = {}
        access_dense: Dict[Access, Tuple[Array, Tuple[str, ...]]] = {}

        def chain_for(acc: Access) -> _Chain:
            view = self._sparse_view(acc, nest.tensor_filter)
            storage_indices = tuple(acc.indices[m] for m in view.mode_order)
            key = (view.name, storage_indices)
            if key not in chains:
                chains[key] = _Chain(
                    view=view, indices=storage_indices, chain_id=len(chains)
                )
            return chains[key]

        accesses: List[Access] = []
        for block in nest.blocks:
            for a in block.assignments:
                for acc in a.accesses:
                    if acc not in accesses:
                        accesses.append(acc)
        for acc in accesses:
            if self.formats.get(acc.tensor) == "sparse":
                access_chain[acc] = chain_for(acc)
            else:
                access_dense[acc] = self._dense_view(acc)

        loop_indices = [
            i for i in self.plan.loop_order if i != self.vector_index
        ]
        depth_of = {idx: d for d, idx in enumerate(loop_indices)}

        # sources per loop index
        sources: Dict[str, Tuple] = {}
        for idx in loop_indices:
            binders = []
            for chain in chains.values():
                for level, (kind, name) in enumerate(zip(chain.levels, chain.indices)):
                    if name == idx and kind == "sparse":
                        binders.append((chain, level))
            if len(binders) > 1:
                # the same index drives several distinct sparse fibers: the
                # loop is the sorted-merge *intersection* of those fibers
                # (this is what lets the compiler handle more than one
                # sparse argument at a time — Cyclops cannot, Table 1).
                sources[idx] = ("intersect", binders, None)
            elif binders:
                sources[idx] = ("sparse",) + binders[0]
            else:
                sources[idx] = ("dense", None, None)

        # chain (triangle) enforcement: inner index -> outer index
        enforce: Dict[str, str] = {}
        pairs = list(zip(self.plan.permutable, self.plan.permutable[1:]))
        for inner, outer in pairs:
            if self._implicit_pair(inner, outer, access_chain, nest):
                continue
            enforce[inner] = outer

        dims_alias = {i: self._dim_name(i) for i in self.original.free_indices}

        # reads (CSE / LICM): distinct access -> its temp
        reads: Dict[Access, Var] = {}
        pre_by_depth: Dict[int, List[Stmt]] = {}
        post_by_depth: Dict[int, List[Stmt]] = {}

        def bound_depth(indices: Sequence[str]) -> int:
            """Depth of the innermost loop binding one of *indices*."""
            return max(
                [depth_of[i] for i in indices if i != self.vector_index],
                default=-1,
            )

        def read_expr(acc: Access) -> Tuple[Expr, int]:
            """Expression for an access + depth at which it becomes valid."""
            if acc in access_chain:
                chain = access_chain[acc]
                return chain.value(), bound_depth(chain.indices)
            array, storage_indices = access_dense[acc]
            coords = [i for i in storage_indices if i != self.vector_index]
            return Load(array, tuple(Var(i, INT) for i in coords)), bound_depth(coords)

        def operand(acc_or_lit) -> Tuple[int, Expr]:
            """An operand's value and the depth at which it becomes valid."""
            if isinstance(acc_or_lit, Literal):
                return -1, Const(acc_or_lit.value)
            expr, depth = read_expr(acc_or_lit)
            if not self.options.cse:
                return depth, expr
            if acc_or_lit not in reads:
                temp = Var("t%d" % self.temp_counter, expr.type)
                self.temp_counter += 1
                pre_by_depth.setdefault(depth, []).append(Let(temp, expr))
                reads[acc_or_lit] = temp
            return depth, reads[acc_or_lit]

        innermost_depth = len(loop_indices) - 1

        def row_buffer(name: str) -> None:
            self.preamble.append(
                WorkspaceAlloc(name, self._dim_name(self.vector_index))
            )

        # partial sums (workspaces): key -> accumulator
        sums: Dict[Tuple, Var] = {}

        def partial_sum(key: Tuple, live: int, type_: str, op: str) -> Tuple[Var, bool]:
            """The accumulator registered under *key*, reset at the top of
            every iteration of loop *live* (-1: once, before the nest);
            the flag says whether this call created it."""
            if key in sums:
                return sums[key], False
            ws = Var("ws%d" % self.ws_counter, type_)
            self.ws_counter += 1
            if type_ == ROW:
                row_buffer(ws.name)
            pre_by_depth.setdefault(live, []).append(
                Init(ws, Const(REDUCE_IDENTITY[op]))
            )
            sums[key] = ws
            return ws, True

        # prefix products: (depth, product) -> the temporary holding it
        products: Dict[Tuple[int, Expr], Var] = {}

        def prefix(factors: List[Expr], outer: List[Tuple[int, Expr]]) -> List[Expr]:
            """``product(factors) * product(outer)`` as at most one
            expression: each step of the chain is computed once, at the
            depth where its last operand becomes valid (*outer* is sorted
            by depth).  A lone factor stays itself, not a temporary."""
            have = list(factors)
            for depth in sorted({d for d, _ in outer}):
                have += [x for d, x in outer if d == depth]
                if len(have) < 2:
                    continue
                expr = BinOp("*", tuple(have))
                if (depth, expr) not in products:
                    w = Var("w%d" % self.prefix_counter, expr.type)
                    self.prefix_counter += 1
                    if w.type == ROW:
                        row_buffer(w.name)
                    pre_by_depth.setdefault(depth, []).append(
                        Init(w, expr) if w.type == ROW else Let(w, expr)
                    )
                    products[depth, expr] = w
                have = [products[depth, expr]]
            return have

        # every iteration of a loop at depth >= populated reaches the
        # innermost statements: in a fibertree the fiber below a stored
        # entry is never empty.  The fiber below a dense coordinate may
        # be, and a triangle guard or an intersection may select nothing.
        populated = innermost_depth
        while populated >= 0:
            kind, chain, level = sources[loop_indices[populated]]
            if (
                kind != "sparse"
                or level == chain.view.dense_prefix
                or loop_indices[populated] in enforce
            ):
                break
            populated -= 1

        def product(factors: List[Expr]) -> Expr:
            return factors[0] if len(factors) == 1 else BinOp("*", tuple(factors))

        def emit_factored(
            a: Assignment,
            count: List[Expr],
            scale: List[Expr],
            ops: List[Tuple[int, Expr]],
            block_no: int,
            stmts: List[Stmt],
        ) -> bool:
            """``lhs += count * scale * product(ops)`` of an unconditional
            block, with every loop-invariant operand multiplied outside
            the loops it is invariant over.  False, and nothing emitted,
            when there is none: the caller then emits the flat form."""
            target = self._out_target(a.lhs)
            d = bound_depth(a.lhs.indices)
            # by depth, then existing order: every backend sees one tree
            ops = sorted(ops, key=lambda op: op[0])
            if d >= innermost_depth:
                # prefix products, going down: the target moves with the
                # innermost loop; all that is bound above is one factor
                outer = [op for op in ops if op[0] < innermost_depth]
                if len(count) + len(outer) < 2:
                    return False
                inner = [x for depth, x in ops if depth >= innermost_depth]
                stmts.append(
                    Reduce(target, "+", product(prefix(count, outer) + scale + inner))
                )
                return True
            # suffix sums, coming up: an operand is applied at the level
            # where it is bound, but not above the target's own level and
            # not where an iteration may have accumulated nothing — there
            # 0 * NaN would reach the output from a row no stored
            # coordinate references
            applied = [
                min(innermost_depth, max(depth, d, populated)) for depth, _ in ops
            ]
            if innermost_depth not in applied or set(applied) == {innermost_depth}:
                return False
            above = sorted({at for at in applied if at > d}, reverse=True)
            acc: List[Expr] = []
            for at, live in zip(above, above[1:] + [d]):
                term = product(
                    (scale if at == innermost_depth else [])
                    + [x for lvl, (_, x) in zip(applied, ops) if lvl == at]
                    + acc
                )
                # one sum per distinct term: every assignment of the block
                # left with the same inner factors reads the same one
                ws, new = partial_sum((block_no, live, at, term), live, term.type, "+")
                if new:
                    fold = Reduce(ws, "+", term)
                    if at == innermost_depth:
                        stmts.append(fold)
                    else:
                        post_by_depth.setdefault(at, []).append(fold)
                acc = [ws]
            flush = prefix(count, [op for lvl, op in zip(applied, ops) if lvl == d])
            post_by_depth.setdefault(d, []).append(
                Reduce(target, "+", product(flush + acc))
            )
            return True

        # assemble statement lists for the innermost body
        innermost: List[Stmt] = []
        filter_realized = any(
            chain.view.tensor_filter == nest.tensor_filter
            for chain in chains.values()
        )
        for block_no, block in enumerate(nest.blocks):
            stmts: List[Stmt] = []
            scale: List[Expr] = []
            if block.factor_table is not None:
                stmts.extend(self._emit_lut(block))
                scale.append(Var("_f", ELEM))
            cond = self._condition(block, nest, filter_realized)
            for a in block.assignments:
                ops = [operand(op) for op in a.operands]
                count: List[Expr] = []
                if a.count != 1:
                    if a.reduce_op != "+":
                        raise LoweringError(
                            "multiplicity %d under %r reduction" % (a.count, a.reduce_op)
                        )
                    count.append(Const(float(a.count)))
                if (
                    self.options.workspace
                    and cond is None
                    and ops
                    and (a.reduce_op, a.combine_op) == ("+", "*")
                    and emit_factored(a, count, scale, ops, block_no, stmts)
                ):
                    continue
                # nothing to factor: one flat term, summed in a workspace
                # when an outer loop fixes the target — the chain of
                # length one, keyed by its target instead of its term
                values = [x for _, x in ops]
                expr: Expr = BinOp(a.combine_op, tuple(values)) if ops else Const(0.0)
                if count or scale:
                    expr = BinOp("*", tuple(count + scale) + (expr,))
                elif len(values) == 1:
                    expr = values[0]
                target: Union[Out, Var] = self._out_target(a.lhs)
                d = bound_depth(a.lhs.indices)
                if self.options.workspace and d < innermost_depth:
                    row = self.vector_index in a.lhs.indices
                    target, new = partial_sum(
                        (a.lhs.tensor, a.lhs.indices),
                        d,
                        ROW if row else ELEM,
                        a.reduce_op,
                    )
                    if new:
                        post_by_depth.setdefault(d, []).append(
                            Reduce(self._out_target(a.lhs), a.reduce_op, target)
                        )
                stmts.append(Reduce(target, a.reduce_op, expr))
            if cond is None:
                innermost.extend(stmts)
            else:
                innermost.append(If(cond, tuple(stmts)))

        def build(depth: int) -> List[Stmt]:
            if depth == len(loop_indices):
                return innermost
            idx = loop_indices[depth]
            kind, chain, level = sources[idx]
            body = tuple(
                pre_by_depth.get(depth, [])
                + build(depth + 1)
                + post_by_depth.get(depth, [])
            )
            outer = enforce.get(idx)
            if kind == "dense":
                end: Expr = Dim(dims_alias[idx])
                if outer is not None:
                    end = BinOp("+", (Var(outer, INT), Const(1)))
                return [DenseLoop(idx, end, body)]
            if kind == "intersect":
                # sorted-merge intersection of several sparse fibers: each
                # binder keeps its own position pointer; all advance past
                # non-shared coordinates, and the body runs only where
                # every fiber holds the coordinate.
                binders = tuple(
                    Binder(
                        view=bchain.view.name,
                        level=blevel,
                        pos_var=bchain.q_var(blevel),
                        parent=bchain.parent(blevel, dims_alias),
                    )
                    for bchain, blevel in chain
                )
                return [Intersect(binders, idx, depth, outer, body)]
            bound = guard = None
            if outer is not None:
                bound = self._same_fiber_partner(outer, sources, chain, level)
                if bound is None:
                    guard = outer
            return [
                FiberLoop(
                    pos_var=chain.q_var(level),
                    coord_var=idx,
                    view=chain.view.name,
                    tensor_filter=chain.view.tensor_filter,
                    level=level,
                    parent=chain.parent(level, dims_alias),
                    bound=bound,
                    guard=guard,
                    body=body,
                )
            ]

        # depth -1 regions (scalar output workspaces, constant reads)
        return (
            pre_by_depth.get(-1, []) + build(0) + post_by_depth.get(-1, [])
        )

    # ------------------------------------------------------------------
    def _implicit_pair(self, inner, outer, access_chain, nest) -> bool:
        """Is the chain constraint inner <= outer already guaranteed by a
        packed symmetric view whose access binds both indices in the same
        symmetric part?"""
        if nest.tensor_filter == "full":
            return False
        for acc, chain in access_chain.items():
            parts = self.plan.symmetric_modes.get(acc.tensor)
            if not parts:
                continue
            if inner in acc.indices and outer in acc.indices:
                m_in = acc.indices.index(inner)
                m_out = acc.indices.index(outer)
                for part in parts:
                    if m_in in part and m_out in part:
                        return True
        return False

    def _same_fiber_partner(self, outer, sources, chain, level) -> Optional[str]:
        """If *outer* iterates the same fiber (view, level, parent) as
        this loop, return its position variable for a co-iteration bound."""
        kind, ochain, olevel = sources[outer]
        if kind != "sparse":
            return None
        if (
            ochain.view.name == chain.view.name
            and olevel == level
            and ochain.indices[:level] == chain.indices[:level]
        ):
            return ochain.q_var(olevel)
        return None

    def _out_target(self, lhs: Access) -> Out:
        coords = tuple(
            lhs.indices[m]
            for m in self.output.layout
            if lhs.indices[m] != self.vector_index
        )
        return Out(coords, row=self.vector_index in lhs.indices)

    def _condition(
        self, block: Block, nest: LoopNest, filter_realized: bool
    ) -> Optional[Expr]:
        """The block's pattern disjunction, pruning patterns that the nest
        filter makes unreachable and dropping the test entirely when the
        remaining patterns cover everything the filter admits.

        ``filter_realized`` is False when no packed sparse view actually
        restricts this nest's coordinates (e.g. a *dense* symmetric input):
        the strict/diagonal distinction must then be tested explicitly.
        """
        if block.factor_table is not None:
            return None
        if not self.plan.permutable or len(self.plan.permutable) < 2:
            return None
        relations = 2 ** (len(self.plan.permutable) - 1)
        kept = list(block.patterns)
        if nest.tensor_filter == FILTER_STRICT:
            kept = [p for p in kept if p.is_strict]
            if kept and filter_realized:
                return None  # the strict view admits exactly this pattern
        elif nest.tensor_filter == FILTER_DIAGONAL:
            kept = [p for p in kept if not p.is_strict]
            relations -= 1
        else:
            filter_realized = True
        if filter_realized and len({p.relations for p in kept}) >= relations:
            return None
        terms: List[Expr] = []
        for pattern in kept:
            comps = [
                Cmp(rel, Var(a, INT), Var(b, INT))
                for (a, rel, b) in pattern.conditions()
            ]
            terms.append(
                BoolOp("and", tuple(comps)) if len(comps) > 1
                else comps[0] if comps else Const(True)
            )
        if not terms:
            return Const(False)
        return terms[0] if len(terms) == 1 else BoolOp("or", tuple(terms))

    def _emit_lut(self, block: Block) -> List[Stmt]:
        """Define the block's factor table; returns the statements that
        compute the equality code and read the factor into ``_f``."""
        n = len(self.plan.permutable)
        table = [0.0] * 2 ** (n - 1)
        for bitmask, frac in block.factor_table:
            table[bitmask] = float(Fraction(frac))
        lut = Array("_lut%d" % self.lut_counter, "lut")
        self.lut_counter += 1
        self.preamble.append(LutDef(lut.name, tuple(table)))
        bits: List[Expr] = []
        for t, (a, b) in enumerate(zip(self.plan.permutable, self.plan.permutable[1:])):
            bit: Expr = Cmp("==", Var(a, INT), Var(b, INT))
            bits.append(bit if t == 0 else BinOp("<<", (bit, Const(t))))
        code = Var("_code", INT)
        return [
            Let(code, BinOp("|", tuple(bits))),
            Let(Var("_f", ELEM), Load(lut, (code,))),
        ]


def lower_plan(
    plan: KernelPlan,
    formats: Mapping[str, str],
    options: CompilerOptions,
    sparse_levels: Optional[Mapping[str, Sequence[str]]] = None,
) -> LoweredKernel:
    """Convenience wrapper around :class:`Lowerer`."""
    return Lowerer(plan, formats, options, sparse_levels).lower()
