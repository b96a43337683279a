"""The typed loop IR: what :class:`~repro.codegen.lower.Lowerer` decides.

Lowering (Section 4.2: concordization, common tensor access elimination,
workspaces, triangle iteration) makes its decisions once and records
them here as frozen nodes.  Both emitters — the Python printer in
:mod:`repro.codegen.backends.python` and the C renderer in
:mod:`repro.codegen.backends.c` — and the loop phases in
:mod:`repro.codegen.passes` read these nodes; nothing parses
generated text back.

Vocabulary
----------
Statements (a :class:`Kernel` holds typed ``args``, a ``preamble`` of
allocations and a ``body`` of top-level statements):

* :class:`DenseLoop` — ``for var in range(end)``; ``end`` is a
  :class:`Dim` extent or, under triangle iteration, ``outer + 1``.
* :class:`FiberLoop` — the concordant walk of one fiber of a sparse
  view: a position loop plus the coordinate read off ``idx``.  ``bound``
  is the co-iteration partner's position (two iterators over the same
  fiber: the inner stops at the outer one); ``guard`` the outer index of
  a ``break`` triangle guard; ``tensor_filter`` the view's triangle.
* :class:`Intersect` — the sorted-merge co-iteration of several fibers
  bound to one index.
* :class:`Let` — a hoisted read (common tensor access elimination) or
  the lookup-table code/factor pair.
* :class:`Init` / :class:`Reduce` — workspace overwrite (the reset of a
  partial sum, or a row-valued product of loop-invariant operands) and
  every reduction update (``+=`` / ``min`` / ``max``, scalar or row)
  onto ``out[...]`` or a workspace.
* :class:`If`, :class:`WorkspaceAlloc`, :class:`LutDef`.
* :class:`ClearOut` — the first statement of every kernel body: reset
  the canonical region of ``out`` (what the nests accumulate into) to
  the reduction identity, one contiguous run per leading coordinate.
* :class:`MirrorOut` — a nest of the second entry point, ``finish``:
  the layout restore and the mirror of a symmetric output.
* :class:`Fused` / :class:`Tiled` / :class:`Blocked` /
  :class:`Parallel` — products of the loop phases, made at render time
  and never persisted.

Expressions carry their type (``INT`` / ``ELEM`` / ``ROW``) in the node:
:class:`Var`, :class:`Dim`, :class:`Const`, :class:`Load` (of a typed
:class:`Array`), :class:`BinOp` (a left-associated chain), :class:`Cmp`,
:class:`BoolOp`, :class:`Flat` (the flattened dense-prefix slot).

The vocabulary is closed because the traffic is: the 74 lowerings of
the render corpus (13 library + extension kernels x 2 dtypes as SySTeC
and naive, plus 11 user einsums x 2 dtypes) print, in ``kernel`` (``finish``
adds slice copies and ``.transpose``), only eight Python statement kinds — 832 ``Assign`` (74 of them the output clears), 286
``AugAssign``, 302 ``For``, 70 ``If``, 76 ``Expr`` (52 ``.fill``, 24
``np.copyto``), 10 ``While`` + 10 ``Continue``, 4 ``Break`` — and eight
call forms (``range``, ``np.empty``, ``.fill``, ``np.copyto``, ``min``,
``max``, ``float("inf")``, and ``np.array`` for a float32 lookup
table); the ``np.copyto`` row reductions and the ``break`` guard come
from the user einsums only.

Also here: :func:`verify` (the single-type / no-rebinding rule every
backend relies on, re-checked after every phase), :func:`scan_nest` (the
write-pattern facts the parallelisation phase and the pass matchers
share), :class:`LoopIR` (the state the phase pipeline threads through),
and the JSON codec the disk store persists programs with.
"""

from __future__ import annotations

import dataclasses
import keyword
import typing
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    Literal,
    NewType,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)


class LoweringError(NotImplementedError):
    """Raised when a plan needs an unsupported lowering feature."""


#: a string that is spliced into generated source as an identifier.
Name = NewType("Name", str)

INT = "int"
ELEM = "elem"  # the kernel's element dtype (double / float)
ROW = "row"  # a vector of ELEM over the vector index

#: storage tags of kernel locals, per :func:`local_types`.
WS = "ws"  # owned ELEM* (np.empty workspace)
LUT = "lut"  # const ELEM[] lookup table

FILTERS = Literal["full", "all", "strict", "diagonal"]


# ----------------------------------------------------------------------
# expressions
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Var:
    """A kernel local: loop variable, temp or workspace."""

    name: Name
    type: Literal["int", "elem", "row"]


@dataclass(frozen=True)
class Dim:
    """A scalar extent argument (``n_<index>``)."""

    name: Name
    type = INT


@dataclass(frozen=True)
class Const:
    value: Union[bool, int, float]

    @property
    def type(self) -> str:
        return ELEM if isinstance(self.value, float) else INT


@dataclass(frozen=True)
class Array:
    """A typed array reference: a kernel argument or a lookup table.

    ``pos``/``idx`` are integer structure arrays, ``vals`` and ``lut``
    element arrays, ``dense`` an ``ndim``-dimensional element input.
    """

    name: Name
    kind: Literal["pos", "idx", "vals", "dense", "lut"]
    ndim: int = 1


@dataclass(frozen=True)
class Load:
    """``array[coords]``; a dense load one coordinate short is a row."""

    array: Array
    coords: Tuple[Expr, ...]

    @property
    def type(self) -> str:
        if self.array.kind in ("pos", "idx"):
            return INT
        if len(self.coords) == self.array.ndim - 1:
            return ROW
        return ELEM


@dataclass(frozen=True)
class BinOp:
    """``a op b op c``, left-associated."""

    op: Literal["+", "*", "|", "<<"]
    args: Tuple[Expr, ...]

    @property
    def type(self) -> str:
        types = {a.type for a in self.args}
        return ROW if ROW in types else ELEM if ELEM in types else INT


@dataclass(frozen=True)
class Cmp:
    op: Literal["<", "<=", ">", "==", "!="]
    left: Expr
    right: Expr
    type = INT


@dataclass(frozen=True)
class BoolOp:
    op: Literal["and", "or"]
    args: Tuple[Expr, ...]
    type = INT


@dataclass(frozen=True)
class Flat:
    """Row-major slot of the dense-prefix ``coords`` of a sparse view;
    ``extents[t]`` is the extent of ``coords[t + 1]``."""

    coords: Tuple[Name, ...]
    extents: Tuple[Name, ...]
    type = INT

    def fold(self) -> Expr:
        expr: Expr = Var(self.coords[0], INT)
        for coord, extent in zip(self.coords[1:], self.extents):
            expr = BinOp("+", (BinOp("*", (expr, Dim(extent))), Var(coord, INT)))
        return expr


Expr = Union[Var, Dim, Const, Load, BinOp, Cmp, BoolOp, Flat]


# ----------------------------------------------------------------------
# statements
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Out:
    """An ``out[...]`` update target; a *row* covers the vector axis."""

    coords: Tuple[Name, ...]
    row: bool


@dataclass(frozen=True)
class Let:
    var: Var
    expr: Expr


@dataclass(frozen=True)
class Init:
    """Overwrite a workspace (a row is written element by element): with
    the reduction identity for a partial sum, with a product of
    loop-invariant operands for a row-valued prefix product."""

    ws: Var
    value: Expr


@dataclass(frozen=True)
class Reduce:
    """``target op= value``."""

    target: Union[Out, Var]
    op: Literal["+", "min", "max"]
    value: Expr

    @property
    def row(self) -> bool:
        target = self.target
        return target.row if isinstance(target, Out) else target.type == ROW


@dataclass(frozen=True)
class If:
    cond: Expr
    body: Tuple[Stmt, ...]


@dataclass(frozen=True)
class DenseLoop:
    var: Name
    end: Expr
    body: Tuple[Stmt, ...]


class _FiberArrays:
    """The structure arrays of level ``level`` of sparse view ``view``."""

    @property
    def pos(self) -> Array:
        return Array(Name("%s_pos%d" % (self.view, self.level)), "pos")

    @property
    def idx(self) -> Array:
        return Array(Name("%s_idx%d" % (self.view, self.level)), "idx")


@dataclass(frozen=True)
class FiberLoop(_FiberArrays):
    pos_var: Name
    #: ``None`` once a pass found the coordinate unread and dropped it.
    coord_var: Optional[Name]
    view: Name
    tensor_filter: FILTERS
    level: int
    parent: Expr
    bound: Optional[Name]
    guard: Optional[Name]
    body: Tuple[Stmt, ...]


@dataclass(frozen=True)
class Binder(_FiberArrays):
    """One fiber taking part in an :class:`Intersect`."""

    view: Name
    level: int
    pos_var: Name
    parent: Expr

    @property
    def end_var(self) -> str:
        return "%s_end" % self.pos_var

    @property
    def coord(self) -> str:
        return "%s_v" % self.pos_var


@dataclass(frozen=True)
class Intersect:
    binders: Tuple[Binder, ...]
    coord_var: Name
    #: loop depth; names the merge temporaries ``_m<depth>``/``_adv<depth>``.
    depth: int
    guard: Optional[Name]
    body: Tuple[Stmt, ...]

    @property
    def max_var(self) -> str:
        return "_m%d" % self.depth

    @property
    def adv_var(self) -> str:
        return "_adv%d" % self.depth


@dataclass(frozen=True)
class WorkspaceAlloc:
    ws: Name
    length: Name


@dataclass(frozen=True)
class LutDef:
    name: Name
    values: Tuple[float, ...]


@dataclass(frozen=True)
class ClearOut:
    """Set the canonical region of ``out`` to the reduction identity.

    The region is every entry whose coordinates are non-increasing, in
    layout order, within each group of
    :attr:`~repro.codegen.lower.OutputSpec.replication_parts` — the
    entries the nests write and finalization reads.  ``coords[t]`` runs
    over layout axis ``t`` up to ``ends[t]`` (a :class:`Dim`, or an
    earlier coordinate plus one); under them the first ``span`` indices
    of the next axis, each with every axis after it, are one contiguous
    run of the buffer.  No coordinates and ``span`` ``None``: the whole
    buffer.
    """

    coords: Tuple[Name, ...]
    ends: Tuple[Expr, ...]
    span: Optional[Expr]
    value: Const


@dataclass(frozen=True)
class MirrorOut:
    """A nest of the finish entry point (paper §4.2.2): ``coords[k]`` runs
    over axis ``axes[k]`` of ``out`` from ``starts[k]`` through ``ends[k]``
    (``None``: 0, the extent), and ``res[dest]`` becomes ``<of>[source]``:
    the restore of the canonical region from ``out`` where the layout
    moves an axis, or a mirror of it within ``res`` (which may be ``out``).
    """

    coords: Tuple[Name, ...]
    axes: Tuple[int, ...]
    starts: Tuple[Optional[Name], ...]
    ends: Tuple[Optional[Name], ...]
    source: Tuple[Name, ...]
    dest: Tuple[Name, ...]
    of: Literal["out", "res"]


@dataclass(frozen=True)
class Fused:
    """A run of adjacent row ``+=`` updates sharing one element loop.

    Bit-identical to the unfused sequence because every row access in
    the element context touches index ``_v`` only: for any element the
    members run in original order and see exactly the values the unfused
    schedule would have published at that index.
    """

    stmts: Tuple[Reduce, ...]


@dataclass(frozen=True)
class Tiled:
    """Row-blocking of one triangle-bounded scatter nest.

    ``nest`` is a dense loop whose whole body is one :class:`FiberLoop`
    reading ``lead``, the output-row coordinate.  The renderer wraps the
    nest in a block loop over output rows and guards the fiber loop with
    ``if (lead >= hi) break; if (lead < lo) continue;`` — ``break``
    because one fiber's ``idx`` run is sorted.  The block height is sized
    at run time from the output's row width and the fibers' mean length.
    ``clear`` is the kernel's :class:`ClearOut` when the pipeline moved
    it in: each block clears its own rows just before it accumulates
    into them.
    """

    nest: DenseLoop
    lead: Name
    clear: Optional[ClearOut] = None


@dataclass(frozen=True)
class Rows:
    """How row statements reach the vector axis: each element loop runs
    ``_v`` up to ``length``; an argument row's element ``_v`` is at
    ``start + _v`` (a workspace row's at ``_v``); each array of ``copies``
    is read (the output written) through its padded copy ``rp_<name>``
    of row stride ``stride``; each workspace of ``local`` is an array of
    ``length`` elements declared at its :class:`Init`.  A kernel's own
    nests run over ``Rows(Dim("n_<vector index>"))``.
    """

    length: Union[Dim, Const]
    start: Optional[Name] = None
    stride: Optional[Name] = None
    copies: Tuple[Array, ...] = ()
    local: Tuple[Name, ...] = ()


@dataclass(frozen=True)
class Blocked:
    """A run of row-valued nests, each run once per block of the vector
    axis, over padded copies of their rows: the register-blocking
    decisions of :mod:`~repro.codegen.passes.regblock`, which the C
    printer prints field by field.

    The blocks are ``rows``: ``length`` wide from ``start``, over the
    vector extent rounded up to ``stride``.  Off a multiple, each of
    ``rows.copies`` (the output first, an :class:`Array` named ``out``)
    gets a zero-filled copy, those of ``copy_in`` copied in, and the rows
    of ``back`` are copied back: all of them for ``None``, else those of
    its run under the loops of its coordinates (axis ``len(back.coords)``
    is a row axis).  ``clear``, the kernel's :class:`ClearOut` when the
    run carries it, clears the output when nothing is staged, and the
    padded copy too when ``clear_padded``.
    """

    nests: Tuple[Union[DenseLoop, FiberLoop], ...]
    rows: Rows
    copy_in: Tuple[Array, ...]
    clear: Optional[ClearOut]
    clear_padded: bool
    back: Optional[ClearOut]


Stmt = Union[
    Let, Init, Reduce, If, DenseLoop, FiberLoop, Intersect, ClearOut, Fused,
    Tiled, Blocked,
]
Loop = (DenseLoop, FiberLoop, Intersect)


@dataclass(frozen=True)
class Parallel:
    """One top-level nest a thread team can share, and how.

    The product of :mod:`repro.codegen.passes.parallelize`, which owns the
    strategy table and its soundness arguments; a nest it leaves bare
    runs serially.  Top-level only and deliberately not a :data:`Stmt`:
    the codec has no rule for it, so it cannot reach a store.
    """

    #: the nest, still inside its :class:`Tiled` or :class:`Blocked`
    #: wrapper when it has one (the serial fallback prints the blocks, the
    #: team body the nest).
    nest: Union[DenseLoop, FiberLoop, Tiled, Blocked]
    strategy: Literal["for", "privatized"]
    assigned: Tuple[str, ...]  # names assigned inside (thread-private)
    ws_names: Tuple[str, ...]  # workspace arrays used inside (per-thread)


@dataclass(frozen=True)
class Kernel:
    args: Tuple[Union[Array, Dim], ...]
    preamble: Tuple[Union[WorkspaceAlloc, LutDef], ...]
    body: Tuple[Stmt, ...]
    #: the finish entry point's nests: none when the buffer is the result
    finish: Tuple[MirrorOut, ...] = ()


# ----------------------------------------------------------------------
# walks
# ----------------------------------------------------------------------
def children(stmt: Stmt) -> Tuple[Stmt, ...]:
    """The statements nested directly under *stmt*."""
    if isinstance(stmt, Fused):
        return stmt.stmts
    if isinstance(stmt, (Tiled, Blocked, Parallel)):
        clear = getattr(stmt, "clear", None)  # the clear a Tiled or Blocked took
        nests = stmt.nests if isinstance(stmt, Blocked) else (stmt.nest,)
        return ((clear,) if clear is not None else ()) + nests
    return getattr(stmt, "body", ())


def walk(stmts: Sequence[Stmt]) -> Iterator[Stmt]:
    """Every statement under *stmts*, outermost first."""
    for stmt in stmts:
        yield stmt
        yield from walk(children(stmt))


def defines(stmt: Stmt) -> Tuple[Tuple[str, str], ...]:
    """``(name, storage tag)`` of every local *stmt* itself binds."""
    if isinstance(stmt, Let):
        return ((stmt.var.name, stmt.var.type),)
    if isinstance(stmt, Init):
        return ((stmt.ws.name, WS if stmt.ws.type == ROW else ELEM),)
    if isinstance(stmt, WorkspaceAlloc):
        return ((stmt.ws, WS),)
    if isinstance(stmt, LutDef):
        return ((stmt.name, LUT),)
    if isinstance(stmt, DenseLoop):
        names = [stmt.var]
    elif isinstance(stmt, FiberLoop):
        names = [stmt.pos_var]
        if stmt.coord_var is not None:
            names.append(stmt.coord_var)
    elif isinstance(stmt, Intersect):
        names = [stmt.max_var, stmt.adv_var, stmt.coord_var]
        for b in stmt.binders:
            names += [b.pos_var, b.end_var, b.coord]
    elif isinstance(stmt, ClearOut):
        names = list(stmt.coords)
    else:
        return ()
    return tuple((name, INT) for name in names)


def assigned(stmts: Sequence[Stmt]) -> Set[str]:
    """Every local a statement list binds or accumulates into."""
    names: Set[str] = set()
    for stmt in walk(stmts):
        names.update(name for name, _ in defines(stmt))
        if isinstance(stmt, Reduce) and isinstance(stmt.target, Var):
            names.add(stmt.target.name)
    return names


def _expr_reads(expr: Expr, names: Set[str]) -> None:
    if isinstance(expr, (Var, Dim)):
        names.add(expr.name)
    elif isinstance(expr, Load):
        for c in expr.coords:
            _expr_reads(c, names)
    elif isinstance(expr, (BinOp, BoolOp)):
        for a in expr.args:
            _expr_reads(a, names)
    elif isinstance(expr, Cmp):
        _expr_reads(expr.left, names)
        _expr_reads(expr.right, names)
    elif isinstance(expr, Flat):
        names.update(expr.coords)


def reads(stmts: Sequence[Stmt]) -> Set[str]:
    """Every local or extent a statement list reads.  A ``+=`` does not
    read its own accumulator; a min/max update does."""
    names: Set[str] = set()
    for stmt in walk(stmts):
        if isinstance(stmt, Let):
            _expr_reads(stmt.expr, names)
        elif isinstance(stmt, Init):
            _expr_reads(stmt.value, names)
        elif isinstance(stmt, Reduce):
            _expr_reads(stmt.value, names)
            if isinstance(stmt.target, Out):
                names.update(stmt.target.coords)
            elif stmt.op != "+":
                names.add(stmt.target.name)
        elif isinstance(stmt, If):
            _expr_reads(stmt.cond, names)
        elif isinstance(stmt, DenseLoop):
            _expr_reads(stmt.end, names)
        elif isinstance(stmt, FiberLoop):
            _expr_reads(stmt.parent, names)
            if stmt.bound is not None:
                names.add(stmt.bound)
            if stmt.guard is not None:
                names.update((stmt.guard, stmt.coord_var))
        elif isinstance(stmt, Intersect):
            for b in stmt.binders:
                _expr_reads(b.parent, names)
            if stmt.guard is not None:
                names.add(stmt.guard)
        elif isinstance(stmt, Tiled):
            names.add(stmt.lead)
        elif isinstance(stmt, ClearOut):
            for e in stmt.ends + ((stmt.span,) if stmt.span is not None else ()):
                _expr_reads(e, names)
    return names


# ----------------------------------------------------------------------
# the single-type rule
# ----------------------------------------------------------------------
def local_types(kernel: Kernel) -> Dict[str, str]:
    """Storage tag of every local (``int``/``elem``/``row``/``ws``/
    ``lut``) — the one place a local's type is decided.  Raises
    :class:`LoweringError` when a name would need two."""
    types: Dict[str, str] = {}
    for stmt in walk(kernel.preamble + kernel.body):
        for name, tag in defines(stmt):
            if types.setdefault(name, tag) != tag:
                raise LoweringError(
                    "generated name %r is used as both %s and %s; rename "
                    "the einsum index or tensor that collides with it"
                    % (name, types[name], tag)
                )
    return types


def verify(kernel: Kernel) -> None:
    """Every name means one thing: arguments are distinct, a local has
    one type and shadows no argument, and nothing rebinds the variable
    of a loop it runs inside.  An einsum index or tensor named like a
    lowerer temporary (``t0``, ``ws0``, ``w0``, ``q0_1``, ``n_j``) fails
    here, at compile time, on every backend."""
    args = ["out", "np"] + [a.name for a in kernel.args]
    for name in args:
        if args.count(name) > 1:
            raise LoweringError(
                "kernel argument %r is not unique; rename the tensor or "
                "index that collides with it" % name
            )
    for name in local_types(kernel):
        if name in args:
            raise LoweringError(
                "generated local %r collides with a kernel argument" % name
            )

    def check(stmts: Sequence[Stmt], live: Tuple[str, ...]) -> None:
        for stmt in stmts:
            bound = [name for name, _ in defines(stmt)]
            for name in bound:
                if name in live or bound.count(name) > 1:
                    raise LoweringError(
                        "loop variable %r is rebound inside its own loop; "
                        "rename the einsum index that collides with it" % name
                    )
            inner = live + tuple(bound) if isinstance(stmt, Loop) else live
            check(children(stmt), inner)

    check(kernel.body, ())


# ----------------------------------------------------------------------
# nest analysis shared by the strategy chooser and the pass matchers
# ----------------------------------------------------------------------
@dataclass
class NestScan:
    """Raw facts about one top-level nest."""

    #: False when a ``break`` would escape the worksharing loop.
    ok: bool = True
    #: ``(kind, row, lead)`` per output update: kind ``add``/``minmax``,
    #: lead the first output coordinate (None for ``out[:]``/``out[()]``)
    out_writes: List[Tuple[str, bool, Optional[str]]] = field(default_factory=list)
    #: accumulator name -> ``add`` | ``minmax``
    updates: Dict[str, str] = field(default_factory=dict)
    #: names initialized (bound or reset) inside the nest
    inits: Set[str] = field(default_factory=set)
    assigned: Set[str] = field(default_factory=set)


def loop_var(nest: Union[DenseLoop, FiberLoop]) -> str:
    """The variable a ``for`` over *nest* iterates."""
    return nest.var if isinstance(nest, DenseLoop) else nest.pos_var


def scan_nest(outer: Union[DenseLoop, FiberLoop]) -> NestScan:
    scan = NestScan()
    if isinstance(outer, FiberLoop) and outer.guard is not None:
        scan.ok = False
    # the outer loop's own variables belong to the worksharing construct
    own = {name for name, _ in defines(outer)} - {loop_var(outer)}
    scan.inits |= own
    for stmt in walk(outer.body):
        scan.inits.update(name for name, _ in defines(stmt))
        if not isinstance(stmt, Reduce):
            continue
        kind = "add" if stmt.op == "+" else "minmax"
        target = stmt.target
        if isinstance(target, Out):
            lead = target.coords[0] if target.coords else None
            scan.out_writes.append((kind, target.row, lead))
        elif scan.updates.setdefault(target.name, kind) != kind:
            scan.ok = False
    scan.assigned = scan.inits | set(scan.updates)
    return scan


@dataclass
class LoopIR:
    """What the phase pipeline transforms: one kernel's top-level
    statements, beside the lowered kernel they came from."""

    body: List[Union[Stmt, Parallel]]
    #: the :class:`~repro.codegen.lower.LoweredKernel` (read-only: its
    #: arguments, preamble, output spec, vector index)
    lowered: object
    #: pipeline-output flag the printer reads back
    simd: bool = False
    #: the parallelisation phase's :class:`NestWork` (its strategy) per
    #: top-level ``for`` nest, in body order; empty when it did not run.
    work: List = field(default_factory=list)
    #: human-readable per-phase notes (surfaced through trace spans).
    notes: List[str] = field(default_factory=list)


# ----------------------------------------------------------------------
# persistence: dataclass <-> JSON, class-name tagged
# ----------------------------------------------------------------------
def encode(value):
    """A JSON-ready rendering of a node tree: ``["Class", field...]``."""
    if dataclasses.is_dataclass(value):
        return [type(value).__name__] + [
            encode(getattr(value, f.name)) for f in dataclasses.fields(value)
        ]
    if isinstance(value, tuple):
        return [encode(v) for v in value]
    return value


def _reject(data, hint):
    raise ValueError("persisted kernel: %.80r is not a valid %s" % (data, hint))


_DECODERS: Dict[object, Callable] = {}


def _decoder(hint) -> Callable:
    """The checking decoder for one type hint, built once.

    Hint-driven, so a list is a node where a node is expected and a
    tuple where a tuple is; unions dispatch on the class tag or the JSON
    scalar type, never by trial."""
    if hint in _DECODERS:
        return _DECODERS[hint]
    # recursive hints (an expression inside an expression) see this
    # forwarder until the real decoder is in place
    _DECODERS[hint] = lambda data: _DECODERS[hint](data)
    origin = typing.get_origin(hint)
    if dataclasses.is_dataclass(hint):
        hints = typing.get_type_hints(hint)
        fields = [_decoder(hints[f.name]) for f in dataclasses.fields(hint)]
        width = len(fields) + 1

        def dec(data):
            if type(data) is not list or len(data) != width or data[0] != hint.__name__:
                _reject(data, hint)
            return hint(*[field(v) for field, v in zip(fields, data[1:])])

    elif origin is Union:
        tags: Dict[str, Callable] = {}
        scalars: Dict[type, Callable] = {}
        for arm in typing.get_args(hint):
            if dataclasses.is_dataclass(arm):
                tags[arm.__name__] = _decoder(arm)
            else:
                kind = arm if isinstance(arm, type) else str  # Name, Literal
                scalars[kind] = _decoder(arm)
        if float in scalars:
            scalars.setdefault(int, scalars[float])

        def dec(data):
            if type(data) is list:
                arm = tags.get(data[0]) if data and type(data[0]) is str else None
            else:
                arm = scalars.get(type(data))
            return arm(data) if arm is not None else _reject(data, hint)

    elif origin is tuple:
        item = _decoder(typing.get_args(hint)[0])

        def dec(data):
            if type(data) is not list:
                _reject(data, hint)
            return tuple([item(v) for v in data])

    else:
        if hint is Name:
            ok = lambda d: type(d) is str and d.isidentifier() and not keyword.iskeyword(d)  # noqa: E731
        elif origin is Literal:
            allowed = frozenset(typing.get_args(hint))
            ok = lambda d: type(d) is str and d in allowed  # noqa: E731
        elif hint is float:
            ok = lambda d: type(d) in (int, float)  # noqa: E731
        elif hint in (bool, int, str, type(None)):
            ok = lambda d: type(d) is hint  # noqa: E731
        else:
            raise TypeError("no persistence rule for %r" % (hint,))

        def dec(data):
            return data if ok(data) else _reject(data, hint)

    _DECODERS[hint] = dec
    return dec


def decode(data, hint):
    """Rebuild the value :func:`encode` flattened, checked against the
    type *hint*.  Persisted programs are outside input — they become
    source text that is ``exec``'d or handed to ``cc`` — so an unknown
    tag, a wrongly typed field or a name that is not an identifier
    raises :class:`ValueError` instead of reaching a printer."""
    return _decoder(hint)(data)
