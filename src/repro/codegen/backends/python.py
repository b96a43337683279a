"""The Python execution backend: print the loop IR, ``exec`` the text.

This is the original execution path, behind the
:class:`~repro.codegen.backends.base.Backend` interface.  It is always
available and is what ``backend="auto"`` degrades to when no C toolchain
can be found.  :func:`print_python` is the whole emitter: one template
per :mod:`~repro.codegen.loopir` node, numpy row slices for ``ROW``
values.
"""

from __future__ import annotations

import functools
from typing import Callable, Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.codegen import loopir as ir
from repro.codegen.backends.base import Backend, Executable
from repro.codegen.lower import LoweredKernel


def _expr(e: ir.Expr) -> str:
    if isinstance(e, (ir.Var, ir.Dim)):
        return e.name
    if isinstance(e, ir.Const):
        if e.value in (float("inf"), float("-inf")):
            return 'float("%s")' % e.value
        return repr(e.value)
    if isinstance(e, ir.Load):
        if not e.coords:
            return e.array.name
        return "%s[%s]" % (e.array.name, ", ".join(_expr(c) for c in e.coords))
    if isinstance(e, ir.BinOp):
        # operand chains nest with explicit parentheses, never by
        # precedence — also around a one-operand chain under a scale
        return (" %s " % e.op).join(
            "(%s)" % _expr(a) if isinstance(a, (ir.BinOp, ir.Cmp)) else _expr(a)
            for a in e.args
        )
    if isinstance(e, ir.Cmp):
        return "%s %s %s" % (_expr(e.left), e.op, _expr(e.right))
    if isinstance(e, ir.BoolOp):
        if e.op == "and":
            return " and ".join(_expr(a) for a in e.args)
        return " or ".join("(%s)" % _expr(a) for a in e.args)
    if isinstance(e, ir.Flat):
        text = e.coords[0]
        for coord, extent in zip(e.coords[1:], e.extents):
            text = "(%s) * %s + %s" % (text, extent, coord)
        return text
    raise TypeError("not a loop-IR expression: %r" % (e,))


def _target(t) -> str:
    if isinstance(t, ir.Var):
        return t.name
    if t.coords:
        return "out[%s]" % ", ".join(t.coords)
    return "out[:]" if t.row else "out[()]"


def _fiber_reads(f) -> List[str]:
    """``pos[parent]``, ``pos[parent + 1]`` of a fiber loop or binder."""
    parent = _expr(f.parent)
    return [
        "%s[%s]" % (f.pos.name, parent),
        "%s[%s + 1]" % (f.pos.name, parent),
    ]


def _block(stmts: Sequence[ir.Stmt], ind: str, out: List[str]) -> None:
    def put(text: str, extra: str = "") -> None:
        out.append(ind + extra + text)

    inner = ind + "    "
    for s in stmts:
        if isinstance(s, ir.Let):
            put("%s = %s" % (s.var.name, _expr(s.expr)))
        elif isinstance(s, ir.Init):
            if s.ws.type != ir.ROW:
                form = "%s = %s"
            elif isinstance(s.value, ir.Const):
                form = "%s.fill(%s)"
            else:
                form = "%s[:] = %s"
            put(form % (s.ws.name, _expr(s.value)))
        elif isinstance(s, ir.Reduce):
            tgt, value = _target(s.target), _expr(s.value)
            if s.op == "+":
                put("%s += %s" % (tgt, value))
            elif s.row:
                # keep the accumulator unless the value wins (ties, NaN):
                # ``v < t ? v : t``, what Python's min and C's rp_fmin do
                put("np.copyto(%s, %s, where=%s %s %s)" % (
                    tgt, value, value, "<" if s.op == "min" else ">", tgt
                ))
            else:
                put("%s = %s(%s, %s)" % (tgt, s.op, tgt, value))
        elif isinstance(s, ir.ClearOut):
            for t, (coord, end) in enumerate(zip(s.coords, s.ends)):
                put("for %s in range(%s):" % (coord, _expr(end)), "    " * t)
            region = list(s.coords)
            if s.span is not None:
                region.append(":%s" % _expr(s.span))
            put("out[%s] = %s" % (", ".join(region) or "...", _expr(s.value)),
                "    " * len(s.coords))
        elif isinstance(s, ir.If):
            put("if %s:" % _expr(s.cond))
            _block(s.body, inner, out)
        elif isinstance(s, ir.DenseLoop):
            put("for %s in range(%s):" % (s.var, _expr(s.end)))
            _block(s.body, inner, out)
        elif isinstance(s, ir.FiberLoop):
            start, end = _fiber_reads(s)
            if s.bound is not None:
                end = "%s + 1" % s.bound
            put("for %s in range(%s, %s):" % (s.pos_var, start, end))
            put("%s = %s[%s]" % (s.coord_var, s.idx.name, s.pos_var), "    ")
            if s.guard is not None:
                put("if %s > %s: break" % (s.coord_var, s.guard), "    ")
            _block(s.body, inner, out)
        elif isinstance(s, ir.Intersect):
            for b in s.binders:
                start, end = _fiber_reads(b)
                put("%s = %s" % (b.pos_var, start))
                put("%s = %s" % (b.end_var, end))
            put("while %s:" % " and ".join(
                "%s < %s" % (b.pos_var, b.end_var) for b in s.binders
            ))
            m, adv = s.max_var, s.adv_var
            for b in s.binders:
                put("%s = %s[%s]" % (b.coord, b.idx.name, b.pos_var), "    ")
            put("%s = %s" % (m, s.binders[0].coord), "    ")
            for b in s.binders[1:]:
                put("if %s > %s: %s = %s" % (b.coord, m, m, b.coord), "    ")
            put("%s = 0" % adv, "    ")
            for b in s.binders:
                put("if %s < %s:" % (b.coord, m), "    ")
                put("%s += 1" % b.pos_var, "        ")
                put("%s = 1" % adv, "        ")
            put("if %s:" % adv, "    ")
            put("continue", "        ")
            put("%s = %s" % (s.coord_var, m), "    ")
            if s.guard is not None:
                put("if %s > %s: break" % (s.coord_var, s.guard), "    ")
            _block(s.body, inner, out)
            for b in s.binders:
                put("%s += 1" % b.pos_var, "    ")
        else:
            raise TypeError("the Python backend does not print %r" % (s,))


def _mirror(s: ir.MirrorOut, out: List[str]) -> None:
    """One finish nest: loops down to its last bounded axis, numpy slices
    from there on (the source's sliced axes transposed to the result's)."""
    cut = max([t for t in range(len(s.coords)) if s.starts[t] or s.ends[t]], default=0)
    index, ind = {}, "    "
    for t, c in enumerate(s.coords):
        lo, hi = s.starts[t] or "", "%s + 1" % s.ends[t] if s.ends[t] else ""
        if t >= cut:
            index[c] = "%s:%s" % (lo, hi)
            continue
        out.append("%sfor %s in range(%s%s):" % (
            ind, c, lo + ", " if lo else "", hi or "out.shape[%d]" % s.axes[t]))
        ind, index[c] = ind + "    ", c
    src = [c for c in s.source if c in s.coords[cut:]]
    perm = tuple(src.index(c) for c in s.dest if c in s.coords[cut:])
    out.append("%sres[%s] = %s[%s]%s" % (
        ind, ", ".join(index[c] for c in s.dest), s.of, ", ".join(index[c] for c in s.source),
        "" if perm == tuple(sorted(perm)) else ".transpose(%s)" % (perm,)))


def print_python(program: ir.Kernel, dtype: str) -> str:
    """The loop program as a Python module defining ``kernel`` and, when
    the buffer is not the result, ``finish(out, res)``."""
    params = ", ".join(["out"] + [a.name for a in program.args])
    lines = ["def kernel(%s):" % params]
    # allocations follow the kernel dtype: float64 keeps the bare
    # spellings, float32 says so.  A float32 kernel must also read
    # float32 factors — a plain list would hand back float64 scalars and
    # promote the whole product chain (numpy's weak-scalar rules only
    # round *one* python-float operand per operation)
    f32 = dtype == "float32"
    for s in program.preamble:
        if isinstance(s, ir.WorkspaceAlloc):
            tail = ", dtype=np.float32" if f32 else ""
            lines.append("    %s = np.empty(%s%s)" % (s.ws, s.length, tail))
        else:
            form = "    %s = np.array(%r, dtype=np.float32)" if f32 else "    %s = %r"
            lines.append(form % (s.name, list(s.values)))
    _block(program.body, "    ", lines)
    if len(lines) == 1:
        lines.append("    pass")
    if program.finish:
        lines += ["", "", "def finish(out, res):"]
    for nest in program.finish:
        _mirror(nest, lines)
    return "\n".join(lines) + "\n"


def exec_kernel_source(lowered: LoweredKernel, label: Optional[str] = None):
    """Exec the generated module and return its namespace.

    ``label`` distinguishes kernels in tracebacks — the service layer
    passes a cache-key prefix so a failure inside one of many resident
    kernels names the kernel that produced it.
    """
    filename = "<systec-kernel>" if label is None else "<systec-kernel %s>" % label
    namespace: Dict[str, object] = {"np": np}
    code = compile(lowered.source, filename, "exec")
    exec(code, namespace)
    return namespace


class PythonExecutable(Executable):
    """Wraps the exec'd ``kernel`` (and ``finish``) function."""

    def __init__(self, lowered: LoweredKernel, label: Optional[str] = None):
        namespace = exec_kernel_source(lowered, label)
        self.fn, self.finish = namespace["kernel"], namespace.get("finish")
        self.source = lowered.source

    def bind(
        self, out: np.ndarray, arrays: Mapping[str, object]
    ) -> Callable[[int], None]:
        """The keyword set is merged once; repeat calls skip the dict walk."""
        call = functools.partial(self.fn, out, **arrays)

        def run(threads: int) -> None:
            # the interpreted loops are inherently single-threaded; the
            # thread count is accepted (and ignored) so callers can drive
            # every backend through one signature
            call()

        return run

    def describe(self) -> str:
        return "python (interpreted numpy loops)"


class PythonBackend(Backend):
    name = "python"

    def is_available(self) -> bool:
        return True

    def compile(
        self,
        lowered: LoweredKernel,
        label: Optional[str] = None,
        objects=None,
    ) -> PythonExecutable:
        return PythonExecutable(lowered, label)

    def describe(self) -> str:
        return "python: interpreted numpy loops (always available)"
