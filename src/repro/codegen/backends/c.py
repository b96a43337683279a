"""The C execution backend.

``render_c`` prints a :class:`~repro.codegen.lower.LoweredKernel`'s loop
program (:mod:`repro.codegen.loopir`) as a self-contained C translation
unit: one text template per node, the same loop structure the Python
backend prints, just compiled.  Row statements (numpy row slices in the
Python backend) become plain inner loops over the vector index, which
``cc -O3`` auto-vectorizes.  Loading and calling the compiled object is
:mod:`repro.codegen.backends.cexec`'s job; this module is pure (program
in, text out).

Data binding: every numpy array crosses as a raw pointer (``rp_index*``
for ``pos``/``idx`` structure arrays — one index type per object, see
below; the kernel's element type — ``double`` for float64 kernels,
``float`` for float32 ones, per :attr:`LoweredKernel.dtype` — for values, dense inputs and the output);
each dense array and the output additionally pass an ``int64_t`` extent
vector so the C side can flatten multi-dimensional subscripts without
baking shapes into the code.  A trailing ``int64_t repro_nthreads``
carries the runtime thread count.  float32 kernels round every float
literal to ``float`` at its point of use and call ``fminf``/``fmaxf``,
mirroring numpy's weak-scalar promotion so both precisions stay
bit-identical to the Python backend.

Phases decide, this module prints
---------------------------------
Before emission the program's top-level statements run through the
whole phase pipeline of :mod:`repro.codegen.passes` — the same phases,
in the same order, for every kernel — and the renderer prints its
product, :class:`~repro.codegen.loopir.Fused`,
:class:`~repro.codegen.loopir.Tiled`,
:class:`~repro.codegen.loopir.Blocked` and
:class:`~repro.codegen.loopir.Parallel` nodes included, under the SIMD
flag it set.  A ``Parallel`` nest (the strategy table lives in
:mod:`repro.codegen.passes.parallelize`) is printed twice behind
``#if defined(_OPENMP)``: a serial body (taken when
``repro_nthreads <= 1``) and an ``omp parallel`` body — one region
skeleton, with the strategy's text spliced in.

The one rendered source is built into one object
(:mod:`~repro.codegen.backends.ctoolchain`), chosen by the source alone
(:attr:`CRender.parallel`): a source with a ``Parallel`` nest becomes the
**OpenMP object** (``-fopenmp``), which holds both branches and exports
the ``repro_openmp`` marker symbol; every other source (every ``+``
scatter kernel) — and any source on a toolchain without OpenMP — the
**serial object** (``-fopenmp-simd``), in which the preprocessor has
dropped every parallel body and ``<omp.h>``.  A ``threads=1`` call of the
OpenMP object takes its serial branch: the same serial loops with the same
SIMD hints as the serial object, so nothing swaps at any thread count.

The index type is declared once (:data:`INDEX_DECLARATION`): ``rp_index``
is 32-bit unless the object is built with ``-DRP_INDEX=int64_t``, and
every object reports its width through ``repro_index_bytes``.  Loop
variables and positions stay ``int64_t``, so the narrow object only
narrows the loads, never the arithmetic.  Which width an argument set
needs is :func:`repro.tensor.coo.index_dtype`'s answer, carried by the
arrays' dtype; :meth:`~repro.codegen.backends.cexec.CExecutable.bind`
picks the object (the wide one is built on first need).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.codegen import loopir as ir
from repro.codegen.backends.base import BackendError
from repro.codegen.lower import LoweredKernel
from repro.codegen.passes.base import run_pipeline
from repro.codegen.passes import regblock
from repro.codegen.passes.parallelize import for_nest
from repro.codegen.passes.tile import auto_tile_rows
from repro.obs import trace as obs_trace


class CRenderError(BackendError):
    """The lowered kernel uses a feature the C renderer does not cover."""


_C_KEYWORDS = frozenset(
    """auto break case char const continue default do double else enum extern
    float for goto if inline int long register restrict return short signed
    sizeof static struct switch typedef union unsigned void volatile while
    _Bool _Complex _Imaginary out out_dims kernel INFINITY threads
    repro_nthreads rp_i
    rp_p0 rp_p1 repro_nest_sec repro_nest_calls
    repro_profile_nests repro_profile_calls
    repro_profile_reset repro_profile_read repro_openmp
    rp_index RP_INDEX repro_index_bytes
    pv_all pv_out pv_total pv_team pv_k pv_s pv_b
    rp_status rp_oom rp_tb rp_thi rp_tile rp_nb rp_cap rp_vb""".split()
)

#: the one declaration of the index type of every ``pos``/``idx`` pointer,
#: printed after the includes (the wide object is built with
#: ``-DRP_INDEX=int64_t``).
INDEX_DECLARATION = (
    "",
    "#ifndef RP_INDEX",
    "#define RP_INDEX int32_t",
    "#endif",
    "typedef RP_INDEX rp_index;",
    "int64_t repro_index_bytes(void) { return (int64_t) sizeof(rp_index); }",
)

#: element loop variable for vectorized statements.
_V = "_v"


def _c_float(value: float) -> str:
    if value != value or value in (float("inf"), float("-inf")):
        raise CRenderError("non-finite literal %r" % value)
    return repr(float(value))


@dataclass(frozen=True)
class _Team:
    """The strategy-specific text around the one parallel-region skeleton
    (:meth:`_Renderer._emit_parallel`).  Every line is relative to the
    skeleton position it is spliced at."""

    #: ahead of the region
    before: Sequence[str] = ()
    #: per thread, ahead of the private declarations, which sit ``inner``
    #: deeper (as does the loop)
    enter: Sequence[str] = ()
    inner: int = 0
    #: around the worksharing loop, inside its ``rp_oom`` guard
    pre_loop: Sequence[str] = ()
    post_loop: Sequence[str] = ()
    #: per thread, after the workspace frees (closes what ``enter`` opened)
    leave: Sequence[str] = ()
    #: behind the region (closes what ``before`` opened)
    after: Sequence[str] = ()


class _Renderer:
    def __init__(self, lowered: LoweredKernel, label: Optional[str], profile: bool):
        self.lowered = lowered
        self.label = label
        # per-nest wall-time instrumentation: every top-level nest is
        # bracketed with clock_gettime and accumulates into a static
        # array exported through repro_profile_* symbols.  Profiled
        # source differs from production source, so the content-addressed
        # object cache can never alias the two builds.
        self.profile = profile
        self.out_ndim = lowered.output.ndim
        # the element type every value array, workspace and the output use.
        # float32 kernels also round every float literal to float at the
        # point of use (matching numpy's weak-scalar promotion, so the C
        # arithmetic is bit-identical to the Python backend's) and call
        # the single-precision fminf/fmaxf.
        if lowered.dtype == "float32":
            self.elem = "float"
            self._fp_suffix = "f"
        elif lowered.dtype == "float64":
            self.elem = "double"
            self._fp_suffix = ""
        else:
            raise CRenderError("unsupported kernel dtype %r" % (lowered.dtype,))

        # pipeline products: the simd flag comes back on the LoopIR;
        # _parallel_ctx is the Parallel node whose OpenMP body is being
        # printed (None in serial emission: tiling applies there only, and
        # a privatized body writes its per-thread output here only); _tile_ctx
        # is the Tiled node whose guard is being injected into its fiber
        # loop; _blocked is set while a Blocked nest's vector block is
        # printed (serial emission only, like tiling).
        self.simd = False
        self._parallel_ctx: Optional[ir.Parallel] = None
        self._tile_ctx: Optional[ir.Tiled] = None
        self._blocked = False

        program = lowered.program
        #: storage tag of every local — decided by the nodes, read here
        self.types: Dict[str, str] = ir.local_types(program)
        self.ws_alloc: Dict[str, str] = {}  # workspace -> length expr
        self.lines: List[str] = []
        self.uses_vector = False

        if lowered.vector_index is not None:
            self.vlen = "n_%s" % lowered.vector_index
            if ir.Dim(self.vlen) not in program.args:
                raise CRenderError(
                    "vector extent %s is not a kernel argument" % self.vlen
                )
        else:
            self.vlen = None

        names = set(self.types) | {a.name for a in program.args}
        bad = sorted(n for n in names if n in _C_KEYWORDS or n == _V)
        if bad:
            raise CRenderError("names collide with a C identifier: %s" % bad)
        clash = sorted(
            a.name
            for a in program.args
            if isinstance(a, ir.Array)
            and a.kind == "dense"
            and "%s_dims" % a.name in names
        )
        if clash:
            raise CRenderError("dense view dims names collide: %s" % clash)

    # ------------------------------------------------------------------
    # entry
    # ------------------------------------------------------------------
    def render(self, state: ir.LoopIR) -> str:
        """Print the pipeline's product *state* as one translation unit."""
        self.simd = state.simd
        for stmt in self.lowered.program.preamble:
            self._stmt(stmt, 1)
        slots = 0  # one repro_nest_sec slot per top-level for nest
        for stmt in state.body:
            if self.profile and for_nest(stmt) is not None:
                self._emit_profiled_nest(stmt, slots, 1)
                slots += 1
            else:
                self._stmt(stmt, 1)
        return self._assemble(state.body, slots)

    def _emit_profiled_nest(self, node, slot: int, ind: int) -> None:
        """Bracket one top-level nest with monotonic-clock accumulation."""
        self._put(ind, "{")
        self._put(ind + 1, "struct timespec rp_p0, rp_p1;")
        self._put(ind + 1, "clock_gettime(CLOCK_MONOTONIC, &rp_p0);")
        self._stmt(node, ind + 1)
        self._put(ind + 1, "clock_gettime(CLOCK_MONOTONIC, &rp_p1);")
        self._put(
            ind + 1,
            "repro_nest_sec[%d] += (double)(rp_p1.tv_sec - rp_p0.tv_sec)"
            " + 1e-9 * (double)(rp_p1.tv_nsec - rp_p0.tv_nsec);" % slot,
        )
        self._put(ind, "}")

    def _assemble(self, body: Sequence, nests: int) -> str:
        """The translation unit around the printed lines: *body* says
        whether OpenMP support code is needed, *nests* how many profile
        slots were bracketed."""
        elem = self.elem
        teams = any(isinstance(s, ir.Parallel) for s in body)
        sig_parts = [
            "%s *restrict out" % elem,
            "const int64_t *restrict out_dims",
        ]
        for arg in self.lowered.program.args:
            if isinstance(arg, ir.Dim):
                sig_parts.append("int64_t %s" % arg.name)
            elif arg.kind in ("pos", "idx"):
                sig_parts.append("const rp_index *restrict %s" % arg.name)
            else:
                sig_parts.append("const %s *restrict %s" % (elem, arg.name))
                if arg.kind == "dense":
                    sig_parts.append(
                        "const int64_t *restrict %s_dims" % arg.name
                    )
        # the runtime thread count always rides last, so the ctypes call
        # plan is uniform whether or not any nest was parallelized
        sig_parts.append("int64_t repro_nthreads")

        decls: List[str] = [
            "    int64_t rp_status = 0;",
            "    (void) repro_nthreads;",
            "    (void) rp_status;",
        ]
        if self.profile:
            decls.append("    repro_nest_calls += 1;")
        names = sorted(self.types) + ([_V] if self.uses_vector else [])
        decls += ["    " + text for text in self._local_decls(names)]
        for name, length in self.ws_alloc.items():
            decls.append(
                "    %s *%s = (%s *) malloc((size_t)(%s) * sizeof(%s));"
                % (elem, name, elem, length, elem)
            )
        if self.ws_alloc:
            # report allocation failure as a status instead of crashing
            decls.append(
                "    if (%s) {"
                % " || ".join("!%s" % name for name in self.ws_alloc)
            )
            for name in self.ws_alloc:
                decls.append("        free(%s);" % name)
            decls.append("        return 1;")
            decls.append("    }")
        frees = ["    free(%s);" % name for name in self.ws_alloc]

        header = [
            "/* generated by repro.codegen.backends.c%s */"
            % ((" [%s]" % self.label) if self.label else ""),
            "#include <stdint.h>",
            "#include <stdlib.h>",
            "#include <math.h>",
            *INDEX_DECLARATION,
        ]
        if self.profile:
            header += [
                "#include <time.h>",
                "",
                # the banner still names the variable profiled builds
                # were once requested with: the render corpus digests pin
                # its bytes
                "/* REPRO_PROFILE=1 build: per-nest wall time, accumulated",
                "   across calls and read back through repro_profile_*. */",
                "static double repro_nest_sec[%d];" % max(1, nests),
                "static int64_t repro_nest_calls = 0;",
                "",
                "int64_t repro_profile_nests(void) { return %d; }" % nests,
                "int64_t repro_profile_calls(void) { return repro_nest_calls; }",
                "",
                "void repro_profile_reset(void) {",
                "    int64_t rp_i;",
                "    for (rp_i = 0; rp_i < %d; ++rp_i) { repro_nest_sec[rp_i] = 0.0; }"
                % max(1, nests),
                "    repro_nest_calls = 0;",
                "}",
                "",
                "void repro_profile_read(double *dst) {",
                "    int64_t rp_i;",
                "    for (rp_i = 0; rp_i < %d; ++rp_i) { dst[rp_i] = repro_nest_sec[rp_i]; }"
                % nests,
                "}",
            ]
        if teams:
            header += [
                "",
                "#if defined(_OPENMP)",
                "#include <omp.h>",
                "/* marks the OpenMP object: absent from the serial build */",
                "int64_t repro_openmp(void) { return 1; }",
            ]
            header.append("#endif")
        header += [
            "",
            "/* returns 0 on success, 1 when a runtime allocation failed",
            "   (a workspace or a per-thread buffer) */",
            "int64_t kernel(%s)" % (",\n               ".join(sig_parts)),
            "{",
        ]
        return (
            "\n".join(
                header + decls + self.lines + frees + ["    return rp_status;", "}"]
            )
            + "\n"
        )

    # ------------------------------------------------------------------
    # parallel emission: one skeleton, strategy text spliced in
    # ------------------------------------------------------------------
    def _emit_parallel(self, node: ir.Parallel, ind: int) -> None:
        """One annotated nest, twice: an OpenMP body and the serial fallback.

        The preprocessor guard keeps the source buildable without OpenMP:
        on a toolchain that lacks it (the serial object) only the serial
        branch survives.  Every strategy shares the region skeleton —
        oom flag, ``omp parallel``, private declarations, the
        ``rp_oom``-guarded worksharing loop, frees — and differs in the
        :class:`_Team` text around it.
        """
        self._put(ind, "#if defined(_OPENMP)")
        self._put(ind, "if (repro_nthreads > 1) {")
        oom = bool(node.ws_names)
        if node.strategy == "privatized":
            team = self._privatized_team(node)
        else:  # disjoint writes: a plain parallel for
            team = _Team(after=["if (rp_oom) { rp_status = 1; }"] if oom else [])
        outer = ind + 1
        if team.after:  # ... which is where rp_oom is tested
            self._put(outer, "int64_t rp_oom = 0;")
        self._put(outer, *team.before)
        self._put(outer, "#pragma omp parallel num_threads((int) repro_nthreads)")
        self._put(outer, "{")
        self._put(outer + 1, *team.enter)
        decls = loop = outer + 1 + team.inner
        self._emit_private_decls(node, decls)
        if oom:
            # rp_oom is team-consistent after the barrier in
            # _emit_private_decls, so guarding the worksharing constructs
            # with it is legal (every thread takes the same branch)
            self._put(decls, "if (!rp_oom) {")
            loop = decls + 1
        self._put(loop, *team.pre_loop)
        self._put(loop, "#pragma omp for schedule(static)")
        self._parallel_ctx = node
        try:
            self._stmt(node.nest, loop)
        finally:
            self._parallel_ctx = None
        self._put(loop, *team.post_loop)
        if oom:
            self._put(decls, "}")
        # free(NULL) is a no-op, so this is safe on the rp_oom path too
        self._put(decls, *["free(%s);" % name for name in node.ws_names])
        self._put(outer + 1, *team.leave)
        self._put(outer, "}")
        self._put(outer, *team.after)
        self._put(ind, "} else")
        self._put(ind, "#endif")
        self._put(ind, "{")
        self._stmt(node.nest, ind + 1)
        self._put(ind, "}")

    def _local_decls(self, names: Sequence[str]) -> List[str]:
        """Zero-initialised declarations of the locals among *names* (in
        the order given; ``_v`` counts as an integer), one per storage."""
        types = {**self.types, _V: ir.INT}
        lines = []
        for tag, form, init in (
            (ir.INT, "int64_t %s;", "%s = 0"),
            (ir.ELEM, self.elem + " %s;", "%s = 0.0"),
            (ir.ROW, "const " + self.elem + " %s;", "*%s = 0"),
        ):
            group = [init % n for n in names if types.get(n) == tag]
            if group:
                lines.append(form % ", ".join(group))
        return lines

    def _emit_private_decls(self, plan: ir.Parallel, ind: int) -> None:
        """Thread-private locals: block-scope declarations shadowing the
        function-scope ones the serial branch uses."""
        names = plan.assigned + ((_V,) if self.vlen is not None else ())
        self._put(ind, *self._local_decls(sorted(names)))
        for name in plan.ws_names:
            self._put(
                ind,
                "%s *%s = (%s *) malloc((size_t) (%s) * sizeof(%s));"
                % (self.elem, name, self.elem, self.ws_alloc[name], self.elem),
            )
        if plan.ws_names:
            # a failed per-thread workspace allocation flags the whole
            # team (every thread reaches the barrier, so rp_oom is
            # consistent when the guarded work region tests it) and the
            # kernel returns a nonzero status instead of aborting
            self._put(
                ind,
                "if (%s) {" % " || ".join("!%s" % n for n in plan.ws_names),
            )
            self._put(ind + 1, "#pragma omp atomic write")
            self._put(ind + 1, "rp_oom = 1;")
            self._put(ind, "}")
            self._put(ind, "#pragma omp barrier")

    def _privatized_team(self, plan: ir.Parallel) -> _Team:
        """min/max scatter: per-thread output buffers + tree reduction.

        min/max over IEEE doubles is associative and commutative, so the
        pairwise tree combine is bit-identical to the serial fold for any
        team size.
        """
        elem = self.elem
        reduce_op = self.lowered.output.reduce_op
        cfn = ("fmin" if reduce_op == "min" else "fmax") + self._fp_suffix
        ident = "INFINITY" if reduce_op == "min" else "(-INFINITY)"
        total = (
            " * ".join("out_dims[%d]" % d for d in range(self.out_ndim)) or "1"
        )
        return _Team(
            before=["%s *pv_all = NULL;" % elem, "int64_t pv_team = 1;"],
            enter=[
                "int64_t pv_total = %s;" % total,
                "int64_t pv_k = 0, pv_s = 0, pv_b = 0;",
                "#pragma omp single",
                "{",
                "    pv_team = omp_get_num_threads();",
                "    pv_all = (%s *) malloc((size_t) (pv_total * pv_team) * sizeof(%s));"
                % (elem, elem),
                "}",  # implicit barrier publishes pv_all / pv_team
                # pv_all is team-consistent after the single's barrier, so
                # every thread takes the same branch and the worksharing
                # constructs (and the ws barrier) inside stay legal
                "if (pv_all) {",
                "    %s *pv_out = pv_all + (int64_t) omp_get_thread_num() * pv_total;"
                % elem,
            ],
            inner=1,
            pre_loop=[
                "for (pv_k = 0; pv_k < pv_total; ++pv_k) { pv_out[pv_k] = %s; }" % ident
            ],
            post_loop=[
                "for (pv_s = 1; pv_s < pv_team; pv_s *= 2) {",
                "    #pragma omp for schedule(static)",
                "    for (pv_k = 0; pv_k < pv_total; ++pv_k) {",
                "        for (pv_b = 0; pv_b + pv_s < pv_team; pv_b += 2 * pv_s) {",
                "            pv_all[pv_b * pv_total + pv_k] = %s(pv_all[pv_b * pv_total + pv_k], "
                "pv_all[(pv_b + pv_s) * pv_total + pv_k]);" % cfn,
                "        }",
                "    }",
                "}",
                "#pragma omp for schedule(static)",
                "for (pv_k = 0; pv_k < pv_total; ++pv_k) { out[pv_k] = %s(out[pv_k], pv_all[pv_k]); }"
                % cfn,
            ],
            leave=["}"],
            after=["if (!pv_all || rp_oom) { rp_status = 1; }", "free(pv_all);"],
        )

    # ------------------------------------------------------------------
    # emission: one template per node
    # ------------------------------------------------------------------
    def _elem_const(self, value: float) -> str:
        """A float literal in the kernel's element type.

        float32 kernels cast every literal to ``float`` at the point of
        use — mirroring numpy's weak-scalar promotion, which rounds a
        Python float operand to float32 before operating — so expression
        trees evaluate bit-identically to the Python backend.
        """
        text = _c_float(value)
        if self.elem == "float":
            return "((float) %s)" % text
        return text

    def _put(self, indent: int, *texts: str) -> None:
        self.lines.extend("    " * indent + text for text in texts)

    def _block(self, stmts: Sequence[ir.Stmt], ind: int) -> None:
        for s in stmts:
            self._stmt(s, ind)

    def _stmt(self, s: ir.Stmt, ind: int) -> None:
        if isinstance(s, ir.Reduce):
            self._reduce(s, ind)
        elif isinstance(s, ir.Let):
            row = s.var.type == ir.ROW
            text = self._vec_pointer(s.expr) if row else self._expr(s.expr)
            self._put(ind, "%s = %s;" % (s.var.name, text))
        elif isinstance(s, ir.Init):
            if s.ws.type == ir.ROW:
                if self._blocked:
                    # the block-local copy of the workspace, in scope for
                    # every use (the regblock matcher checked that)
                    self._put(ind, "%s %s[%d];" % (self.elem, s.ws.name, regblock.WIDTH))
                self._vector_loop(ind, "%s[%s]" % (s.ws.name, _V), "=", s.value)
            else:
                self._put(ind, "%s = %s;" % (s.ws.name, self._expr(s.value)))
        elif isinstance(s, ir.If):
            self._put(ind, "if (%s) {" % self._expr(s.cond))
            self._block(s.body, ind + 1)
            self._put(ind, "}")
        elif isinstance(s, ir.DenseLoop):
            self._put(
                ind,
                "for (%s = 0; %s < %s; ++%s) {"
                % (s.var, s.var, self._expr(s.end), s.var),
            )
            self._block(s.body, ind + 1)
            self._put(ind, "}")
        elif isinstance(s, ir.FiberLoop):
            self._fiber_loop(s, ind)
        elif isinstance(s, ir.Intersect):
            self._intersect(s, ind)
        elif isinstance(s, ir.Fused):
            self._emit_fused(s, ind)
        elif isinstance(s, ir.Tiled):
            # tiling applies to serial emission only: OpenMP bodies keep
            # their own (bit-identical) schedules, and the serial fallback
            # inside _emit_parallel still lands here outside any team
            if self._parallel_ctx is None:
                self._emit_tiled_nest(s, ind)
            else:
                self._stmt(s.nest, ind)
        elif isinstance(s, ir.Blocked):
            # like tiling, serial emission only: an OpenMP body prints the
            # nest unblocked
            if self._parallel_ctx is None:
                self._emit_blocked_nest(s, ind)
            else:
                self._stmt(s.nest, ind)
        elif isinstance(s, ir.Parallel):
            self._emit_parallel(s, ind)
        elif isinstance(s, ir.WorkspaceAlloc):
            self.ws_alloc[s.ws] = s.length
        elif isinstance(s, ir.LutDef):
            # initializer conversion (double constant -> elem) is the
            # same rounding numpy applies building the float32 array
            self._put(
                ind,
                "static const %s %s[%d] = {%s};"
                % (
                    self.elem,
                    s.name,
                    len(s.values),
                    ", ".join(_c_float(v) for v in s.values),
                ),
            )
        else:
            raise CRenderError("unsupported statement %s" % type(s).__name__)

    def _fiber_ends(self, f) -> Tuple[str, str]:
        """``pos[parent]``, ``pos[parent + 1]`` of a fiber loop or binder."""
        after = ir.BinOp("+", (f.parent, ir.Const(1)))
        return (
            "%s[%s]" % (f.pos.name, self._expr(f.parent)),
            "%s[%s]" % (f.pos.name, self._expr(after)),
        )

    def _guard(self, coord: str, outer: Optional[str], ind: int) -> None:
        """The triangle guard: leave the (sorted) fiber past the outer index."""
        if outer is not None:
            self._put(ind, "if ((%s > %s)) {" % (coord, outer))
            self._put(ind + 1, "break;")
            self._put(ind, "}")

    def _fiber_loop(self, s: ir.FiberLoop, ind: int) -> None:
        q = s.pos_var
        lo, hi = self._fiber_ends(s)
        if s.bound is not None:
            hi = "(%s + 1)" % s.bound
        self._put(ind, "for (%s = %s; %s < %s; ++%s) {" % (q, lo, q, hi, q))
        if s.coord_var is not None:
            self._put(ind + 1, "%s = %s[%s];" % (s.coord_var, s.idx.name, q))
        tile = self._tile_ctx
        if tile is not None and s is tile.nest.body[0]:
            # the block guard sits right after the fiber coordinate read:
            # idx runs are sorted, so leaving the block upward ends this
            # fiber's contribution (break, not continue)
            self._put(ind + 1, "if (%s >= rp_thi) { break; }" % tile.lead)
            self._put(ind + 1, "if (%s < rp_tb) { continue; }" % tile.lead)
        self._guard(s.coord_var, s.guard, ind + 1)
        self._block(s.body, ind + 1)
        self._put(ind, "}")

    def _intersect(self, s: ir.Intersect, ind: int) -> None:
        """Sorted-merge co-iteration: advance every fiber that trails the
        largest coordinate; run the body where all of them agree."""
        m, adv, i1 = s.max_var, s.adv_var, ind + 1
        for b in s.binders:
            lo, hi = self._fiber_ends(b)
            self._put(ind, "%s = %s;" % (b.pos_var, lo))
            self._put(ind, "%s = %s;" % (b.end_var, hi))
        self._put(
            ind,
            "while ((%s)) {"
            % " && ".join("(%s < %s)" % (b.pos_var, b.end_var) for b in s.binders),
        )
        for b in s.binders:
            self._put(i1, "%s = %s[%s];" % (b.coord, b.idx.name, b.pos_var))
        self._put(i1, "%s = %s;" % (m, s.binders[0].coord))
        for b in s.binders[1:]:
            self._put(i1, "if ((%s > %s)) {" % (b.coord, m))
            self._put(i1 + 1, "%s = %s;" % (m, b.coord))
            self._put(i1, "}")
        self._put(i1, "%s = 0;" % adv)
        for b in s.binders:
            self._put(i1, "if ((%s < %s)) {" % (b.coord, m))
            self._put(i1 + 1, "%s += 1;" % b.pos_var)
            self._put(i1 + 1, "%s = 1;" % adv)
            self._put(i1, "}")
        self._put(i1, "if (%s) {" % adv)
        self._put(i1 + 1, "continue;")
        self._put(i1, "}")
        self._put(i1, "%s = %s;" % (s.coord_var, m))
        self._guard(s.coord_var, s.guard, i1)
        self._block(s.body, i1)
        for b in s.binders:
            self._put(i1, "%s += 1;" % b.pos_var)
        self._put(ind, "}")

    def _emit_tiled_nest(self, tile: ir.Tiled, ind: int) -> None:
        """Wrap one tiled nest in a block loop over output rows."""
        self._put(ind, "{")
        fiber = tile.nest.body[0]
        for line in auto_tile_rows(
            self.elem, fiber.pos.name, self._expr(tile.nest.end)
        ):
            self._put(ind + 1, line)
        self._put(ind + 1, "int64_t rp_tb, rp_thi;")
        self._put(
            ind + 1,
            "for (rp_tb = 0; rp_tb < out_dims[0]; rp_tb += rp_tile) {",
        )
        self._put(ind + 2, "rp_thi = rp_tb + rp_tile;")
        self._tile_ctx = tile
        try:
            self._stmt(tile.nest, ind + 2)
        finally:
            self._tile_ctx = None
        self._put(ind + 1, "}")
        self._put(ind, "}")

    def _emit_blocked_nest(self, block: ir.Blocked, ind: int) -> None:
        """The nest once per ``regblock.WIDTH``-wide vector block when the
        extent is a multiple of the width, else unchanged."""
        width = regblock.WIDTH
        self._put(ind, "if (%s %% %d == 0) {" % (self.vlen, width))
        self._put(ind + 1, "int64_t rp_vb;")
        self._put(
            ind + 1, "for (rp_vb = 0; rp_vb < %s; rp_vb += %d) {" % (self.vlen, width)
        )
        self._blocked = True
        try:
            self._stmt(block.nest, ind + 2)
        finally:
            self._blocked = False
        self._put(ind + 1, "}")
        self._put(ind, "} else {")
        self._stmt(block.nest, ind + 1)
        self._put(ind, "}")

    def _row_len(self) -> str:
        """Trip count of an element loop: the vector extent, or the
        width of the vector block being printed."""
        return str(regblock.WIDTH) if self._blocked else self.vlen

    def _row_at(self) -> str:
        """Subscript of element ``_v`` of an argument row (a workspace
        row is block-local, so always ``[_v]``)."""
        return "rp_vb + " + _V if self._blocked else _V

    def _simd_hint(self, ind: int) -> None:
        """An explicit vectorization promise on element-disjoint loops.

        Unguarded: the serial object honours it through ``-fopenmp-simd``
        (no ``_OPENMP`` there), the OpenMP object through ``-fopenmp``.
        """
        if self.simd:
            self._put(ind, "#pragma omp simd")

    def _emit_fused(self, node: ir.Fused, ind: int) -> None:
        """One element loop for a run of fused row statements."""
        parts = [
            "%s += %s;" % (self._elt(s.target), self._expr(s.value, velt=True))
            for s in node.stmts
        ]
        self.uses_vector = True
        self._simd_hint(ind)
        self._put(
            ind,
            "for (%s = 0; %s < %s; ++%s) { %s }"
            % (_V, _V, self._row_len(), _V, " ".join(parts)),
        )

    # -- reductions ----------------------------------------------------
    def _elt(self, target) -> str:
        """Element lvalue of an update target (a row's is at ``_v``)."""
        if isinstance(target, ir.Out):
            return self._out_target(target)
        if target.type == ir.ROW:
            return "%s[%s]" % (target.name, _V)
        return target.name

    def _reduce(self, s: ir.Reduce, ind: int) -> None:
        elt = self._elt(s.target)
        if s.op != "+":
            cfn = ("fmin" if s.op == "min" else "fmax") + self._fp_suffix
            if s.row:
                self._vector_loop(
                    ind, elt, "=", s.value, "%s(%s, %%s)" % (cfn, elt)
                )
            else:
                self._put(
                    ind, "%s = %s(%s, %s);" % (elt, cfn, elt, self._expr(s.value))
                )
            return
        if s.row:
            self._vector_loop(ind, elt, "+=", s.value)
        else:
            self._put(ind, "%s += %s;" % (elt, self._expr(s.value)))

    def _vector_loop(
        self, ind: int, elt: str, op: str, value: ir.Expr, form: str = "%s"
    ) -> None:
        self.uses_vector = True
        self._simd_hint(ind)
        self._put(
            ind,
            "for (%s = 0; %s < %s; ++%s) { %s %s %s; }"
            % (_V, _V, self._row_len(), _V, elt, op, form % self._expr(value, velt=True)),
        )

    # -- subscripts ----------------------------------------------------
    @staticmethod
    def _flatten(coords: Sequence[str], dims_name: str) -> str:
        """Row-major flat index of *coords* against ``dims_name[1..]``."""
        if not coords:
            return "0"
        expr = coords[0]
        for t in range(1, len(coords)):
            expr = "(%s) * %s[%d] + %s" % (expr, dims_name, t, coords[t])
        return expr

    def _out_base(self, target: ir.Out) -> str:
        """Flat index of an ``out[...]`` target's first element."""
        flat = self._flatten(target.coords, "out_dims")
        if target.row and target.coords:
            return "(%s) * out_dims[%d]" % (flat, self.out_ndim - 1)
        return flat

    def _out_target(self, target: ir.Out) -> str:
        """Element lvalue for an ``out[...]`` target; a row's references
        the vector loop variable.  A privatized OpenMP body writes its
        per-thread copy instead."""
        team = self._parallel_ctx
        out = "pv_out" if team is not None and team.strategy == "privatized" else "out"
        base = self._out_base(target)
        if not target.row:
            return "%s[%s]" % (out, base)
        self.uses_vector = True
        if base == "0":
            return "%s[%s]" % (out, self._row_at())
        return "%s[%s + %s]" % (out, base, self._row_at())

    def _dense_prefix(self, load: ir.Load) -> str:
        """Flat row index of a dense load one coordinate short."""
        name = load.array.name
        return "(%s) * %s_dims[%d]" % (
            self._flatten([self._expr(c) for c in load.coords], "%s_dims" % name),
            name,
            load.array.ndim - 1,
        )

    def _vec_pointer(self, load: ir.Load) -> str:
        """Pointer expression for a dense row / whole-vector value."""
        if not load.coords:
            return load.array.name
        return "%s + %s" % (load.array.name, self._dense_prefix(load))

    # -- expressions ---------------------------------------------------
    def _expr(self, e: ir.Expr, velt: bool = False) -> str:
        if e.type == ir.ROW and not velt:
            raise CRenderError("row value outside a row statement: %r" % (e,))
        if isinstance(e, ir.Var):
            if e.type != ir.ROW:
                return e.name
            at = _V if self.types.get(e.name) == ir.WS else self._row_at()
            return "%s[%s]" % (e.name, at)
        if isinstance(e, ir.Dim):
            return e.name
        if isinstance(e, ir.Const):
            if isinstance(e.value, (bool, int)):
                return str(int(e.value))
            if e.value == float("inf"):
                return "INFINITY"
            if e.value == float("-inf"):
                return "(-INFINITY)"
            return self._elem_const(e.value)
        if isinstance(e, ir.Load):
            return self._load(e, velt)
        if isinstance(e, ir.BinOp):
            text = self._expr(e.args[0], velt)
            for arg in e.args[1:]:
                text = "(%s %s %s)" % (text, e.op, self._expr(arg, velt))
            return text
        if isinstance(e, ir.Cmp):
            return "(%s %s %s)" % (self._expr(e.left), e.op, self._expr(e.right))
        if isinstance(e, ir.BoolOp):
            op = " && " if e.op == "and" else " || "
            return "(%s)" % op.join(self._expr(a) for a in e.args)
        if isinstance(e, ir.Flat):
            return self._expr(e.fold())
        raise CRenderError("unsupported expression %s" % type(e).__name__)

    def _load(self, e: ir.Load, velt: bool) -> str:
        name = e.array.name
        if e.array.kind != "dense":
            return "%s[%s]" % (name, self._expr(e.coords[0], velt))
        if e.type == ir.ELEM:
            coords = [self._expr(c) for c in e.coords]
            return "%s[%s]" % (name, self._flatten(coords, "%s_dims" % name))
        if not e.coords:
            return "%s[%s]" % (name, self._row_at())
        return "%s[%s + %s]" % (name, self._dense_prefix(e), self._row_at())


@dataclass(frozen=True)
class CRender:
    """Everything one render of a lowered kernel produced."""

    source: str
    #: the OpenMP strategy of each *top-level* nest (``None`` = serial),
    #: in ``repro_nest_sec`` slot order.
    strategies: Tuple[Optional[str], ...]

    @property
    def parallel(self) -> bool:
        """Whether any nest received an OpenMP body."""
        return any(s is not None for s in self.strategies)


def render_c_full(
    lowered: LoweredKernel, label: Optional[str], profile: bool = False
) -> CRender:
    """Run the phase pipeline over a lowered kernel, print its product
    and return the full :class:`CRender`.  *profile* brackets every
    top-level nest with wall-time accumulation exported through
    ``repro_profile_*`` symbols — only :func:`repro.obs.profile_kernel`
    asks for that.  Pure: the same arguments always print the same
    translation unit."""
    with obs_trace.span("render_c", label=label):
        renderer = _Renderer(lowered, label, profile)
        state = run_pipeline(lowered, label)
        source = renderer.render(state)
    return CRender(source, tuple(w.strategy for w in state.work))


def render_c(lowered: LoweredKernel, label: Optional[str] = None) -> str:
    """The C translation unit of a lowered kernel — an inspection helper."""
    return render_c_full(lowered, label).source
