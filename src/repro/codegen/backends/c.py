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
literal to ``float`` at its point of use, mirroring numpy's weak-scalar
promotion so both precisions stay bit-identical to the Python backend.

The translation unit includes only ``<stdint.h>`` and ``<stddef.h>`` and
declares the three allocator functions it calls.  A source that reduces
by min/max gets ``static inline`` ``rp_fmin``/``rp_fmax`` (``rp_fminf``/
``rp_fmaxf`` for float32): ``b < a ? b : a`` and ``b > a ? b : a``,
Python's ``min``/``max`` on ±0 ties and NaN operands, where libm's
``fmin``/``fmax`` are not; an infinite literal is ``__builtin_inff()``.
The output clear calls ``rp_clear``, one out-of-line loop of
``volatile`` stores: ``gcc`` can neither turn it into a ``memset`` call,
which would make ``ld`` resolve libc for objects that reference nothing
else, nor spend ``-O3`` vectorizer time on it.  The clear is bound by
memory, not by store width: on ``kernel_steady``'s inputs, whole
operations in one process, it ran 0.855x / 0.844x of the parent's
(seeds 12 / 53), a vectorized ``noipa`` helper 0.916x / 0.861x and
vectorized loops inline 0.831x / 0.874x — one spread — while
``cold_compile`` read +5 %, +10 % and +12 %.

Phases decide, this module prints
---------------------------------
Before emission the program's top-level statements run through the
whole phase pipeline of :mod:`repro.codegen.passes` — the same phases,
in the same order, for every kernel — and the renderer prints its
product, :class:`~repro.codegen.loopir.Fused`,
:class:`~repro.codegen.loopir.Tiled`,
:class:`~repro.codegen.loopir.Blocked` and
:class:`~repro.codegen.loopir.Parallel` nodes included, under the SIMD
flag it set.  A ``Blocked`` run is printed field by field: its padded
copies, what is copied in and back, whether its clear runs on a padded
copy, and the :class:`~repro.codegen.loopir.Rows` its blocks read
through are the register-blocking phase's answers, not this module's.
A ``Parallel`` nest (the strategy table lives in
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
    malloc calloc free repro_nthreads repro_nest_sec repro_nest_calls
    repro_profile_nests repro_profile_calls
    repro_profile_reset repro_profile_read repro_openmp
    RP_INDEX repro_index_bytes
    pv_all pv_out pv_total pv_team pv_k pv_s pv_b""".split()
)

#: every generated helper name and block-scope local starts with it
#: (``rp_status``, ``rp_vb``, ``rp_fmin``, the staged ``rp_<array>``...)
_RESERVED_PREFIX = "rp_"

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

#: the allocator functions every kernel may call, declared rather than
#: included: ``<stdlib.h>`` and ``<math.h>`` cost ``cc`` time, not code.
_ALLOCATORS = (
    "void *malloc(size_t);",
    "void *calloc(size_t, size_t);",
    "void free(void *);",
)

#: the min/max helpers a min/max reduction calls: Python's ``min(a, b)``
#: is ``b`` only when ``b < a`` (``max``: ``b > a``), so ±0 ties keep the
#: accumulator and a NaN never replaces a number, as in the Python
#: backend's scalar updates; x86 ``minsd``/``maxsd`` compute exactly this.
_MINMAX = {"min": "<", "max": ">"}


def _minmax_helper(name: str, elem: str, op: str) -> str:
    return "static inline %s %s(%s a, %s b) { return b %s a ? b : a; }" % (
        elem, name, elem, elem, _MINMAX[op]
    )


def _product(*factors: str) -> str:
    """``a * b * ...`` of C factors, without the ones; ``0`` absorbs."""
    if "0" in factors:
        return "0"
    return " * ".join(f for f in factors if f != "1") or "1"


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
        # the single-precision rp_fminf/rp_fmaxf.
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
        # loop.
        self.simd = False
        self._parallel_ctx: Optional[ir.Parallel] = None
        self._tile_ctx: Optional[ir.Tiled] = None
        #: min/max helper name -> reduce op, for the ones the code calls
        self._minmax: Dict[str, str] = {}
        #: whether the code calls rp_clear
        self._clears = False

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
        #: how row statements reach the vector axis: the kernel's own rows,
        #: or those of the Blocked run being printed
        self._rows = ir.Rows(ir.Dim(self.vlen))

        names = set(self.types) | {a.name for a in program.args}
        bad = sorted(
            n
            for n in names
            if n in _C_KEYWORDS or n == _V or n.startswith(_RESERVED_PREFIX)
        )
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
        # a blocked nest's rows are block-local arrays, and a team body
        # allocates its own: the heap rows are those of the serial nests
        serial = [s.nest if isinstance(s, ir.Parallel) else s for s in body]
        unblocked = [s for s in serial if not isinstance(s, ir.Blocked)]
        used = ir.reads(unblocked) | ir.assigned(unblocked)
        heap = [name for name in self.ws_alloc if name in used]
        for name in heap:
            decls.append(
                "    %s *%s = (%s *) malloc((size_t)(%s) * sizeof(%s));"
                % (elem, name, elem, self.ws_alloc[name], elem)
            )
        if heap:
            # report allocation failure as a status instead of crashing
            decls.append("    if (%s) {" % " || ".join("!%s" % name for name in heap))
            for name in heap:
                decls.append("        free(%s);" % name)
            decls.append("        return 1;")
            decls.append("    }")
        frees = ["    free(%s);" % name for name in heap]

        header = [
            "/* generated by repro.codegen.backends.c%s */"
            % ((" [%s]" % self.label) if self.label else ""),
            "#include <stdint.h>",
            "#include <stddef.h>",
            *_ALLOCATORS,
            *INDEX_DECLARATION,
        ]
        if self._clears:
            header += [
                "",
                "static __attribute__((noinline)) void rp_clear(volatile %s *rp_p, int64_t rp_n, %s rp_v)"
                % (elem, elem),
                "{",
                "    int64_t rp_k;",
                "    for (rp_k = 0; rp_k < rp_n; ++rp_k) { rp_p[rp_k] = rp_v; }",
                "}",
            ]
        if self._minmax:
            header.append("")
            header += [
                _minmax_helper(name, elem, op)
                for name, op in sorted(self._minmax.items())
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
            "   (a workspace, a padded row copy or a per-thread buffer) */",
            "int64_t kernel(%s)" % (",\n               ".join(sig_parts)),
            "{",
        ]
        return (
            "\n".join(
                header + decls + self.lines + frees + ["    return rp_status;", "}"]
                + self._finish()
            )
            + "\n"
        )

    def _finish(self) -> List[str]:
        """The second entry point, ``finish(out, out_dims, res)``: each
        :class:`~repro.codegen.loopir.MirrorOut` nest as a plain strip copy
        through ``volatile`` stores (no ``memcpy`` call for ``ld`` to
        resolve, no vectorizer time); ``res`` may be ``out``."""
        nests = self.lowered.program.finish
        if not nests:
            return []
        signature = "const %s *out, const int64_t *restrict out_dims, volatile %s *res"
        lines = ["", "void finish(%s)" % (signature % (self.elem, self.elem)), "{",
                 "    int64_t %s;" % ", ".join(nests[0].coords)]
        for s in nests:
            for t, (c, lo, hi) in enumerate(zip(s.coords, s.starts, s.ends)):
                test = "%s <= %s" % (c, hi) if hi else "%s < out_dims[%d]" % (c, s.axes[t])
                loop = "for (%s = %s; %s; ++%s) {" % (c, lo or "0", test, c)
                lines.append("    " * (t + 1) + loop)
            at = {}
            for key in (s.dest, s.source):  # row-major, each axis as long as its coordinate's
                at[key] = key[0]
                for c in key[1:]:
                    at[key] = "(%s) * out_dims[%d] + %s" % (at[key], s.axes[s.coords.index(c)], c)
            copy = "res[%s] = %s[%s];" % (at[s.dest], s.of, at[s.source])
            lines.append("    " * (len(s.coords) + 1) + copy)
            lines += ["    " * (t + 1) + "}" for t in reversed(range(len(s.coords)))]
        return lines + ["}"]

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
        cfn = self._minmax_fn(reduce_op)
        ident = "__builtin_inff()" if reduce_op == "min" else "(-__builtin_inff())"
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
            if s.row:
                self._vector_loop(ind, self._update(s))
            else:
                self._put(ind, self._update(s))
        elif isinstance(s, ir.Let):
            row = s.var.type == ir.ROW
            text = self._vec_pointer(s.expr) if row else self._expr(s.expr)
            self._put(ind, "%s = %s;" % (s.var.name, text))
        elif isinstance(s, ir.Init):
            if s.ws.type == ir.ROW:
                if s.ws.name in self._rows.local:
                    length = self._expr(self._rows.length)
                    self._put(ind, "%s %s[%s];" % (self.elem, s.ws.name, length))
                value = self._expr(s.value, velt=True)
                self._vector_loop(ind, "%s[%s] = %s;" % (s.ws.name, _V, value))
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
        elif isinstance(s, ir.ClearOut):
            self._emit_clear(s, ind)
        elif isinstance(s, ir.Fused):
            # one element loop for a run of fused row statements
            self._vector_loop(ind, *[self._update(r) for r in s.stmts])
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
                self._emit_staged(s, ind)
            else:
                self._block(s.nests, ind)
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
        if tile.clear is not None:
            self._emit_clear(tile.clear, ind + 2, window=("rp_tb", "rp_thi"))
        self._tile_ctx = tile
        try:
            self._stmt(tile.nest, ind + 2)
        finally:
            self._tile_ctx = None
        self._put(ind + 1, "}")
        self._put(ind, "}")

    def _emit_staged(self, run: ir.Blocked, ind: int) -> None:
        """A run of blocked nests, each once per vector block, over the
        padded copies *run* states, field by field."""
        rows, n, elem, i1, i2, i3 = run.rows, self.vlen, self.elem, ind + 1, ind + 2, ind + 3
        width, start, w = rows.length.value, rows.start, rows.stride
        out, *inputs = rows.copies
        padded = "if (%s != %s) {" % (w, n)

        def count(a: ir.Array) -> str:
            return " * ".join("%s_dims[%d]" % (a.name, d) for d in range(a.ndim - 1)) or "1"

        def copy_rows(a: ir.Array, back: bool, first="0", rows_of_run=None) -> str:
            """*rows_of_run* rows (all of them) of *a* from *first* into its
            padded copy, or *back*."""
            stop = rows_of_run if first == "0" else "%s + %s" % (first, rows_of_run)
            staged_row = "rp_%s + rp_r * %s" % (a.name, w)
            row = "%s + rp_r * %s_dims[%d]" % (a.name, a.name, a.ndim - 1)
            into, src = (row, staged_row) if back else (staged_row, row)
            return (
                "for (rp_r = %s; rp_r < %s; ++rp_r) { "
                "__builtin_memcpy(%s, %s, (size_t) %s * sizeof(%s)); }"
                % (first, stop or count(a), into, src, n, elem)
            )

        pointers = ["*rp_%s = %s" % (out.name, out.name)] + [
            "*rp_%s = (%s *) %s" % (a.name, elem, a.name) for a in inputs
        ]
        self._put(ind, "{")
        self._put(
            i1,
            "int64_t %s = 0, rp_r = 0, %s = (%s + %d) / %d * %d;"
            % (start, w, n, width - 1, width, width),
            "%s %s;" % (elem, ", ".join(pointers)),
            padded,
        )
        # one element more, so an empty copy is never a NULL return
        self._put(
            i2,
            *[
                "rp_%s = (%s *) calloc((size_t) (%s * %s + 1), sizeof(%s));"
                % (a.name, elem, count(a), w, elem)
                for a in rows.copies
            ],
            "if (%s) {" % " && ".join("rp_%s" % a.name for a in rows.copies),
        )
        self._put(i3, *[copy_rows(a, False) for a in run.copy_in])
        self._put(i2, "} else {", "    rp_status = 1;", "}")
        self._put(i1, "}", "if (!rp_status) {")
        if run.clear is not None and not run.clear_padded:
            self._put(i2, "if (%s == %s) {" % (w, n))
            self._emit_clear(run.clear, i3, "rp_" + out.name, w)
            self._put(i2, "}")
        elif run.clear is not None:
            self._emit_clear(run.clear, i2, "rp_" + out.name, w)
        plain, self._rows = self._rows, rows
        try:
            for nest in run.nests:
                self._put(i2, "for (%s = 0; %s < %s; %s += %d) {" % (start, start, w, start, width))
                self._stmt(nest, i3)
                self._put(i2, "}")
        finally:
            self._rows = plain
        self._put(i2, padded)
        if run.back is None:
            self._put(i3, copy_rows(out, True))
        else:
            # the run's rows: every axis after the run's but the last
            per = range(len(run.back.coords) + 1, out.ndim - 1)
            back = lambda at, first, count: self._put(at, copy_rows(out, True, first, count))  # noqa: E731
            self._clear_region(run.back, i3, back, ["out_dims[%d]" % d for d in per])
        self._put(i2, "}")
        self._put(i1, "}", padded)
        self._put(i2, *["free(rp_%s);" % a.name for a in rows.copies])
        self._put(i1, "}")
        self._put(ind, "}")

    # -- the output clear ----------------------------------------------
    def _clear_region(self, clear: ir.ClearOut, ind: int, emit, per, window=None) -> None:
        """The loops of *clear*'s region, and under them ``emit(ind,
        first, count)`` for its run: ``count`` indices of the layout axis
        after the coordinates, from flat index ``first`` over the axes up
        to it, each scaled by the extents *per* of the axes after it.
        *window* ``(lo, hi)`` keeps axis 0 inside a tile block."""
        coords = clear.coords
        if not coords and window is None:
            first, count = "0", "out_dims[0]" if self.out_ndim else "1"
        elif not coords:
            lo, hi = window
            first, count = lo, "((%s < out_dims[0] ? %s : out_dims[0]) - %s)" % (hi, hi, lo)
        else:
            for t, (coord, end) in enumerate(zip(coords, clear.ends)):
                lo, test = "0", "%s < %s" % (coord, self._expr(end))
                if t == 0 and window is not None:
                    lo, test = window[0], "%s < %s && %s" % (coord, window[1], test)
                self._put(ind + t, "for (%s = %s; %s; ++%s) {" % (coord, lo, test, coord))
            first = "(%s) * out_dims[%d]" % (self._flatten(coords, "out_dims"), len(coords))
            count = self._expr(clear.span)
        emit(ind + len(coords), _product(first, *per), _product(count, *per))
        for t in reversed(range(len(coords))):
            self._put(ind + t, "}")

    def _emit_clear(
        self, clear: ir.ClearOut, ind: int, array="out", row=None, window=None
    ) -> None:
        """Set *clear*'s region of *array* to the identity, one
        ``rp_clear`` call per run; *row* is the row stride of a padded
        copy."""
        self._clears = True
        value = self._expr(clear.value)
        dims = ["out_dims[%d]" % d for d in range(self.out_ndim)]
        if row is not None:
            dims[-1] = row

        def run(at: int, first: str, count: str) -> None:
            start = array if first == "0" else "%s + %s" % (array, first)
            self._put(at, "rp_clear(%s, %s, %s);" % (start, count, value))

        self._clear_region(clear, ind, run, dims[len(clear.coords) + 1:], window)

    def _row(self, name: str, dims: str, ndim: int, coords: Sequence[str]) -> Tuple[str, str]:
        """``(array, flat index of its first element)`` of the row of
        *name* at *coords* (index ``0`` for a whole vector): of its padded
        copy, when the rows being printed have one."""
        stride = "%s[%d]" % (dims, ndim - 1)
        if any(a.name == name for a in self._rows.copies):
            name, stride = "rp_" + name, self._rows.stride
        if not coords:
            return name, "0"
        return name, "(%s) * %s" % (self._flatten(coords, dims), stride)

    def _row_elt(self, array: str, start: str = "0") -> str:
        """Element ``_v`` of the argument row at *array* + *start* (a
        workspace row's is always at ``_v``)."""
        at = _V if self._rows.start is None else "%s + %s" % (self._rows.start, _V)
        return "%s[%s]" % (array, at if start == "0" else "%s + %s" % (start, at))

    def _simd_hint(self, ind: int) -> None:
        """An explicit vectorization promise on element-disjoint loops.

        Unguarded: the serial object honours it through ``-fopenmp-simd``
        (no ``_OPENMP`` there), the OpenMP object through ``-fopenmp``.
        """
        if self.simd:
            self._put(ind, "#pragma omp simd")

    # -- reductions ----------------------------------------------------
    def _minmax_fn(self, op: str) -> str:
        """The helper a min/max update calls, declared by :meth:`_assemble`."""
        name = "rp_f%s%s" % (op, self._fp_suffix)
        self._minmax[name] = op
        return name

    def _update(self, s: ir.Reduce) -> str:
        """``target op= value;`` of one update, of a row's element ``_v``."""
        if isinstance(s.target, ir.Out):
            elt = self._out_target(s.target)
        else:  # a workspace, printed as it is read
            elt = self._expr(s.target, velt=True)
        value = self._expr(s.value, velt=s.row)
        if s.op == "+":
            return "%s += %s;" % (elt, value)
        return "%s = %s(%s, %s);" % (elt, self._minmax_fn(s.op), elt, value)

    def _vector_loop(self, ind: int, *parts: str) -> None:
        """One element loop over the statements *parts*."""
        self.uses_vector = True
        self._simd_hint(ind)
        self._put(
            ind,
            "for (%s = 0; %s < %s; ++%s) { %s }"
            % (_V, _V, self._expr(self._rows.length), _V, " ".join(parts)),
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

    def _out_target(self, target: ir.Out) -> str:
        """Element lvalue for an ``out[...]`` target; a row's references
        the vector loop variable.  A privatized OpenMP body writes its
        per-thread copy instead."""
        team = self._parallel_ctx
        out = "pv_out" if team is not None and team.strategy == "privatized" else "out"
        if not target.row:
            return "%s[%s]" % (out, self._flatten(target.coords, "out_dims"))
        self.uses_vector = True
        return self._row_elt(*self._row(out, "out_dims", self.out_ndim, target.coords))

    def _dense_row(self, load: ir.Load) -> Tuple[str, str]:
        """``(array, flat index of the row's first element)`` of a dense
        load one coordinate short."""
        coords = [self._expr(c) for c in load.coords]
        return self._row(load.array.name, "%s_dims" % load.array.name, load.array.ndim, coords)

    def _vec_pointer(self, load: ir.Load) -> str:
        """Pointer expression for a dense row / whole-vector value."""
        array, start = self._dense_row(load)
        return array if start == "0" else "%s + %s" % (array, start)

    # -- expressions ---------------------------------------------------
    def _expr(self, e: ir.Expr, velt: bool = False) -> str:
        if e.type == ir.ROW and not velt:
            raise CRenderError("row value outside a row statement: %r" % (e,))
        if isinstance(e, ir.Var):
            if e.type != ir.ROW:
                return e.name
            if self.types.get(e.name) == ir.WS:
                return "%s[%s]" % (e.name, _V)
            return self._row_elt(e.name)
        if isinstance(e, ir.Dim):
            return e.name
        if isinstance(e, ir.Const):
            if isinstance(e.value, (bool, int)):
                return str(int(e.value))
            if e.value == float("inf"):
                return "__builtin_inff()"
            if e.value == float("-inf"):
                return "(-__builtin_inff())"
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
        return self._row_elt(*self._dense_row(e))


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
        state = run_pipeline(lowered, label, profile)
        source = renderer.render(state)
    return CRender(source, tuple(w.strategy for w in state.work))


def render_c(lowered: LoweredKernel, label: Optional[str] = None) -> str:
    """The C translation unit of a lowered kernel — an inspection helper."""
    return render_c_full(lowered, label).source
