"""The C execution backend.

``render_c`` prints a :class:`~repro.codegen.lower.LoweredKernel`'s loop
program (:mod:`repro.codegen.loopir`) as a self-contained C translation
unit: one text template per node, the same loop structure the Python
backend prints, just compiled.  Row statements (numpy row slices in the
Python backend) become plain inner loops over the vector index, which
``cc -O3`` auto-vectorizes.  Loading, upgrading and calling the compiled
object is :mod:`repro.codegen.backends.cexec`'s job; this module is pure
(program in, text out).

Data binding: every numpy array crosses as a raw pointer (``int64_t*`` for
``pos``/``idx`` structure arrays; the kernel's element type — ``double``
for float64 kernels, ``float`` for float32 ones, per
:attr:`LoweredKernel.dtype` — for values, dense inputs and the output);
each dense array and the output additionally pass an ``int64_t`` extent
vector so the C side can flatten multi-dimensional subscripts without
baking shapes into the code.  A trailing ``int64_t repro_nthreads``
carries the runtime thread count.  float32 kernels round every float
literal to ``float`` at its point of use and call ``fminf``/``fmaxf``,
mirroring numpy's weak-scalar promotion so both precisions stay
bit-identical to the Python backend.

Parallel execution
------------------
Each top-level loop nest is analyzed at render time and, when it can run
on several cores, emitted twice behind ``#if defined(_OPENMP)``: a serial
body (taken when ``repro_nthreads <= 1``) and an ``omp parallel`` body.
The one rendered source is built into one of two objects
(:mod:`~repro.codegen.backends.ctoolchain`): the **serial object**
(``-fopenmp-simd``), in which the preprocessor has dropped every parallel
body, the scatter-log pool and ``<omp.h>`` — less than half the ``cc``
time — and the **OpenMP object** (``-fopenmp``), which holds both
branches and exports the ``repro_openmp`` marker symbol.
:meth:`~repro.codegen.backends.cexec.CBackend.compile` builds the serial
object unless the kernel's default thread setting can resolve above 1; a
later run with ``threads > 1`` upgrades the loaded executable in place,
once (:meth:`~repro.codegen.backends.cexec.CExecutable.upgrade`).  Both
objects run the same serial loops with the same SIMD hints, so which one
serves a call never shows in the result.  A parallel body's **reduction
strategy** depends on the nest's output-write pattern:

* ``for`` — every write's leading output coordinate is the (injective)
  outer loop variable, so iterations touch disjoint output elements: a
  plain ``#pragma omp parallel for schedule(static)``.
* ``privatized`` — min/max scatter (e.g. Bellman–Ford relaxations): each
  thread updates a private output buffer initialized to the reduction
  identity; the buffers are combined pairwise in a tree and folded into
  the output.  min/max is associative and commutative over IEEE doubles,
  so any combination order is bit-identical to the serial run.
* ``replay`` — ``+`` scatter (the symmetric-kernel case: SSYMV / SSYRK /
  SYPRD / MTTKRP / TTM mirror canonical entries to both triangles):
  floating-point addition is *not* associative, so per-thread partial
  sums would drift from the serial bit pattern.  Instead each thread
  appends its (target, value) scatter updates to a private log;
  ``schedule(static)`` hands threads contiguous iteration chunks in
  thread order, so replaying the logs thread-by-thread after the join
  reconstructs the exact serial write sequence — the multiply/traversal
  work parallelizes, and results are bit-identical to ``threads=1`` and
  to the Python backend at any thread count.  The per-thread log buffers
  live in a pool inside the shared object that is *reused across calls*
  (grown once, reset to empty per run), so steady-state repeat execution
  pays no per-call allocation; when two host threads run the same kernel
  concurrently, the second takes a freshly allocated local set instead
  of the pool.  The logs cost memory proportional to the largest run's
  scatter-write count (16 bytes per scalar update, ``8 + 8*vlen`` per
  row update, split across threads), retained for the life of the loaded
  object; a failed log (or per-thread workspace) allocation makes the
  kernel return a nonzero status, which surfaces as a
  :class:`BackendError` and lets the execution ladder re-serve the call
  serially.
* ``atomic`` — ``#pragma omp atomic`` on each scalar ``+=``; the fallback
  when the ordered log is explicitly disabled
  (``REPRO_OMP_STRATEGY=atomic``).  Atomic updates commute in arrival
  order, so this mode trades bit-reproducibility for zero log memory.

Nests the analysis cannot prove safe (top-level intersection merges,
mixed reduction operators, reads of a carried accumulator) stay serial.  ``REPRO_OMP_STRATEGY=serial`` disables the parallel
bodies entirely (such a kernel is never upgraded: its serial object is
all there is).

Loop-level optimization passes
------------------------------
Before emission the program's top-level statements run through the
composable pass pipeline in :mod:`repro.codegen.backends.cpasses`
(denormal avoidance, nest fission, vector-statement fusion, row tiling,
SIMD hints), selected by ``$REPRO_PASSES`` and keyed into the service
cache.  The renderer prints the transformed statements — including the
pipeline's :class:`~repro.codegen.loopir.Fused` and
:class:`~repro.codegen.loopir.Tiled` nodes — under its FTZ/SIMD flags.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.codegen import loopir as ir
from repro.codegen.backends.base import BackendError, CodegenConfig
from repro.codegen.backends.cpasses.base import PassConfig, run_pipeline
from repro.codegen.backends.cpasses.tile import auto_tile_rows
from repro.codegen.lower import LoweredKernel
from repro.core.config import OMP_STRATEGY_CHOICES
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace


class CRenderError(BackendError):
    """The lowered kernel uses a feature the C renderer does not cover."""


_C_KEYWORDS = frozenset(
    """auto break case char const continue default do double else enum extern
    float for goto if inline int long register restrict return short signed
    sizeof static struct switch typedef union unsigned void volatile while
    _Bool _Complex _Imaginary out out_dims kernel INFINITY threads
    repro_nthreads repro_log repro_log_slot
    repro_log_acquire repro_log_release
    rp_logs rp_my rp_lg rp_t rp_e rp_g rp_v rp_val rp_dst rp_w
    rp_pool rp_pool_cap rp_pool_busy rp_pooled rp_i
    rp_p0 rp_p1 repro_nest_sec repro_nest_calls
    repro_profile_nests repro_profile_calls
    repro_profile_reset repro_profile_read repro_openmp
    pv_all pv_out pv_total pv_team pv_k pv_s pv_b
    rp_status rp_oom rp_tb rp_thi rp_tile rp_nb rp_cap rp_csr rp_tcsr rp_slot
    repro_ftz_on repro_ftz_restore""".split()
)

#: element loop variable for vectorized statements.
_V = "_v"


def _c_float(value: float) -> str:
    if value != value or value in (float("inf"), float("-inf")):
        raise CRenderError("non-finite literal %r" % value)
    return repr(float(value))


# ----------------------------------------------------------------------
# per-nest parallelization plans
# ----------------------------------------------------------------------
@dataclass
class _NestPlan:
    """How one top-level loop nest is parallelized."""

    strategy: str  # "for" | "privatized" | "replay" | "atomic"
    row: bool  # writes are vector rows (log width = vector extent)
    carried: Tuple[str, ...]  # accumulators shared across iterations
    assigned: Tuple[str, ...]  # names assigned inside (thread-private)
    ws_names: Tuple[str, ...]  # workspace arrays used inside (per-thread)

    def carried_slot(self, name: str) -> int:
        """Negative log target encoding a carried accumulator."""
        return -(self.carried.index(name) + 1)


@dataclass(frozen=True)
class NestWork:
    """Runtime work estimate for one parallelized top-level nest.

    The renderer knows, per nest, which sparse ``idx`` arrays the loop
    walks (their lengths are the nnz-proportional trip counts) and which
    scalar extent bounds the outer ``range``; the concrete numbers only
    exist at run time, so this records *where to look* in the prepared
    argument mapping.  :meth:`CExecutable.parallel_work` resolves the
    terms against actual arguments — max ``idx`` length (the most refined
    view visited by the nest), falling back to the range extent for fully
    dense nests — times the vector width for row-writing nests.
    """

    idx_arrays: Tuple[str, ...]
    extent: Optional[str]
    vector: bool
    #: every scalar extent the kernel receives — the last-resort estimate
    #: when neither the recorded idx arrays nor the extent name resolve
    #: against the caller's argument mapping (e.g. renamed views).
    dims: Tuple[str, ...] = ()

    def resolve(self, arrays: Mapping, vlen: Optional[str]) -> float:
        trips = 0.0
        hit = False
        for name in self.idx_arrays:
            value = arrays.get(name)
            if value is not None:
                trips = max(trips, float(len(value)))
                hit = True
        if not hit and self.extent is not None:
            value = arrays.get(self.extent)
            if value is not None:
                try:
                    trips = float(value)
                    hit = True
                except (TypeError, ValueError):
                    pass
        if not hit and (self.idx_arrays or self.extent is not None):
            # Nothing this estimate recorded resolves against the actual
            # arguments.  Returning 0 here silently made threads="auto"
            # serve every such call serially; be loud and fall back to
            # the (pessimistic) product of resolvable extents instead.
            obs_metrics.inc("costmodel.unresolved")
            product = 1.0
            for name in self.dims:
                value = arrays.get(name)
                if value is None:
                    continue
                try:
                    product *= max(1.0, float(value))
                except (TypeError, ValueError):
                    continue
            trips = product
        if self.vector and vlen is not None:
            try:
                trips *= max(1.0, float(arrays.get(vlen, 1)))
            except (TypeError, ValueError):
                pass
        return trips


#: the statements that open a top-level nest a thread team can share.
_FOR = (ir.DenseLoop, ir.FiberLoop)


def _nest_of(stmt):
    return stmt.nest if isinstance(stmt, ir.Tiled) else stmt


class _Renderer:
    def __init__(
        self,
        lowered: LoweredKernel,
        label: Optional[str],
        codegen: CodegenConfig,
    ):
        self.lowered = lowered
        self.label = label
        self.pass_config = codegen.passes
        # per-nest wall-time instrumentation: every top-level nest is
        # bracketed with clock_gettime and accumulates into a static
        # array exported through repro_profile_* symbols.  Profiled
        # source differs from production source, so the content-addressed
        # .so cache can never alias the two builds.
        self.profile = codegen.profile
        #: one entry per *top-level* nest (parallel or not), aligned with
        #: the repro_nest_sec slots — the estimate profile reports compare
        #: measured time against.  None when no estimate exists.
        self.profile_model: List[Optional[NestWork]] = []
        self.vector_index = lowered.vector_index
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
        self.parallel_mode = codegen.omp_strategy
        if self.parallel_mode not in OMP_STRATEGY_CHOICES:
            raise CRenderError(
                "unknown parallel mode %r (choices: %s)"
                % (self.parallel_mode, ", ".join(OMP_STRATEGY_CHOICES))
            )

        # parallel-emission state
        self.any_parallel = False  # at least one nest got an OpenMP body
        self.uses_log = False  # the replay scatter log is referenced
        self.work_model: List[NestWork] = []  # one term per parallel nest
        self._out_array = "out"  # rebound to "pv_out" inside privatized
        self._log_plan: Optional[_NestPlan] = None
        self._atomic_plan: Optional[_NestPlan] = None
        self._assigned_top: Set[str] = set()

        # pass-pipeline state: ftz/simd flags come back on the LoopIR;
        # _parallel_ctx counts enclosing OpenMP bodies (tiling applies to
        # serial emission only); _tile_ctx is the Tiled node whose guard
        # is being injected into its fiber loop.
        self.ftz = False
        self.simd = False
        self._parallel_ctx = 0
        self._tile_ctx: Optional[ir.Tiled] = None


        program = lowered.program
        #: storage tag of every local — decided by the nodes, read here
        self.types: Dict[str, str] = ir.local_types(program)
        self.dim_args = sorted(
            a.name for a in program.args if isinstance(a, ir.Dim)
        )
        self.ws_alloc: Dict[str, str] = {}  # workspace -> length expr
        self.lines: List[str] = []
        self.uses_vector = False

        if self.vector_index is not None:
            self.vlen = "n_%s" % self.vector_index
            if self.vlen not in self.dim_args:
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
    def render(self) -> str:
        program = self.lowered.program
        state = run_pipeline(
            ir.LoopIR(list(program.body), self.out_ndim),
            self.pass_config,
            label=self.label,
        )
        self.ftz = state.ftz
        self.simd = state.simd
        for stmt in program.preamble:
            self._stmt(stmt, 1)
        self._assigned_top = ir.assigned(program.preamble)
        for stmt in state.body:
            nest = _nest_of(stmt)
            plan = None
            if isinstance(nest, _FOR) and self.parallel_mode != "serial":
                plan = self._plan_nest(nest)
            if self.profile and isinstance(nest, _FOR):
                self._emit_profiled_nest(stmt, plan, 1)
            elif plan is None:
                self._stmt(stmt, 1)
            else:
                self._emit_parallel_nest(stmt, plan, 1)
            self._assigned_top |= ir.assigned([nest])
        return self._assemble()

    def _emit_profiled_nest(self, node, plan: Optional[_NestPlan], ind: int) -> None:
        """Bracket one top-level nest with monotonic-clock accumulation."""
        slot = len(self.profile_model)
        self.profile_model.append(self._nest_work(_nest_of(node), plan))
        self._put(ind, "{")
        self._put(ind + 1, "struct timespec rp_p0, rp_p1;")
        self._put(ind + 1, "clock_gettime(CLOCK_MONOTONIC, &rp_p0);")
        if plan is None:
            self._stmt(node, ind + 1)
        else:
            self._emit_parallel_nest(node, plan, ind + 1)
        self._put(ind + 1, "clock_gettime(CLOCK_MONOTONIC, &rp_p1);")
        self._put(
            ind + 1,
            "repro_nest_sec[%d] += (double)(rp_p1.tv_sec - rp_p0.tv_sec)"
            " + 1e-9 * (double)(rp_p1.tv_nsec - rp_p0.tv_nsec);" % slot,
        )
        self._put(ind, "}")


    def _assemble(self) -> str:
        elem = self.elem
        sig_parts = [
            "%s *restrict out" % elem,
            "const int64_t *restrict out_dims",
        ]
        for arg in self.lowered.program.args:
            if isinstance(arg, ir.Dim):
                sig_parts.append("int64_t %s" % arg.name)
            elif arg.kind in ("pos", "idx"):
                sig_parts.append("const int64_t *restrict %s" % arg.name)
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
        ints = sorted(n for n, t in self.types.items() if t == ir.INT)
        dbls = sorted(n for n, t in self.types.items() if t == ir.ELEM)
        vecs = sorted(n for n, t in self.types.items() if t == ir.ROW)
        if self.uses_vector:
            ints.append(_V)
        if ints:
            decls.append("    int64_t %s;" % ", ".join("%s = 0" % n for n in ints))
        if dbls:
            decls.append(
                "    %s %s;" % (elem, ", ".join("%s = 0.0" % n for n in dbls))
            )
        if vecs:
            decls.append(
                "    const %s %s;" % (elem, ", ".join("*%s = 0" % n for n in vecs))
            )
        for name, length in self.ws_alloc.items():
            decls.append(
                "    %s *%s = (%s *) malloc((size_t)(%s) * sizeof(%s));"
                % (elem, name, elem, length, elem)
            )
        if self.ws_alloc:
            # report allocation failure as a status instead of crashing;
            # this runs before the FTZ prologue so the early return never
            # leaves a modified MXCSR behind
            decls.append(
                "    if (%s) {"
                % " || ".join("!%s" % name for name in self.ws_alloc)
            )
            for name in self.ws_alloc:
                decls.append("        free(%s);" % name)
            decls.append("        return 1;")
            decls.append("    }")
        if self.ftz:
            decls.append("    unsigned int rp_csr = repro_ftz_on();")
        frees = ["    free(%s);" % name for name in self.ws_alloc]
        if self.ftz:
            frees = ["    repro_ftz_restore(rp_csr);"] + frees

        header = [
            "/* generated by repro.codegen.backends.c%s */"
            % ((" [%s]" % self.label) if self.label else ""),
            "#include <stdint.h>",
            "#include <stdlib.h>",
            "#include <math.h>",
        ]
        if self.ftz:
            # denormals pass: flush-to-zero + denormals-are-zero via
            # MXCSR, saved/restored per call (and per thread inside
            # parallel regions).  Compiled only where SSE2 exists; the
            # pass is gated on a toolchain probe, so the #else arm is a
            # cross-platform safety net, not an expected build
            header += [
                "",
                "#if defined(__SSE2__)",
                "#include <xmmintrin.h>",
                "static unsigned int repro_ftz_on(void) {",
                "    unsigned int rp_csr = _mm_getcsr();",
                "    _mm_setcsr(rp_csr | 0x8040u); /* FTZ | DAZ */",
                "    return rp_csr;",
                "}",
                "static void repro_ftz_restore(unsigned int rp_csr) {",
                "    _mm_setcsr(rp_csr);",
                "}",
                "#else",
                "static unsigned int repro_ftz_on(void) { return 0u; }",
                "static void repro_ftz_restore(unsigned int rp_csr) { (void) rp_csr; }",
                "#endif",
            ]
        if self.profile:
            nests = len(self.profile_model)
            header += [
                "#include <time.h>",
                "",
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
        if self.any_parallel:
            header += [
                "",
                "#if defined(_OPENMP)",
                "#include <omp.h>",
                "/* marks the OpenMP object: absent from the serial build */",
                "int64_t repro_openmp(void) { return 1; }",
            ]
            if self.uses_log:
                # the ordered scatter log: one per thread, appended inside
                # the parallel loop, replayed in thread order afterwards.
                # The per-thread buffers live in a process-wide pool reused
                # across calls (repro_log_acquire/release) so steady-state
                # runs stop paying the calloc/realloc-growth tax; a busy
                # flag hands concurrent callers of the same shared object a
                # freshly allocated (and freed) local set instead.
                header += [
                    "#include <stdatomic.h>",
                    "",
                    "typedef struct {",
                    "    int64_t *tgt;",
                    "    %s *val;" % elem,
                    "    int64_t len;",
                    "    int64_t cap;   /* tgt capacity, entries */",
                    "    int64_t vcap;  /* val capacity, elements */",
                    "} repro_log;",
                    "",
                    "/* NULL on allocation failure: whichever realloc",
                    "   succeeded is stored back (the old pointer is dead",
                    "   after a successful realloc) but the capacities only",
                    "   advance when both do, so release still frees",
                    "   consistently and the caller reports the failure. */",
                    "static %s *repro_log_slot(repro_log *lg, int64_t tgt, int64_t width) {"
                    % elem,
                    "    if (lg->len == lg->cap || (lg->len + 1) * width > lg->vcap) {",
                    "        int64_t cap = lg->cap ? 2 * lg->cap : 1024;",
                    "        int64_t vcap = cap * width;",
                    "        if (vcap < lg->vcap) { vcap = lg->vcap; }",
                    "        int64_t *t = (int64_t *) realloc(lg->tgt, (size_t) cap * sizeof(int64_t));",
                    "        %s *v = (%s *) realloc(lg->val, (size_t) vcap * sizeof(%s));"
                    % (elem, elem, elem),
                    "        if (t) { lg->tgt = t; }",
                    "        if (v) { lg->val = v; }",
                    "        if (!t || !v) { return 0; }",
                    "        lg->cap = cap;",
                    "        lg->vcap = vcap;",
                    "    }",
                    "    lg->tgt[lg->len] = tgt;",
                    "    return lg->val + lg->len++ * width;",
                    "}",
                    "",
                    "static repro_log *rp_pool = 0;",
                    "static int64_t rp_pool_cap = 0;",
                    "static atomic_flag rp_pool_busy = ATOMIC_FLAG_INIT;",
                    "",
                    "static repro_log *repro_log_acquire(int64_t nthreads, int *rp_pooled) {",
                    "    if (!atomic_flag_test_and_set(&rp_pool_busy)) {",
                    "        if (rp_pool_cap < nthreads) {",
                    "            repro_log *grown = (repro_log *) realloc(rp_pool, (size_t) nthreads * sizeof(repro_log));",
                    "            if (grown) {",
                    "                int64_t rp_i;",
                    "                for (rp_i = rp_pool_cap; rp_i < nthreads; ++rp_i) {",
                    "                    grown[rp_i].tgt = 0; grown[rp_i].val = 0;",
                    "                    grown[rp_i].len = 0; grown[rp_i].cap = 0; grown[rp_i].vcap = 0;",
                    "                }",
                    "                rp_pool = grown;",
                    "                rp_pool_cap = nthreads;",
                    "            }",
                    "        }",
                    "        if (rp_pool_cap >= nthreads) {",
                    "            int64_t rp_i;",
                    "            for (rp_i = 0; rp_i < nthreads; ++rp_i) { rp_pool[rp_i].len = 0; }",
                    "            *rp_pooled = 1;",
                    "            return rp_pool;",
                    "        }",
                    "        atomic_flag_clear(&rp_pool_busy);",
                    "    }",
                    "    {",
                    "        /* NULL on failure; the caller reports status 1 */",
                    "        repro_log *rp_logs = (repro_log *) calloc((size_t) nthreads, sizeof(repro_log));",
                    "        *rp_pooled = 0;",
                    "        return rp_logs;",
                    "    }",
                    "}",
                    "",
                    "static void repro_log_release(repro_log *rp_logs, int64_t nthreads, int rp_pooled) {",
                    "    if (rp_pooled) {",
                    "        atomic_flag_clear(&rp_pool_busy);",
                    "        return;",
                    "    }",
                    "    {",
                    "        int64_t rp_i;",
                    "        for (rp_i = 0; rp_i < nthreads; ++rp_i) {",
                    "            free(rp_logs[rp_i].tgt);",
                    "            free(rp_logs[rp_i].val);",
                    "        }",
                    "        free(rp_logs);",
                    "    }",
                    "}",
                ]
            header.append("#endif")
        header += [
            "",
            "/* returns 0 on success, 1 when a runtime allocation failed",
            "   (per-thread workspace or the ordered scatter log) */",
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
    # nest analysis: can this top-level loop run on all cores, and how?
    # (the scan itself lives in loopir so the pass matchers and the
    # strategy choice agree on what a nest contains)
    # ------------------------------------------------------------------
    def _plan_nest(self, node) -> Optional[_NestPlan]:
        """Choose a parallel strategy for one top-level nest (None = serial)."""
        scan = ir.scan_nest(node)
        if not scan.ok:
            return None

        # accumulators carried across iterations: updated inside the
        # nest, initialized before it
        carried = sorted(
            name for name in scan.updates if name not in scan.inits
        )
        if any(name not in self._assigned_top for name in carried):
            return None
        # a *read* of a carried accumulator inside the nest would observe
        # a partially-replayed value — only pure updates are safe
        if ir.reads([node]) & set(carried):
            return None
        kinds = {k for k, _, _ in scan.out_writes}
        kinds |= {scan.updates[n] for n in carried}
        if len(kinds) > 1:
            return None
        kind = kinds.pop() if kinds else None

        rows = {row for _, row, _ in scan.out_writes}
        rows |= {self.types.get(n) == ir.WS for n in carried}
        if len(rows) > 1:
            return None  # mixed scalar and row writes in one nest
        row = rows.pop() if rows else False
        if row and self.vlen is None:
            return None

        assigned = tuple(
            sorted(
                n
                for n in scan.assigned
                if n not in carried and self.types.get(n) not in (ir.WS, ir.LUT)
            )
        )
        ws_names = tuple(
            sorted(
                n
                for n in scan.assigned
                if self.types.get(n) == ir.WS and n not in carried
            )
        )
        plan = lambda strategy: _NestPlan(  # noqa: E731 - local shorthand
            strategy=strategy,
            row=row,
            carried=tuple(carried),
            assigned=assigned,
            ws_names=ws_names,
        )

        if kind is None:
            return plan("for")  # nothing shared is written
        # names taking a distinct value on every iteration: the loop
        # variable, and the coordinate a top-level position loop reads —
        # it can only span one fiber, whose ``idx`` run is sorted
        injective = {ir.loop_var(node)}
        if isinstance(node, ir.FiberLoop):
            injective.add(node.coord_var)
        # disjointness needs every write to lead with the *same* injective
        # name: two distinct injective names (the position var and the
        # coordinate read off it) are each injective yet can collide with
        # one another across iterations
        leads = {lead for _, _, lead in scan.out_writes}
        disjoint = (
            not carried
            and len(leads) == 1
            and next(iter(leads)) is not None
            and next(iter(leads)) in injective
        )
        if disjoint:
            return plan("for")
        if kind == "minmax":
            if carried or self.lowered.output.reduce_op not in ("min", "max"):
                return None
            return plan("privatized")
        if self.parallel_mode == "atomic" and not row:
            return plan("atomic")
        return plan("replay")

    # ------------------------------------------------------------------
    # parallel emission
    # ------------------------------------------------------------------
    def _emit_parallel_nest(self, node, plan: _NestPlan, ind: int) -> None:
        """One nest, twice: an OpenMP body and the serial fallback.

        The preprocessor guard lets one rendered source build into both
        objects: without ``-fopenmp`` (the serial object) only the serial
        branch survives.
        """
        self.any_parallel = True
        self.work_model.append(self._nest_work(_nest_of(node), plan))
        self._put(ind, "#if defined(_OPENMP)")
        self._put(ind, "if (repro_nthreads > 1) {")
        if plan.strategy == "replay":
            self._emit_replay_nest(node, plan, ind + 1)
        elif plan.strategy == "privatized":
            self._emit_privatized_nest(node, plan, ind + 1)
        else:
            self._emit_for_nest(node, plan, ind + 1)
        self._put(ind, "} else")
        self._put(ind, "#endif")
        self._put(ind, "{")
        self._stmt(node, ind + 1)
        self._put(ind, "}")


    def _nest_work(self, node, plan: Optional[_NestPlan]) -> NestWork:
        """Where a run can read this nest's trip count from its arguments.

        ``plan`` is ``None`` for serial nests (profiling estimates cover
        every top-level nest, not just parallelized ones); the vector flag
        then falls back on whether the kernel has a vector axis at all.
        """
        idx = set()
        for st in ir.walk([node]):
            if isinstance(st, ir.FiberLoop) and st.coord_var is not None:
                idx.add(st.idx.name)
            elif isinstance(st, ir.Intersect):
                idx.update(b.idx.name for b in st.binders)
        extent = None
        if isinstance(node, ir.DenseLoop) and isinstance(node.end, ir.Dim):
            extent = node.end.name
        if plan is not None:
            vector = bool(plan.row or plan.ws_names)
        else:
            vector = self.vlen is not None
        return NestWork(
            idx_arrays=tuple(sorted(idx)),
            extent=extent,
            vector=vector,
            dims=tuple(sorted(self.dim_args)),
        )

    def _emit_private_decls(self, plan: _NestPlan, ind: int) -> None:
        """Thread-private locals: block-scope declarations shadowing the
        function-scope ones the serial branch uses."""
        ints = [n for n in plan.assigned if self.types.get(n) == ir.INT]
        dbls = [n for n in plan.assigned if self.types.get(n) == ir.ELEM]
        vecs = [n for n in plan.assigned if self.types.get(n) == ir.ROW]
        if self.vlen is not None:
            ints.append(_V)
        if ints:
            self._put(
                ind, "int64_t %s;" % ", ".join("%s = 0" % n for n in sorted(ints))
            )
        if dbls:
            self._put(
                ind,
                "%s %s;" % (self.elem, ", ".join("%s = 0.0" % n for n in sorted(dbls))),
            )
        if vecs:
            self._put(
                ind,
                "const %s %s;"
                % (self.elem, ", ".join("*%s = 0" % n for n in sorted(vecs))),
            )
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

    def _emit_ws_frees(self, plan: _NestPlan, ind: int) -> None:
        # free(NULL) is a no-op, so this is safe on the rp_oom path too
        for name in plan.ws_names:
            self._put(ind, "free(%s);" % name)

    def _ftz_thread_on(self, ind: int) -> None:
        if self.ftz:
            self._put(ind, "unsigned int rp_tcsr = repro_ftz_on();")

    def _ftz_thread_off(self, ind: int) -> None:
        if self.ftz:
            self._put(ind, "repro_ftz_restore(rp_tcsr);")

    def _emit_for_nest(self, node, plan: _NestPlan, ind: int) -> None:
        """Disjoint writes (or the atomic fallback): a plain parallel for."""
        oom = bool(plan.ws_names)
        if oom:
            self._put(ind, "int64_t rp_oom = 0;")
        self._put(ind, "#pragma omp parallel num_threads((int) repro_nthreads)")
        self._put(ind, "{")
        self._ftz_thread_on(ind + 1)
        self._emit_private_decls(plan, ind + 1)
        body_ind = ind + 1
        if oom:
            # rp_oom is team-consistent after the barrier in
            # _emit_private_decls, so guarding the worksharing construct
            # with it is legal (every thread takes the same branch)
            self._put(ind + 1, "if (!rp_oom) {")
            body_ind = ind + 2
        self._put(body_ind, "#pragma omp for schedule(static)")
        if plan.strategy == "atomic":
            self._atomic_plan = plan
        self._parallel_ctx += 1
        try:
            self._stmt(node, body_ind)
        finally:
            self._parallel_ctx -= 1
            self._atomic_plan = None
        if oom:
            self._put(ind + 1, "}")
        self._emit_ws_frees(plan, ind + 1)
        self._ftz_thread_off(ind + 1)
        self._put(ind, "}")
        if oom:
            self._put(ind, "if (rp_oom) { rp_status = 1; }")

    def _emit_replay_nest(self, node, plan: _NestPlan, ind: int) -> None:
        """The ordered scatter log: parallel compute, serial-order apply.

        ``schedule(static)`` assigns contiguous iteration chunks in
        thread order, and each thread's log preserves its own program
        order, so replaying log 0, log 1, ... reconstructs the exact
        serial write sequence — bit-identical floating-point results at
        any thread count.
        """
        self.uses_log = True
        width = self.vlen if plan.row else "1"
        self._put(ind, "int64_t rp_oom = 0;")
        self._put(ind, "int rp_pooled = 0;")
        self._put(
            ind,
            "repro_log *rp_logs = repro_log_acquire(repro_nthreads, &rp_pooled);",
        )
        self._put(ind, "if (!rp_logs) {")
        self._put(ind + 1, "rp_status = 1;")
        self._put(ind, "} else {")
        ind += 1
        self._put(ind, "#pragma omp parallel num_threads((int) repro_nthreads)")
        self._put(ind, "{")
        self._ftz_thread_on(ind + 1)
        self._put(ind + 1, "repro_log *rp_my = &rp_logs[omp_get_thread_num()];")
        self._emit_private_decls(plan, ind + 1)
        body_ind = ind + 1
        if plan.ws_names:
            # team-consistent after the barrier in _emit_private_decls;
            # a *log* overflow mid-loop only sets rp_oom (threads keep
            # running to the region end), so the worksharing construct is
            # never skipped inconsistently
            self._put(ind + 1, "if (!rp_oom) {")
            body_ind = ind + 2
        self._put(body_ind, "#pragma omp for schedule(static)")
        self._log_plan = plan
        self._parallel_ctx += 1
        try:
            self._stmt(node, body_ind)
        finally:
            self._parallel_ctx -= 1
            self._log_plan = None
        if plan.ws_names:
            self._put(ind + 1, "}")
        self._emit_ws_frees(plan, ind + 1)
        self._ftz_thread_off(ind + 1)
        self._put(ind, "}")
        self._put(ind, "if (rp_oom) {")
        self._put(ind + 1, "rp_status = 1;")
        self._put(ind, "} else {")
        i2, i3, i4 = ind + 1, ind + 2, ind + 3
        self._put(i2, "int64_t rp_t = 0, rp_e = 0, rp_w = 0;")
        self._put(i2, "(void) rp_w;")
        self._put(i2, "for (rp_t = 0; rp_t < repro_nthreads; ++rp_t) {")
        self._put(i3, "repro_log *rp_lg = &rp_logs[rp_t];")
        self._put(i3, "for (rp_e = 0; rp_e < rp_lg->len; ++rp_e) {")
        self._put(i4, "int64_t rp_g = rp_lg->tgt[rp_e];")
        if plan.row:
            self._put(
                i4,
                "const %s *rp_v = rp_lg->val + rp_e * (%s);" % (self.elem, width),
            )
            apply_out = (
                "for (rp_w = 0; rp_w < %s; ++rp_w) { out[rp_g + rp_w] += rp_v[rp_w]; }"
                % width
            )
        else:
            self._put(i4, "%s rp_val = rp_lg->val[rp_e];" % self.elem)
            apply_out = "out[rp_g] += rp_val;"
        if plan.carried:
            self._put(i4, "if (rp_g >= 0) { %s }" % apply_out)
            for name in plan.carried:
                if plan.row:
                    update = (
                        "for (rp_w = 0; rp_w < %s; ++rp_w) { %s[rp_w] += rp_v[rp_w]; }"
                        % (width, name)
                    )
                else:
                    update = "%s += rp_val;" % name
                self._put(
                    i4,
                    "else if (rp_g == %d) { %s }" % (plan.carried_slot(name), update),
                )
        else:
            self._put(i4, apply_out)
        self._put(i3, "}")
        self._put(i2, "}")
        self._put(ind, "}")
        self._put(ind, "repro_log_release(rp_logs, repro_nthreads, rp_pooled);")
        ind -= 1
        self._put(ind, "}")

    def _emit_privatized_nest(self, node, plan: _NestPlan, ind: int) -> None:
        """min/max scatter: per-thread output buffers + tree reduction.

        min/max over IEEE doubles is associative and commutative, so the
        pairwise tree combine is bit-identical to the serial fold for any
        team size.
        """
        reduce_op = self.lowered.output.reduce_op
        cfn = ("fmin" if reduce_op == "min" else "fmax") + self._fp_suffix
        ident = "INFINITY" if reduce_op == "min" else "(-INFINITY)"
        total = (
            " * ".join("out_dims[%d]" % d for d in range(self.out_ndim)) or "1"
        )
        self._put(ind, "int64_t rp_oom = 0;")
        self._put(ind, "%s *pv_all = NULL;" % self.elem)
        self._put(ind, "int64_t pv_team = 1;")
        self._put(ind, "#pragma omp parallel num_threads((int) repro_nthreads)")
        self._put(ind, "{")
        i2 = ind + 1
        self._ftz_thread_on(i2)
        self._put(i2, "int64_t pv_total = %s;" % total)
        self._put(i2, "int64_t pv_k = 0, pv_s = 0, pv_b = 0;")
        self._put(i2, "#pragma omp single")
        self._put(i2, "{")
        self._put(i2 + 1, "pv_team = omp_get_num_threads();")
        self._put(
            i2 + 1,
            "pv_all = (%s *) malloc((size_t) (pv_total * pv_team) * sizeof(%s));"
            % (self.elem, self.elem),
        )
        self._put(i2, "}")  # implicit barrier publishes pv_all / pv_team
        # pv_all is team-consistent after the single's barrier, so every
        # thread takes the same branch and the worksharing constructs
        # (and the ws barrier) inside stay legal
        self._put(i2, "if (pv_all) {")
        i3 = i2 + 1
        self._put(
            i3,
            "%s *pv_out = pv_all + (int64_t) omp_get_thread_num() * pv_total;"
            % self.elem,
        )
        self._emit_private_decls(plan, i3)
        body_ind = i3
        if plan.ws_names:
            self._put(i3, "if (!rp_oom) {")
            body_ind = i3 + 1
        self._put(
            body_ind,
            "for (pv_k = 0; pv_k < pv_total; ++pv_k) { pv_out[pv_k] = %s; }" % ident,
        )
        self._put(body_ind, "#pragma omp for schedule(static)")
        self._out_array = "pv_out"
        self._parallel_ctx += 1
        try:
            self._stmt(node, body_ind)
        finally:
            self._parallel_ctx -= 1
            self._out_array = "out"
        self._put(body_ind, "for (pv_s = 1; pv_s < pv_team; pv_s *= 2) {")
        self._put(body_ind + 1, "#pragma omp for schedule(static)")
        self._put(body_ind + 1, "for (pv_k = 0; pv_k < pv_total; ++pv_k) {")
        self._put(
            body_ind + 2,
            "for (pv_b = 0; pv_b + pv_s < pv_team; pv_b += 2 * pv_s) {",
        )
        self._put(
            body_ind + 3,
            "pv_all[pv_b * pv_total + pv_k] = %s(pv_all[pv_b * pv_total + pv_k], "
            "pv_all[(pv_b + pv_s) * pv_total + pv_k]);" % cfn,
        )
        self._put(body_ind + 2, "}")
        self._put(body_ind + 1, "}")
        self._put(body_ind, "}")
        self._put(body_ind, "#pragma omp for schedule(static)")
        self._put(
            body_ind,
            "for (pv_k = 0; pv_k < pv_total; ++pv_k) { out[pv_k] = %s(out[pv_k], pv_all[pv_k]); }"
            % cfn,
        )
        if plan.ws_names:
            self._put(i3, "}")
        self._emit_ws_frees(plan, i3)
        self._put(i2, "}")
        self._ftz_thread_off(i2)
        self._put(ind, "}")
        self._put(ind, "if (!pv_all || rp_oom) { rp_status = 1; }")
        self._put(ind, "free(pv_all);")

    def _emit_log_push(self, ind: int, base: str, value, plan: _NestPlan) -> None:
        # repro_log_slot returns NULL when the log cannot grow; flag the
        # team (the run's results are discarded and the kernel returns
        # nonzero) instead of aborting the process
        if plan.row:
            self.uses_vector = True
            self._put(
                ind,
                "{ %s *rp_dst = repro_log_slot(rp_my, %s, %s);"
                % (self.elem, base, self.vlen),
            )
            self._put(ind + 1, "if (!rp_dst) {")
            self._put(ind + 2, "#pragma omp atomic write")
            self._put(ind + 2, "rp_oom = 1;")
            self._put(
                ind + 1,
                "} else { for (%s = 0; %s < %s; ++%s) { rp_dst[%s] = %s; } } }"
                % (_V, _V, self.vlen, _V, _V, self._expr(value, velt=True)),
            )
        else:
            self._put(
                ind,
                "{ %s *rp_slot = repro_log_slot(rp_my, %s, 1);"
                % (self.elem, base),
            )
            self._put(ind + 1, "if (!rp_slot) {")
            self._put(ind + 2, "#pragma omp atomic write")
            self._put(ind + 2, "rp_oom = 1;")
            self._put(ind + 1, "} else { *rp_slot = %s; } }" % self._expr(value))


    def _log_reduce(self, s: ir.Reduce, ind: int) -> bool:
        """Route a ``+=`` through the scatter log; False if not a shared write."""
        plan = self._log_plan
        if isinstance(s.target, ir.Out):
            base = self._out_base(s.target)
        elif s.target.name in plan.carried:
            base = str(plan.carried_slot(s.target.name))
        else:
            return False
        self._emit_log_push(ind, base, s.value, plan)
        return True

    def _atomic_reduce(self, s: ir.Reduce, ind: int) -> bool:
        """Emit a ``#pragma omp atomic`` update; False if not a shared write."""
        if isinstance(s.target, ir.Out):
            elt = self._out_target(s.target)
        elif s.target.name in self._atomic_plan.carried:
            elt = s.target.name
        else:
            return False
        self._put(ind, "#pragma omp atomic")
        self._put(ind, "%s += %s;" % (elt, self._expr(s.value)))
        return True

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


    def _put(self, indent: int, text: str) -> None:
        self.lines.append("    " * indent + text)

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
            # inside _emit_parallel_nest still lands here with
            # _parallel_ctx == 0
            if self._parallel_ctx == 0:
                self._emit_tiled_nest(s, ind)
            else:
                self._stmt(s.nest, ind)
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
        if tile.rows > 0:
            self._put(ind + 1, "int64_t rp_tile = %d;" % tile.rows)
        else:
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

    def _simd_hint(self, ind: int) -> None:
        """An explicit vectorization promise on element-disjoint loops.

        Unguarded: the serial object honours it through ``-fopenmp-simd``
        (no ``_OPENMP`` there), the OpenMP object through ``-fopenmp``.
        """
        if self.simd:
            self._put(ind, "#pragma omp simd")


    def _emit_fused(self, node: ir.Fused, ind: int) -> None:
        """One element loop for a run of fused row statements."""
        if self._log_plan is not None or self._atomic_plan is not None:
            # shared row writes reroute through the scatter log / atomic
            # machinery statement by statement; don't fuse across that
            self._block(node.stmts, ind)
            return
        parts = [
            "%s += %s;" % (self._elt(s.target), self._expr(s.value, velt=True))
            for s in node.stmts
        ]
        self.uses_vector = True
        self._simd_hint(ind)
        self._put(
            ind,
            "for (%s = 0; %s < %s; ++%s) { %s }"
            % (_V, _V, self.vlen, _V, " ".join(parts)),
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
        # inside a parallel body, shared += updates are rerouted: replay
        # nests append to the scatter log, atomic nests prefix a pragma
        if self._log_plan is not None and self._log_reduce(s, ind):
            return
        if self._atomic_plan is not None and self._atomic_reduce(s, ind):
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
            % (_V, _V, self.vlen, _V, elt, op, form % self._expr(value, velt=True)),
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
        """Flat index of an ``out[...]`` target's first element (the
        replay log records exactly this base for a row)."""
        flat = self._flatten(target.coords, "out_dims")
        if target.row and target.coords:
            return "(%s) * out_dims[%d]" % (flat, self.out_ndim - 1)
        return flat

    def _out_target(self, target: ir.Out) -> str:
        """Element lvalue for an ``out[...]`` target; a row's references
        the vector loop variable.  ``self._out_array`` names the
        destination buffer — the privatized strategy rebinds it to the
        per-thread copy while emitting its parallel body."""
        base = self._out_base(target)
        if not target.row:
            return "%s[%s]" % (self._out_array, base)
        self.uses_vector = True
        if base == "0":
            return "%s[%s]" % (self._out_array, _V)
        return "%s[%s + %s]" % (self._out_array, base, _V)

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
            return "%s[%s]" % (e.name, _V) if e.type == ir.ROW else e.name
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
            return "%s[%s]" % (name, _V)
        return "%s[%s + %s]" % (name, self._dense_prefix(e), _V)


@dataclass(frozen=True)
class CRender:
    """Everything one render of a lowered kernel produced."""

    source: str
    #: one :class:`NestWork` term per nest that received an OpenMP body
    #: (the ``threads="auto"`` cost model).
    work_model: Tuple[NestWork, ...]
    #: one work estimate per *top-level* nest — parallel or serial, in
    #: ``repro_nest_sec`` slot order; empty unless the config profiles.
    profile_model: Tuple[Optional[NestWork], ...]


def render_c_full(
    lowered: LoweredKernel, label: Optional[str], codegen: CodegenConfig
) -> CRender:
    """Render a lowered kernel under an already-resolved *codegen* and
    return the full :class:`CRender`.  Pure: the same three arguments
    always print the same translation unit."""
    with obs_trace.span("render_c", label=label):
        renderer = _Renderer(lowered, label, codegen)
        source = renderer.render()
    return CRender(
        source=source,
        work_model=tuple(renderer.work_model),
        profile_model=tuple(renderer.profile_model),
    )


def render_c(
    lowered: LoweredKernel,
    label: Optional[str] = None,
    parallel: Optional[str] = None,
    passes: Optional[PassConfig] = None,
) -> str:
    """The C translation unit of a lowered kernel — an inspection helper.

    Outside the compiler, so the one place "``None`` = ambient" survives:
    the configuration is resolved as an anonymous compile would
    (:meth:`CodegenConfig.resolve`), then ``parallel`` overrides the
    OpenMP emission mode (``"auto"`` / ``"serial"`` / ``"atomic"``) and
    ``passes`` the optimization-pass set.
    """
    codegen = CodegenConfig.resolve()
    if parallel is not None:
        codegen = replace(codegen, omp_strategy=parallel)
    if passes is not None:
        codegen = replace(codegen, passes=passes)
    return render_c_full(lowered, label, codegen).source

