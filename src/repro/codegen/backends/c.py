"""The C execution backend.

``render_c`` translates a :class:`~repro.codegen.lower.LoweredKernel` into
a self-contained C translation unit.  The lowered source is machine
generated by :class:`~repro.codegen.lower.Lowerer` in a small, fixed
statement vocabulary (``for``/``while`` sparse walks, scalar temps,
workspace fills/flushes, numpy row-slice vector statements), so the
translation is a straightforward typed walk of its AST — the same loop
structure runs, just compiled.  Vectorized statements (numpy row slices in
the Python backend) become plain inner loops over the vector index, which
``cc -O3`` auto-vectorizes.

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
:meth:`CBackend.compile` builds the serial object unless the kernel's
default thread setting can resolve above 1; a later run with
``threads > 1`` upgrades the loaded :class:`CExecutable` in place, once
(:meth:`CExecutable.upgrade`).  Both objects run the same serial loops
with the same SIMD hints, so which one serves a call never shows in the
result.  A parallel body's **reduction strategy** depends on the nest's
output-write pattern:

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
mixed reduction operators, reads of the output outside a reduction
update) stay serial.  ``REPRO_OMP_STRATEGY=serial`` disables the parallel
bodies entirely (such a kernel is never upgraded: its serial object is
all there is).

Loop-level optimization passes
------------------------------
Before emission the lowered AST runs through the composable pass
pipeline in :mod:`repro.codegen.backends.cpasses` (denormal avoidance,
nest fission, vector-statement fusion, row tiling, SIMD hints), selected
by ``$REPRO_PASSES`` and keyed into the service cache.  The renderer
consumes the transformed tree plus the pipeline's annotations
(:class:`~repro.codegen.backends.cpasses.ir.FusedVector` nodes, tile
specs, the FTZ/SIMD flags).
"""

from __future__ import annotations

import ast
import ctypes
import os
import re
import threading
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from repro import faults
from repro.codegen.backends import ctoolchain, health
from repro.codegen.backends.base import (
    Backend,
    BackendError,
    BackendUnavailableError,
    Executable,
)
from repro.codegen.backends.cpasses.base import (
    PassConfig,
    active_pass_config,
    run_pipeline,
)
from repro.codegen.backends.cpasses.ir import (
    DBL as _DBL,
    FusedVector,
    INT as _INT,
    LUT as _LUT,
    LoopIR,
    NestScan as _NestScan,
    TileSpec,
    VEC as _VEC,
    WS as _WS,
    collect_assigned as _collect_assigned,
    scan_nest,
)
from repro.codegen.lower import LoweredKernel
from repro.core import config as core_config
from repro.obs import metrics as obs_metrics
from repro.obs import profile as obs_profile
from repro.obs import trace as obs_trace
from repro.obs.profile import NestProfile


class CRenderError(BackendError):
    """The lowered kernel uses a feature the C renderer does not cover."""


#: valid values for the parallel-emission override.
OMP_STRATEGY_CHOICES = ("auto", "serial", "atomic")


def default_omp_strategy() -> str:
    """The process-wide parallel-emission mode (``$REPRO_OMP_STRATEGY``).

    ``auto`` (default) picks a bit-reproducible strategy per nest,
    ``serial`` suppresses parallel bodies entirely, and ``atomic``
    prefers ``#pragma omp atomic`` over the ordered scatter log for
    ``+``-reduction nests (faster to a point, not bit-reproducible).
    Unrecognized values warn once per value and fall back to ``auto``.
    """
    value = os.environ.get("REPRO_OMP_STRATEGY", "auto")
    if value not in OMP_STRATEGY_CHOICES:
        core_config._warn_env_once(
            "REPRO_OMP_STRATEGY",
            value,
            "one of %s" % ", ".join(OMP_STRATEGY_CHOICES),
            "'auto'",
        )
        return "auto"
    return value


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
    rp_status rp_oom rp_tb rp_thi rp_tile rp_csr rp_tcsr rp_slot
    repro_ftz_on repro_ftz_restore""".split()
)

#: element loop variable for vectorized statements.
_V = "_v"


def classify_args(lowered: LoweredKernel) -> List[Tuple[str, str]]:
    """``(kind, name)`` per kernel argument, in ``arg_names`` order.

    Kinds: ``i64`` (pos/idx structure arrays), ``f64`` (value arrays — in
    the kernel's *element* dtype, float or double, despite the historical
    kind name), ``dense`` (dense inputs, which also pass an extent
    vector), ``dim`` (scalar extents).  This single classification drives
    both the C signature and the ctypes call plan — they must never
    disagree, or the compiled kernel would read through the wrong
    pointers.
    """
    int_arrays = set()
    dense = set()
    dims = set()
    for view in lowered.sparse_views:
        d = 0
        while d < len(view.levels) and view.levels[d] == "dense":
            d += 1
        for level in range(d, len(view.levels)):
            int_arrays.add("%s_pos%d" % (view.name, level))
            int_arrays.add("%s_idx%d" % (view.name, level))
    for view in lowered.dense_views:
        dense.add(view.name)
    for dim in lowered.dims:
        dims.add(dim.name)
    steps: List[Tuple[str, str]] = []
    for name in lowered.arg_names:
        if name in dims:
            steps.append(("dim", name))
        elif name in int_arrays:
            steps.append(("i64", name))
        elif name in dense:
            steps.append(("dense", name))
        else:
            steps.append(("f64", name))
    return steps

# type tags for locals (_INT/_DBL/_VEC/_WS/_LUT) are shared with the
# pass pipeline and imported from cpasses.ir above.


def _c_float(value: float) -> str:
    if value != value or value in (float("inf"), float("-inf")):
        raise CRenderError("non-finite literal %r" % value)
    text = repr(float(value))
    return text


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


# _NestScan / _collect_assigned moved to cpasses.ir (imported above) so
# the pass matchers and the renderer share one nest analysis.


class _Renderer:
    def __init__(
        self,
        lowered: LoweredKernel,
        label: Optional[str] = None,
        parallel: Optional[str] = None,
        profile: Optional[bool] = None,
        passes: Optional[PassConfig] = None,
        einsum: Optional[str] = None,
    ):
        self.lowered = lowered
        self.label = label
        # a tuned compile-level variant (pass set / OMP strategy) applies
        # only where the caller left the axis to the environment default;
        # the cache-key canonicalizer consults the same helper, so a
        # tuned render and its key can never disagree
        tuned_passes = tuned_parallel = None
        if einsum is not None and (passes is None or parallel is None):
            from repro import tune

            tuned_passes, tuned_parallel = tune.compile_overrides(
                einsum, lowered.dtype
            )
        if passes is None and tuned_passes is not None:
            passes = tuned_passes
        if parallel is None and tuned_parallel is not None:
            parallel = tuned_parallel
        self.pass_config = active_pass_config() if passes is None else passes
        # per-nest wall-time instrumentation (REPRO_PROFILE=1): every
        # top-level nest is bracketed with clock_gettime and accumulates
        # into a static array exported through repro_profile_* symbols.
        # Profiled source differs from production source, so the
        # content-addressed .so cache can never alias the two builds.
        self.profile = obs_profile.enabled() if profile is None else bool(profile)
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
        self.parallel_mode = (
            default_omp_strategy() if parallel is None else parallel
        )
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
        self._ws_len: Dict[str, str] = {}

        # pass-pipeline state: ftz/simd flags come back on the LoopIR;
        # _parallel_ctx counts enclosing OpenMP bodies (tiling applies to
        # serial emission only); _tile_ctx is the TileSpec whose guard is
        # being injected into its fiber loop.
        self.ftz = False
        self.simd = False
        self._parallel_ctx = 0
        self._tile_ctx: Optional[TileSpec] = None

        # one classification drives typing, the C signature and (in
        # CExecutable) the ctypes call plan
        self.arg_kinds = classify_args(lowered)
        self.int_arrays = {n for k, n in self.arg_kinds if k == "i64"}
        self.dbl_arrays = {n for k, n in self.arg_kinds if k == "f64"}
        self.dense: Dict[str, int] = {
            view.name: len(view.perm) for view in lowered.dense_views
        }
        self.dim_args = {n for k, n in self.arg_kinds if k == "dim"}

        self.types: Dict[str, str] = {}  # local name -> tag
        self.ws_alloc: List[Tuple[str, str]] = []  # (name, length expr)
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

        all_names = (
            set(lowered.arg_names)
            | self.int_arrays
            | self.dbl_arrays
            | set(self.dense)
        )
        bad = sorted(n for n in all_names if n in _C_KEYWORDS or n == _V)
        if bad:
            raise CRenderError("argument names collide with C keywords: %s" % bad)
        clash = sorted(n for n in self.dense if "%s_dims" % n in all_names)
        if clash:
            raise CRenderError("dense view dims names collide: %s" % clash)

    # ------------------------------------------------------------------
    # entry
    # ------------------------------------------------------------------
    def render(self) -> str:
        tree = ast.parse(self.lowered.source)
        fn = tree.body[0]
        if not isinstance(fn, ast.FunctionDef) or fn.name != "kernel":
            raise CRenderError("lowered source is not a kernel function")
        body = fn.body
        self._infer_block(body)
        ir = LoopIR(
            body=list(body),
            out_ndim=self.out_ndim,
            vector_index=self.vector_index,
            vlen=self.vlen,
            int_arrays=set(self.int_arrays),
            dim_args=set(self.dim_args),
            dense=dict(self.dense),
            ws_names={n for n, t in self.types.items() if t == _WS},
            reduce_op=self.lowered.output.reduce_op,
            elem_size=4 if self.elem == "float" else 8,
        )
        ir = run_pipeline(ir, self.pass_config, label=self.label)
        self.ftz = ir.ftz
        self.simd = ir.simd
        body = ir.body
        for stmt in body:
            plan = None
            if isinstance(stmt, ast.For) and self.parallel_mode != "serial":
                plan = self._plan_nest(stmt)
            if self.profile and isinstance(stmt, ast.For):
                self._emit_profiled_nest(stmt, plan, 1)
            elif plan is None:
                self._stmt(stmt, 1)
            else:
                self._emit_parallel_nest(stmt, plan, 1)
            self._assigned_top |= _collect_assigned([stmt])
        return self._assemble()

    def _emit_profiled_nest(
        self, node: ast.For, plan: Optional[_NestPlan], ind: int
    ) -> None:
        """Bracket one top-level nest with monotonic-clock accumulation."""
        slot = len(self.profile_model)
        self.profile_model.append(self._nest_work(node, plan))
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
        for kind, name in self.arg_kinds:
            if kind == "i64":
                sig_parts.append("const int64_t *restrict %s" % name)
            elif kind == "f64":
                sig_parts.append("const %s *restrict %s" % (elem, name))
            elif kind == "dense":
                sig_parts.append("const %s *restrict %s" % (elem, name))
                sig_parts.append("const int64_t *restrict %s_dims" % name)
            else:
                sig_parts.append("int64_t %s" % name)
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
        ints = sorted(n for n, t in self.types.items() if t == _INT)
        dbls = sorted(n for n, t in self.types.items() if t == _DBL)
        vecs = sorted(n for n, t in self.types.items() if t == _VEC)
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
        for name, length in self.ws_alloc:
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
                % " || ".join("!%s" % name for name, _ in self.ws_alloc)
            )
            for name, _ in self.ws_alloc:
                decls.append("        free(%s);" % name)
            decls.append("        return 1;")
            decls.append("    }")
        if self.ftz:
            decls.append("    unsigned int rp_csr = repro_ftz_on();")
        frees = ["    free(%s);" % name for name, _ in self.ws_alloc]
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
    # (the scan itself lives in cpasses.ir so the pass matchers and the
    # strategy choice agree on what a nest contains)
    # ------------------------------------------------------------------
    def _scan_nest(self, outer: ast.For) -> _NestScan:
        return scan_nest(outer, self.out_ndim, self.vector_index)

    def _injective_names(self, node: ast.For) -> Set[str]:
        """Names taking a distinct value on every iteration of *node*.

        The loop variable always qualifies.  When the loop walks the
        positions of a root sparse fiber, the coordinate read off that
        fiber (``i = X_idx0[q]``, the first body statement) is strictly
        increasing too — a top-level position loop can only span one
        fiber, whose ``idx`` run is sorted.
        """
        names = {node.target.id}
        first = node.body[0] if node.body else None
        if (
            isinstance(first, ast.Assign)
            and isinstance(first.targets[0], ast.Name)
            and isinstance(first.value, ast.Subscript)
            and isinstance(first.value.value, ast.Name)
            and first.value.value.id in self.int_arrays
            and "_idx" in first.value.value.id
        ):
            coords = self._coords(first.value)
            if (
                coords is not None
                and len(coords) == 1
                and isinstance(coords[0], ast.Name)
                and coords[0].id == node.target.id
            ):
                names.add(first.targets[0].id)
        return names

    def _plan_nest(self, node: ast.For) -> Optional[_NestPlan]:
        """Choose a parallel strategy for one top-level nest (None = serial)."""
        if not isinstance(node.target, ast.Name):
            return None
        it = node.iter
        if not (
            isinstance(it, ast.Call)
            and isinstance(it.func, ast.Name)
            and it.func.id == "range"
        ):
            return None
        scan = self._scan_nest(node)
        if not scan.ok or scan.out_loads != scan.expected_out_loads:
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
        for sub in ast.walk(node):
            if (
                isinstance(sub, ast.Name)
                and sub.id in carried
                and isinstance(sub.ctx, ast.Load)
            ):
                return None

        kinds = {k for k, _, _ in scan.out_writes}
        kinds |= {scan.updates[n] for n in carried}
        if len(kinds) > 1:
            return None
        kind = kinds.pop() if kinds else None

        rows = {row for _, row, _ in scan.out_writes}
        rows |= {self.types.get(n) == _WS for n in carried}
        if len(rows) > 1:
            return None  # mixed scalar and row writes in one nest
        row = rows.pop() if rows else False
        if row and self.vlen is None:
            return None

        assigned = tuple(
            sorted(
                n
                for n in scan.assigned
                if n not in carried and self.types.get(n) not in (_WS, _LUT)
            )
        )
        ws_names = tuple(
            sorted(
                n
                for n in scan.assigned
                if self.types.get(n) == _WS and n not in carried
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
        injective = self._injective_names(node)
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
    def _emit_parallel_nest(self, node: ast.For, plan: _NestPlan, ind: int) -> None:
        """One nest, twice: an OpenMP body and the serial fallback.

        The preprocessor guard lets one rendered source build into both
        objects: without ``-fopenmp`` (the serial object) only the serial
        branch survives.
        """
        self.any_parallel = True
        self.work_model.append(self._nest_work(node, plan))
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

    def _nest_work(self, node: ast.For, plan: Optional[_NestPlan]) -> NestWork:
        """Where a run can read this nest's trip count from its arguments.

        ``plan`` is ``None`` for serial nests (profiling estimates cover
        every top-level nest, not just parallelized ones); the vector flag
        then falls back on whether the kernel has a vector axis at all.
        """
        idx = set()
        for sub in ast.walk(node):
            if (
                isinstance(sub, ast.Name)
                and sub.id in self.int_arrays
                and "_idx" in sub.id
            ):
                idx.add(sub.id)
        extent = None
        it = node.iter
        if isinstance(it, ast.Call) and it.args:
            last = it.args[-1]
            if isinstance(last, ast.Name) and last.id in self.dim_args:
                extent = last.id
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
        ints = [n for n in plan.assigned if self.types.get(n) == _INT]
        dbls = [n for n in plan.assigned if self.types.get(n) == _DBL]
        vecs = [n for n in plan.assigned if self.types.get(n) == _VEC]
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
                % (self.elem, name, self.elem, self._ws_len[name], self.elem),
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

    def _emit_for_nest(self, node: ast.For, plan: _NestPlan, ind: int) -> None:
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

    def _emit_replay_nest(self, node: ast.For, plan: _NestPlan, ind: int) -> None:
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

    def _emit_privatized_nest(self, node: ast.For, plan: _NestPlan, ind: int) -> None:
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

    def _log_augassign(self, node: ast.AugAssign, ind: int) -> bool:
        """Route a ``+=`` through the scatter log; False if not a shared write."""
        plan = self._log_plan
        target, value = node.target, node.value
        if isinstance(target, ast.Name):
            if target.id not in plan.carried:
                return False
            self._emit_log_push(ind, str(plan.carried_slot(target.id)), value, plan)
            return True
        if isinstance(target, ast.Subscript) and self._sub_name(target) == "out":
            base, is_row = self._out_base(target)
            if is_row != plan.row:
                raise CRenderError("mixed scalar/row writes in a replay nest")
            self._emit_log_push(ind, base, value, plan)
            return True
        return False

    def _atomic_augassign(self, node: ast.AugAssign, ind: int) -> bool:
        """Emit a ``#pragma omp atomic`` update; False if not a shared write."""
        plan = self._atomic_plan
        target, value = node.target, node.value
        if isinstance(target, ast.Name):
            if target.id not in plan.carried:
                return False
            self._put(ind, "#pragma omp atomic")
            self._put(ind, "%s += %s;" % (target.id, self._expr(value)))
            return True
        if isinstance(target, ast.Subscript) and self._sub_name(target) == "out":
            elt, is_row = self._out_target(target)
            if is_row:
                raise CRenderError("atomic strategy over row writes")
            self._put(ind, "#pragma omp atomic")
            self._put(ind, "%s += %s;" % (elt, self._expr(value)))
            return True
        return False

    # ------------------------------------------------------------------
    # pass 1: type inference over assigned names
    # ------------------------------------------------------------------
    def _set_type(self, name: str, tag: str) -> None:
        if name in _C_KEYWORDS or name == _V:
            raise CRenderError("local name %r collides with C identifier" % name)
        old = self.types.get(name)
        if old is None:
            self.types[name] = tag
        elif old != tag:
            raise CRenderError(
                "name %r used as both %s and %s" % (name, old, tag)
            )

    def _infer_block(self, stmts) -> None:
        for node in stmts:
            if isinstance(node, ast.For):
                self._set_type(node.target.id, _INT)
                self._infer_block(node.body)
            elif isinstance(node, (ast.While, ast.If)):
                self._infer_block(node.body)
                self._infer_block(node.orelse)
            elif isinstance(node, ast.Assign):
                target = node.targets[0]
                if not isinstance(target, ast.Name):
                    continue  # out[...] = min(...): no local binding
                value = node.value
                if self._is_np_empty(value):
                    self._set_type(target.id, _WS)
                elif self._lut_list(value) is not None:
                    self._set_type(target.id, _LUT)
                else:
                    self._set_type(target.id, self._etype(value))

    def _is_np_empty(self, node) -> bool:
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "np"
            and node.func.attr == "empty"
        )

    def _lut_list(self, node) -> Optional[ast.List]:
        """The literal element list of a lookup-table definition.

        float64 kernels spell LUTs as plain Python lists; float32 kernels
        wrap them in ``np.array([...], dtype=np.float32)`` so the Python
        backend reads float32 factors.  Both forms carry the same literal
        elements for the C rendering.
        """
        if isinstance(node, ast.List):
            return node
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "np"
            and node.func.attr == "array"
            and node.args
            and isinstance(node.args[0], ast.List)
        ):
            return node.args[0]
        return None

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

    def _etype(self, node) -> str:
        """Scalar/vector type of an expression (INT, DBL or VEC)."""
        if isinstance(node, ast.Constant):
            if isinstance(node.value, bool) or isinstance(node.value, int):
                return _INT
            return _DBL
        if isinstance(node, ast.Name):
            name = node.id
            if name in self.dim_args:
                return _INT
            if name in self.dense:
                ndim = self.dense[name]
                if ndim == 0:
                    return _DBL
                if ndim == 1:
                    return _VEC
                raise CRenderError("bare dense access to %d-d %s" % (ndim, name))
            tag = self.types.get(name)
            if tag in (_WS,):
                return _VEC
            if tag in (_INT, _DBL, _VEC):
                return tag
            raise CRenderError("use of unbound name %r" % name)
        if isinstance(node, ast.Subscript):
            base = node.value
            if isinstance(base, ast.Name):
                name = base.id
                if name in self.int_arrays:
                    return _INT
                if name in self.dbl_arrays or self.types.get(name) == _LUT:
                    return _DBL
                if name in self.dense:
                    coords = self._coords(node)
                    if coords is None:
                        raise CRenderError("slice of dense input %s" % name)
                    if len(coords) == self.dense[name]:
                        return _DBL
                    if len(coords) == self.dense[name] - 1:
                        return _VEC
                    raise CRenderError("partial dense access %s" % name)
                if name == "out":
                    return _DBL
            raise CRenderError("unsupported subscript base")
        if isinstance(node, ast.BinOp):
            left, right = self._etype(node.left), self._etype(node.right)
            if _VEC in (left, right):
                return _VEC
            if _DBL in (left, right):
                return _DBL
            return _INT
        if isinstance(node, (ast.BoolOp, ast.Compare)):
            return _INT
        if isinstance(node, ast.UnaryOp):
            return self._etype(node.operand)
        if isinstance(node, ast.Call):
            fn = node.func
            if isinstance(fn, ast.Name) and fn.id in ("min", "max", "float"):
                return _DBL
            raise CRenderError("unsupported call in expression")
        raise CRenderError("unsupported expression node %s" % type(node).__name__)

    # ------------------------------------------------------------------
    # pass 2: emission
    # ------------------------------------------------------------------
    def _put(self, indent: int, text: str) -> None:
        self.lines.append("    " * indent + text)

    def _stmt(self, node, ind: int) -> None:
        if isinstance(node, ast.For):
            tile = getattr(node, "_rp_tile", None)
            if (
                tile is not None
                and self._parallel_ctx == 0
                and self._tile_ctx is None
            ):
                # tiling applies to serial emission only: OpenMP bodies
                # keep their own (bit-identical) schedules, and the
                # serial fallback inside _emit_parallel_nest still lands
                # here with _parallel_ctx == 0
                self._emit_tiled_nest(node, tile, ind)
            else:
                self._for(node, ind)
        elif isinstance(node, FusedVector):
            self._emit_fused(node, ind)
        elif isinstance(node, ast.While):
            self._put(ind, "while (%s) {" % self._expr(node.test))
            for s in node.body:
                self._stmt(s, ind + 1)
            self._put(ind, "}")
        elif isinstance(node, ast.If):
            if node.orelse:
                raise CRenderError("else branches are not generated")
            self._put(ind, "if (%s) {" % self._expr(node.test))
            for s in node.body:
                self._stmt(s, ind + 1)
            self._put(ind, "}")
        elif isinstance(node, ast.Assign):
            self._assign(node, ind)
        elif isinstance(node, ast.AugAssign):
            self._augassign(node, ind)
        elif isinstance(node, ast.Expr):
            self._expr_stmt(node.value, ind)
        elif isinstance(node, ast.Continue):
            self._put(ind, "continue;")
        elif isinstance(node, ast.Break):
            self._put(ind, "break;")
        elif isinstance(node, ast.Pass):
            self._put(ind, ";")
        else:
            raise CRenderError("unsupported statement %s" % type(node).__name__)

    def _for(self, node: ast.For, ind: int) -> None:
        it = node.iter
        if not (
            isinstance(it, ast.Call)
            and isinstance(it.func, ast.Name)
            and it.func.id == "range"
            and 1 <= len(it.args) <= 2
        ):
            raise CRenderError("for loops must iterate range()")
        var = node.target.id
        if len(it.args) == 1:
            lo, hi = "0", self._expr(it.args[0])
        else:
            lo, hi = self._expr(it.args[0]), self._expr(it.args[1])
        self._put(ind, "for (%s = %s; %s < %s; ++%s) {" % (var, lo, var, hi, var))
        tile = self._tile_ctx
        if tile is not None and node is tile.bind_for:
            # inject the block guard right after the fiber coordinate
            # read: idx runs are sorted, so leaving the block upward ends
            # this fiber's contribution (break, not continue)
            self._stmt(node.body[0], ind + 1)
            self._put(ind + 1, "if (%s >= rp_thi) { break; }" % tile.lead)
            self._put(ind + 1, "if (%s < rp_tb) { continue; }" % tile.lead)
            rest = node.body[1:]
        else:
            rest = node.body
        for s in rest:
            self._stmt(s, ind + 1)
        self._put(ind, "}")

    def _emit_tiled_nest(self, node: ast.For, tile: TileSpec, ind: int) -> None:
        """Wrap one annotated nest in a block loop over output rows."""
        self._put(ind, "{")
        if tile.rows > 0:
            self._put(ind + 1, "int64_t rp_tile = %d;" % tile.rows)
        else:
            # auto: keep ~1MiB of output rows resident per block
            self._put(
                ind + 1,
                "int64_t rp_tile = 1048576 / ((out_dims[1] > 0 ? out_dims[1] : 1)"
                " * (int64_t) sizeof(%s));" % self.elem,
            )
            self._put(ind + 1, "if (rp_tile < 8) { rp_tile = 8; }")
        self._put(ind + 1, "int64_t rp_tb, rp_thi;")
        self._put(
            ind + 1,
            "for (rp_tb = 0; rp_tb < out_dims[0]; rp_tb += rp_tile) {",
        )
        self._put(ind + 2, "rp_thi = rp_tb + rp_tile;")
        self._tile_ctx = tile
        try:
            self._for(node, ind + 2)
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

    def _emit_fused(self, node: FusedVector, ind: int) -> None:
        """One element loop for a run of fused vectorized statements."""
        if self._log_plan is not None or self._atomic_plan is not None:
            # shared row writes reroute through the scatter log / atomic
            # machinery statement by statement; don't fuse across that
            for s in node.stmts:
                self._stmt(s, ind)
            return
        parts = []
        for s in node.stmts:
            if isinstance(s.target, ast.Name):
                elt = "%s[%s]" % (s.target.id, _V)
            else:
                elt, _ = self._out_target(s.target)
            parts.append("%s += %s;" % (elt, self._expr(s.value, velt=True)))
        self.uses_vector = True
        self._simd_hint(ind)
        self._put(
            ind,
            "for (%s = 0; %s < %s; ++%s) { %s }"
            % (_V, _V, self.vlen, _V, " ".join(parts)),
        )

    # -- assignments ---------------------------------------------------
    def _assign(self, node: ast.Assign, ind: int) -> None:
        if len(node.targets) != 1:
            raise CRenderError("multiple assignment targets")
        target, value = node.targets[0], node.value

        if isinstance(target, ast.Name):
            name = target.id
            if self._is_np_empty(value):
                if self.vlen is None:
                    raise CRenderError("workspace vector without a vector index")
                length = self._expr(value.args[0])
                self.ws_alloc.append((name, length))
                self._ws_len[name] = length
                return
            lut = self._lut_list(value)
            if lut is not None:
                # initializer conversion (double constant -> elem) is the
                # same rounding numpy applies building the float32 array
                elts = ", ".join(_c_float(e.value) for e in lut.elts)
                self._put(
                    ind,
                    "static const %s %s[%d] = {%s};"
                    % (self.elem, name, len(lut.elts), elts),
                )
                return
            tag = self.types[name]
            if tag == _VEC:
                self._put(ind, "%s = %s;" % (name, self._vec_pointer(value)))
                return
            if self._min_max_call(value):
                fn, args = self._min_max_call(value)
                self._put(
                    ind,
                    "%s = %s(%s, %s);"
                    % (name, fn, self._expr(args[0]), self._expr(args[1])),
                )
                return
            if self._etype(value) == _VEC:
                raise CRenderError("vector expression assigned to scalar %s" % name)
            self._put(ind, "%s = %s;" % (name, self._expr(value)))
            return

        if isinstance(target, ast.Subscript):
            # out[i] = min(out[i], expr) / max — the scalar min/max reduce
            mm = self._min_max_call(value)
            if mm is None:
                raise CRenderError("subscript assignment must be min/max reduce")
            fn, args = mm
            tgt = self._expr(target)
            self._put(
                ind,
                "%s = %s(%s, %s);" % (tgt, fn, self._expr(args[0]), self._expr(args[1])),
            )
            return
        raise CRenderError("unsupported assignment target")

    def _min_max_call(self, node):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("min", "max")
            and len(node.args) == 2
        ):
            fn = "fmin" if node.func.id == "min" else "fmax"
            return fn + self._fp_suffix, node.args
        return None

    def _augassign(self, node: ast.AugAssign, ind: int) -> None:
        if not isinstance(node.op, ast.Add):
            raise CRenderError("only += updates are generated")
        target, value = node.target, node.value

        # inside a parallel body, shared += updates are rerouted: replay
        # nests append to the scatter log, atomic nests prefix a pragma
        if self._log_plan is not None and self._log_augassign(node, ind):
            return
        if self._atomic_plan is not None and self._atomic_augassign(node, ind):
            return

        if isinstance(target, ast.Name):
            tag = self.types[target.id]
            if tag in (_WS, _VEC):
                self._vector_loop(ind, "%s[%s]" % (target.id, _V), "+=", value)
                return
            if self._etype(value) == _VEC:
                raise CRenderError(
                    "vector expression accumulated into scalar %s" % target.id
                )
            self._put(ind, "%s += %s;" % (target.id, self._expr(value)))
            return

        if isinstance(target, ast.Subscript) and self._sub_name(target) == "out":
            elt, is_row = self._out_target(target)
            if is_row:
                self._vector_loop(ind, elt, "+=", value)
            else:
                if self._etype(value) == _VEC:
                    raise CRenderError("vector expression added to out scalar")
                self._put(ind, "%s += %s;" % (elt, self._expr(value)))
            return
        raise CRenderError("unsupported += target")

    def _expr_stmt(self, node, ind: int) -> None:
        if not isinstance(node, ast.Call):
            raise CRenderError("unsupported expression statement")
        fn = node.func
        # ws.fill(c)
        if isinstance(fn, ast.Attribute) and fn.attr == "fill":
            name = fn.value.id
            if self.types.get(name) != _WS:
                raise CRenderError("fill() on non-workspace %s" % name)
            self._vector_loop(ind, "%s[%s]" % (name, _V), "=", node.args[0])
            return
        # np.minimum(target, expr, out=target) / np.maximum
        if (
            isinstance(fn, ast.Attribute)
            and isinstance(fn.value, ast.Name)
            and fn.value.id == "np"
            and fn.attr in ("minimum", "maximum")
        ):
            cfn = ("fmin" if fn.attr == "minimum" else "fmax") + self._fp_suffix
            tgt_node, expr_node = node.args[0], node.args[1]
            elt = self._vec_target_elt(tgt_node)
            self._vector_loop_fn(ind, elt, cfn, expr_node)
            return
        raise CRenderError("unsupported call statement")

    # -- vector statement helpers --------------------------------------
    def _vec_target_elt(self, node) -> str:
        """Element lvalue of a vector target (ws name or out row)."""
        if isinstance(node, ast.Name) and self.types.get(node.id) == _WS:
            return "%s[%s]" % (node.id, _V)
        if isinstance(node, ast.Subscript) and self._sub_name(node) == "out":
            elt, is_row = self._out_target(node)
            if not is_row:
                raise CRenderError("np.minimum on scalar out element")
            return elt
        raise CRenderError("unsupported vector target")

    def _vector_loop(self, ind: int, elt: str, op: str, value) -> None:
        self.uses_vector = True
        self._simd_hint(ind)
        self._put(
            ind,
            "for (%s = 0; %s < %s; ++%s) { %s %s %s; }"
            % (_V, _V, self.vlen, _V, elt, op, self._expr(value, velt=True)),
        )

    def _vector_loop_fn(self, ind: int, elt: str, cfn: str, value) -> None:
        self.uses_vector = True
        self._simd_hint(ind)
        self._put(
            ind,
            "for (%s = 0; %s < %s; ++%s) { %s = %s(%s, %s); }"
            % (_V, _V, self.vlen, _V, elt, cfn, elt, self._expr(value, velt=True)),
        )

    # -- subscript helpers ---------------------------------------------
    @staticmethod
    def _sub_name(node: ast.Subscript) -> Optional[str]:
        return node.value.id if isinstance(node.value, ast.Name) else None

    @staticmethod
    def _coords(node: ast.Subscript):
        """Coordinate expressions of a subscript; None for ``[:]``."""
        sl = node.slice
        if isinstance(sl, ast.Slice):
            return None
        if isinstance(sl, ast.Tuple):
            return list(sl.elts)
        return [sl]

    def _flatten(self, coords, dims_name: str, upto: int) -> str:
        """Row-major flat index of *coords* against ``dims_name[1..upto]``."""
        if not coords:
            return "0"
        expr = self._expr(coords[0])
        for t in range(1, upto):
            expr = "(%s) * %s[%d] + %s" % (
                expr,
                dims_name,
                t,
                self._expr(coords[t]),
            )
        return expr

    def _out_base(self, node: ast.Subscript) -> Tuple[str, bool]:
        """(flat base index expression, is_row) for an ``out[...]`` subscript.

        A *row* target covers the trailing vector axis; its base is the
        flat index of the row's first element (the replay log records
        exactly this base).
        """
        coords = self._coords(node)
        ndim = self.out_ndim
        if coords is None:  # out[:]
            return "0", True
        # out[()] arrives as Tuple(elts=[]) -> coords == [] == ndim 0,
        # which the full-subscript branch flattens to out[0]
        if len(coords) == ndim:
            return self._flatten(coords, "out_dims", ndim), False
        if len(coords) == ndim - 1 and self.vector_index is not None:
            prefix = self._flatten(coords, "out_dims", ndim - 1)
            return "(%s) * out_dims[%d]" % (prefix, ndim - 1), True
        raise CRenderError(
            "out subscript with %d coords against %d-d output" % (len(coords), ndim)
        )

    def _out_target(self, node: ast.Subscript) -> Tuple[str, bool]:
        """(element lvalue, is_row) for an ``out[...]`` subscript.

        A *row* target covers the trailing vector axis: its element lvalue
        references the vector loop variable.  ``self._out_array`` names
        the destination buffer — the privatized strategy rebinds it to the
        per-thread copy while emitting its parallel body.
        """
        base, is_row = self._out_base(node)
        if is_row:
            self.uses_vector = True
            if base == "0":
                return "%s[%s]" % (self._out_array, _V), True
            return "%s[%s + %s]" % (self._out_array, base, _V), True
        return "%s[%s]" % (self._out_array, base), False

    def _vec_pointer(self, node) -> str:
        """Pointer expression for a dense row slice / whole-vector value."""
        if isinstance(node, ast.Name) and self.dense.get(node.id) == 1:
            return node.id
        if isinstance(node, ast.Subscript):
            name = self._sub_name(node)
            if name in self.dense:
                coords = self._coords(node)
                ndim = self.dense[name]
                if coords is not None and len(coords) == ndim - 1:
                    prefix = self._flatten(coords, "%s_dims" % name, ndim - 1)
                    return "%s + (%s) * %s_dims[%d]" % (name, prefix, name, ndim - 1)
        raise CRenderError("unsupported vector value")

    # -- expressions ---------------------------------------------------
    def _expr(self, node, velt: bool = False) -> str:
        if isinstance(node, ast.Constant):
            if isinstance(node.value, bool):
                return "1" if node.value else "0"
            if isinstance(node.value, int):
                return str(node.value)
            if isinstance(node.value, float):
                return self._elem_const(node.value)
            raise CRenderError("unsupported constant %r" % (node.value,))
        if isinstance(node, ast.Name):
            name = node.id
            if name in self.dense:
                ndim = self.dense[name]
                if ndim == 0:
                    return "%s[0]" % name
                if ndim == 1 and velt:
                    return "%s[%s]" % (name, _V)
                raise CRenderError("bare dense name %s outside vector context" % name)
            tag = self.types.get(name)
            if tag in (_WS, _VEC):
                if not velt:
                    raise CRenderError("vector %s outside vector context" % name)
                return "%s[%s]" % (name, _V)
            return name
        if isinstance(node, ast.Subscript):
            return self._subscript_expr(node, velt)
        if isinstance(node, ast.BinOp):
            op = self._binop(node.op)
            return "(%s %s %s)" % (
                self._expr(node.left, velt),
                op,
                self._expr(node.right, velt),
            )
        if isinstance(node, ast.BoolOp):
            op = " && " if isinstance(node.op, ast.And) else " || "
            return "(%s)" % op.join(self._expr(v, velt) for v in node.values)
        if isinstance(node, ast.Compare):
            parts = []
            left = node.left
            for cmp_op, right in zip(node.ops, node.comparators):
                parts.append(
                    "(%s %s %s)"
                    % (self._expr(left, velt), self._cmp(cmp_op), self._expr(right, velt))
                )
                left = right
            return " && ".join(parts) if len(parts) > 1 else parts[0]
        if isinstance(node, ast.UnaryOp):
            if isinstance(node.op, ast.USub):
                return "(-%s)" % self._expr(node.operand, velt)
            raise CRenderError("unsupported unary operator")
        if isinstance(node, ast.Call):
            fn = node.func
            if isinstance(fn, ast.Name) and fn.id == "float":
                arg = node.args[0]
                if isinstance(arg, ast.Constant) and arg.value == "inf":
                    return "INFINITY"
                if isinstance(arg, ast.Constant) and arg.value == "-inf":
                    return "(-INFINITY)"
                raise CRenderError("unsupported float() literal")
            mm = self._min_max_call(node)
            if mm is not None:
                cfn, args = mm
                return "%s(%s, %s)" % (
                    cfn,
                    self._expr(args[0], velt),
                    self._expr(args[1], velt),
                )
            raise CRenderError("unsupported call in expression")
        raise CRenderError("unsupported expression %s" % type(node).__name__)

    def _subscript_expr(self, node: ast.Subscript, velt: bool) -> str:
        name = self._sub_name(node)
        if name is None:
            raise CRenderError("computed subscript base")
        coords = self._coords(node)
        if name in self.int_arrays or name in self.dbl_arrays:
            if coords is None or len(coords) != 1:
                raise CRenderError("structure arrays take one index")
            return "%s[%s]" % (name, self._expr(coords[0], velt))
        if self.types.get(name) == _LUT:
            return "%s[%s]" % (name, self._expr(coords[0], velt))
        if name in self.dense:
            ndim = self.dense[name]
            if coords is None:
                raise CRenderError("slice of dense input %s" % name)
            if len(coords) == ndim:
                return "%s[%s]" % (name, self._flatten(coords, "%s_dims" % name, ndim))
            if len(coords) == ndim - 1:
                if not velt:
                    raise CRenderError(
                        "dense row slice of %s outside vector context" % name
                    )
                prefix = self._flatten(coords, "%s_dims" % name, ndim - 1)
                return "%s[(%s) * %s_dims[%d] + %s]" % (name, prefix, name, ndim - 1, _V)
            raise CRenderError("partial dense subscript of %s" % name)
        if name == "out":
            elt, is_row = self._out_target(node)
            if is_row and not velt:
                raise CRenderError("out row read outside vector context")
            return elt
        raise CRenderError("subscript of unknown array %r" % name)

    @staticmethod
    def _binop(op) -> str:
        if isinstance(op, ast.Add):
            return "+"
        if isinstance(op, ast.Sub):
            return "-"
        if isinstance(op, ast.Mult):
            return "*"
        if isinstance(op, ast.LShift):
            return "<<"
        if isinstance(op, ast.BitOr):
            return "|"
        raise CRenderError("unsupported binary operator %s" % type(op).__name__)

    @staticmethod
    def _cmp(op) -> str:
        mapping = {
            ast.Lt: "<",
            ast.LtE: "<=",
            ast.Gt: ">",
            ast.GtE: ">=",
            ast.Eq: "==",
            ast.NotEq: "!=",
        }
        for kind, text in mapping.items():
            if isinstance(op, kind):
                return text
        raise CRenderError("unsupported comparison %s" % type(op).__name__)


@dataclass(frozen=True)
class CRender:
    """Everything one render of a lowered kernel produced."""

    source: str
    #: one :class:`NestWork` term per nest that received an OpenMP body
    #: (the ``threads="auto"`` cost model).
    work_model: Tuple[NestWork, ...]
    #: one work estimate per *top-level* nest — parallel or serial, in
    #: ``repro_nest_sec`` slot order; empty unless ``profiled``.
    profile_model: Tuple[Optional[NestWork], ...]
    #: whether the source carries per-nest timing instrumentation.
    profiled: bool
    #: signature of the pass set the source was rendered under
    #: (:meth:`PassConfig.signature`), keyed into the service cache.
    passes: str = "none"


def render_c_full(
    lowered: LoweredKernel,
    label: Optional[str] = None,
    parallel: Optional[str] = None,
    profile: Optional[bool] = None,
    passes: Optional[PassConfig] = None,
    einsum: Optional[str] = None,
) -> CRender:
    """Render a lowered kernel and return the full :class:`CRender`.

    ``profile=None`` reads ``$REPRO_PROFILE`` (profiled builds bracket
    every top-level nest with monotonic-clock accumulation and export
    ``repro_profile_*`` symbols); ``parallel=None`` reads
    ``$REPRO_OMP_STRATEGY``; ``passes=None`` reads the active pipeline
    configuration (``$REPRO_PASSES`` / ``$REPRO_TILE``).  ``einsum``
    identifies the kernel to the tuning oracle — defaulted axes may then
    be filled from a measured entry (:func:`repro.tune.compile_overrides`).
    """
    with obs_trace.span("render_c", label=label):
        renderer = _Renderer(lowered, label, parallel, profile, passes, einsum)
        source = renderer.render()
    return CRender(
        source=source,
        work_model=tuple(renderer.work_model),
        profile_model=tuple(renderer.profile_model),
        profiled=renderer.profile,
        passes=renderer.pass_config.signature(),
    )


def render_c_ex(
    lowered: LoweredKernel,
    label: Optional[str] = None,
    parallel: Optional[str] = None,
    passes: Optional[PassConfig] = None,
) -> Tuple[str, Tuple[NestWork, ...]]:
    """:func:`render_c` plus the per-nest work model.

    The second element holds one :class:`NestWork` term per nest that
    received an OpenMP body — the render-time side of the
    ``threads="auto"`` cost model.  An empty tuple means the kernel has no
    parallel bodies at all (serial emission mode, or nothing provably
    safe), in which case a thread team could never help.
    """
    rendered = render_c_full(lowered, label, parallel, passes=passes)
    return rendered.source, rendered.work_model


def render_c(
    lowered: LoweredKernel,
    label: Optional[str] = None,
    parallel: Optional[str] = None,
    passes: Optional[PassConfig] = None,
) -> str:
    """Render a lowered kernel's loop structure as a C translation unit.

    ``parallel`` overrides the OpenMP emission mode (``"auto"`` /
    ``"serial"`` / ``"atomic"``); ``None`` reads ``$REPRO_OMP_STRATEGY``.
    ``passes`` overrides the optimization-pass set; ``None`` reads the
    active configuration (``$REPRO_PASSES`` / ``$REPRO_TILE``).
    """
    return render_c_ex(lowered, label, parallel, passes=passes)[0]


# ----------------------------------------------------------------------
# ctypes binding
# ----------------------------------------------------------------------
class CExecutable(Executable):
    """A compiled kernel bound through ctypes.

    The call plan (which pointer/extent/scalar goes where) is computed
    once at bind time; each run only coerces dtypes (a no-op for arrays
    :meth:`BoundKernel.prepare` built) and grabs data pointers.

    The loaded object is either the serial or the OpenMP build of
    ``source`` (:attr:`kind`).  A serial object that is asked to run with
    ``threads > 1`` is upgraded in place (:meth:`upgrade`) — the check
    sits on the ``threads > 1`` branch only, so serial dispatch pays
    nothing for it.
    """

    def __init__(
        self,
        lowered: LoweredKernel,
        so_path: str,
        source: str,
        work_model: Sequence[NestWork] = (),
        profile_model: Sequence[Optional[NestWork]] = (),
        stem: Optional[str] = None,
    ):
        self.source = source
        self._stem = stem
        # the element dtype of every value pointer in the ABI (the "f64"
        # classification kind means "value array", in this dtype)
        self._elem = np.dtype(
            np.float32 if lowered.dtype == "float32" else np.float64
        )
        self._steps = tuple(classify_args(lowered))
        self._work_model = tuple(work_model)
        self._vlen = (
            "n_%s" % lowered.vector_index
            if lowered.vector_index is not None
            else None
        )
        self.profile_model = tuple(profile_model)
        self._load(so_path)
        # a kernel without parallel bodies has nothing to upgrade to
        self._upgradable = bool(self._work_model) and not self.omp
        self._upgrade_lock = threading.Lock()

    def _load(self, so_path: str) -> None:
        """dlopen *so_path* and bind its entry points; on failure the
        previously loaded object (if any) stays in service."""
        with obs_trace.span("dlopen", path=so_path):
            if faults.poll("dlopen") is not None:
                raise OSError("injected: cannot dlopen %s" % so_path)
            lib = ctypes.CDLL(so_path)
            fn = lib.kernel  # AttributeError if absent
        # the kernel returns 0 on success, nonzero when a runtime
        # allocation (per-thread workspace, scatter log) failed
        fn.restype = ctypes.c_int64
        self._lib, self._fn, self.so_path = lib, fn, so_path
        #: whether this is the OpenMP object (its marker symbol exists
        #: only under ``_OPENMP``).
        self.omp = hasattr(lib, "repro_openmp")
        # per-nest profiling symbols exist only in REPRO_PROFILE builds;
        # their absence (the production case, or a pre-profiling artifact)
        # leaves `profiled` False and nest_profile() returning None
        try:
            nests_fn = lib.repro_profile_nests
            calls_fn = lib.repro_profile_calls
            reset_fn = lib.repro_profile_reset
            read_fn = lib.repro_profile_read
        except AttributeError:
            self._profile_fns = None
        else:
            nests_fn.restype = ctypes.c_int64
            calls_fn.restype = ctypes.c_int64
            reset_fn.restype = None
            read_fn.restype = None
            read_fn.argtypes = (ctypes.POINTER(ctypes.c_double),)
            self._profile_fns = (nests_fn, calls_fn, reset_fn, read_fn)

    @property
    def kind(self) -> str:
        """Which object is loaded: ``"serial"`` or ``"omp"``."""
        return "omp" if self.omp else "serial"

    def upgrade(self) -> None:
        """Swap the serial object for the OpenMP one, at most once.

        Single-flight across host threads (the lock) and across processes
        (:func:`ctoolchain.compile_shared`'s flock); plans bound before
        the swap follow it on their next ``threads > 1`` call.  When the
        OpenMP object cannot be had — no OpenMP toolchain, a ``cc`` or
        ``dlopen`` failure — the ``c@omp`` tier is marked unhealthy
        (sticky: later runs resolve to one thread), the serial object
        keeps serving bit-identical results and nothing raises.
        """
        with self._upgrade_lock:
            if not self._upgradable:
                return  # another host thread settled it first
            try:
                with obs_trace.span("backend:upgrade", stem=self._stem):
                    if not ctoolchain.openmp_flags():
                        raise ctoolchain.ToolchainError(
                            "the toolchain cannot build OpenMP objects"
                        )
                    self._load(
                        ctoolchain.compile_shared(
                            self.source, stem=self._stem, omp=True
                        )
                    )
                obs_metrics.inc("toolchain.omp_upgrades")
            except (ctoolchain.ToolchainError, OSError, AttributeError) as exc:
                health.mark("c@omp", exc)
            finally:
                self._upgradable = False

    @property
    def profiled(self) -> bool:
        return self._profile_fns is not None

    def nest_profile(self) -> Optional[NestProfile]:
        if self._profile_fns is None:
            return None
        nests_fn, calls_fn, _, read_fn = self._profile_fns
        count = int(nests_fn())
        buf = (ctypes.c_double * max(count, 1))()
        read_fn(buf)
        return NestProfile(
            seconds=tuple(buf[:count]), calls=int(calls_fn())
        )

    def profile_reset(self) -> None:
        if self._profile_fns is not None:
            self._profile_fns[2]()

    def __call__(self, out: np.ndarray, threads: int = 1, **arrays) -> None:
        if out.dtype != self._elem or not out.flags.c_contiguous:
            raise ValueError(
                "output buffer must be C-contiguous %s" % self._elem.name
            )
        keep = []  # hold coerced arrays alive across the call
        out_dims = np.asarray(out.shape, dtype=np.int64)
        keep.append(out_dims)
        argv = [
            ctypes.c_void_p(out.ctypes.data),
            ctypes.c_void_p(out_dims.ctypes.data),
        ]
        for kind, name in self._steps:
            value = arrays[name]
            if kind == "dim":
                argv.append(ctypes.c_int64(int(value)))
                continue
            dtype = np.int64 if kind == "i64" else self._elem
            arr = np.ascontiguousarray(value, dtype=dtype)
            keep.append(arr)
            argv.append(ctypes.c_void_p(arr.ctypes.data))
            if kind == "dense":
                shape = np.asarray(arr.shape, dtype=np.int64)
                keep.append(shape)
                argv.append(ctypes.c_void_p(shape.ctypes.data))
        # the runtime thread count rides last; ctypes releases the GIL
        # around the call, so batch fan-out threads and OpenMP teams of
        # distinct kernels genuinely overlap
        argv.append(ctypes.c_int64(max(1, int(threads))))
        if threads > 1 and self._upgradable:
            self.upgrade()
        rc = self._fn(*argv)
        if rc:
            raise BackendError(
                "C kernel reported allocation failure (status %d)" % rc
            )

    def bind(
        self, out: np.ndarray, arrays: Mapping[str, object]
    ) -> Callable[[int], None]:
        """Pre-marshal the whole ctypes argument vector once.

        Dtype coercion, contiguity checks and data-pointer extraction all
        happen here; the returned callable only rewrites the trailing
        thread-count cell and invokes the foreign function.  Arrays built
        by :meth:`BoundKernel.prepare` are already contiguous in the right
        dtypes, so the coercions below are no-ops that alias the caller's
        buffers — in-place updates to them are visible to later calls,
        exactly as with :meth:`__call__`.  (An array that *did* need
        coercion is snapshotted at bind time.)  The bound callable owns
        references to every buffer it points into.
        """
        if out.dtype != self._elem or not out.flags.c_contiguous:
            raise ValueError(
                "output buffer must be C-contiguous %s" % self._elem.name
            )
        keep = [out]  # pointers stay valid for the callable's lifetime
        out_dims = np.asarray(out.shape, dtype=np.int64)
        keep.append(out_dims)
        argv = [
            ctypes.c_void_p(out.ctypes.data),
            ctypes.c_void_p(out_dims.ctypes.data),
        ]
        for kind, name in self._steps:
            value = arrays[name]
            if kind == "dim":
                argv.append(ctypes.c_int64(int(value)))
                continue
            dtype = np.int64 if kind == "i64" else self._elem
            arr = np.ascontiguousarray(value, dtype=dtype)
            keep.append(arr)
            argv.append(ctypes.c_void_p(arr.ctypes.data))
            if kind == "dense":
                shape = np.asarray(arr.shape, dtype=np.int64)
                keep.append(shape)
                argv.append(ctypes.c_void_p(shape.ctypes.data))
        nthreads = ctypes.c_int64(1)
        argv.append(nthreads)
        packed = tuple(argv)
        fn = self._fn

        def call(threads: int) -> None:
            if threads > 1:
                if self._upgradable:
                    self.upgrade()
                nthreads.value = threads
                rc = self._fn(*packed)
            else:
                # the object bound here serves every serial call, also
                # after an upgrade: both objects run the same serial loops
                nthreads.value = 1
                rc = fn(*packed)
            if rc:
                raise BackendError(
                    "C kernel reported allocation failure (status %d)" % rc
                )

        call.keep = keep  # noqa: B010 - anchors buffer lifetimes to the plan
        return call

    def parallel_work(
        self, arrays: Mapping[str, object]
    ) -> Optional[float]:
        """Estimated scalar updates across this kernel's parallel nests."""
        if not self._work_model:
            return None
        return sum(term.resolve(arrays, self._vlen) for term in self._work_model)

    def describe(self) -> str:
        return "c (%s, %s object)" % (self.so_path, self.kind)


class CBackend(Backend):
    name = "c"

    def is_available(self) -> bool:
        return ctoolchain.probe() is not None

    def compile(
        self,
        lowered: LoweredKernel,
        label: Optional[str] = None,
        artifact: Optional[str] = None,
        einsum: Optional[str] = None,
        threaded: bool = False,
    ) -> CExecutable:
        rendered = render_c_full(lowered, label, einsum=einsum)
        stem = re.sub(r"[^A-Za-z0-9_-]", "", label or "")[:24] or None

        def load(so_path: str) -> CExecutable:
            exe = CExecutable(
                lowered,
                so_path,
                rendered.source,
                rendered.work_model,
                rendered.profile_model,
                stem=stem,
            )
            if threaded:
                exe.upgrade()  # no-op unless a serial artifact was loaded
            return exe

        if artifact is not None:
            try:
                return load(artifact)
            except (OSError, AttributeError):
                pass  # corrupt or foreign .so: degrade to a fresh build
        if ctoolchain.probe() is None:
            raise BackendUnavailableError(
                "the C backend needs a working compiler; none was found "
                "(set $REPRO_CC, or use backend='auto' to fall back to python)"
            )
        # a kernel without parallel bodies is the same code either way
        omp = threaded and bool(rendered.work_model)
        try:
            so_path = ctoolchain.compile_shared(
                rendered.source, stem=stem, omp=omp
            )
            try:
                return load(so_path)
            except (OSError, AttributeError):
                # a content-addressed object that won't load (stale cache
                # from another machine): rebuild it once, then fail loudly
                so_path = ctoolchain.compile_shared(
                    rendered.source, stem=stem, force=True, omp=omp
                )
                return load(so_path)
        except ctoolchain.ToolchainError as exc:
            raise BackendError("C kernel build failed: %s" % exc)

    def describe(self) -> str:
        tc = ctoolchain.probe()
        if tc is None:
            return "c: unavailable (no working compiler found)"
        omp = "OpenMP" if tc.openmp else "no OpenMP, serial kernels"
        return "c: compiled shared objects via %s (%s)" % (tc.describe(), omp)
