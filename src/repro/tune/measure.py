"""Measured evaluation of variants on real kernels.

The measurer compiles each compile-level variant (pass set, tile size,
OMP strategy) of one lowered kernel through the normal C backend under
an explicit :class:`~repro.codegen.backends.base.CodegenConfig` built
from the variant — nothing is resolved from the environment or an active
tuning oracle, and the process environment is never written — binds it
to one prepared argument set, and times only the kernel's loops, exactly
like :mod:`repro.bench`.

Before a variant is ever timed, its raw output buffer must be
bit-identical to the untuned baseline's.  A variant that diverges (the
``atomic`` scatter strategy reordering a ``+`` reduction, say) raises
:class:`~repro.tune.search.VariantRejected` and is dropped — the tuner
can only ever make kernels faster, never different.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.bench.harness import (
    TimingStats,
    fingerprint_class,
    machine_fingerprint,
    time_callable_stats,
)
from repro.codegen.backends.base import CodegenConfig
from repro.codegen.backends.cpasses import PassConfig, parse_passes
from repro.tune import db as tune_db
from repro.tune.search import (
    BASELINE,
    SearchResult,
    Variant,
    VariantRejected,
    successive_halving,
    variant_space,
)


def variant_codegen(variant: Variant) -> CodegenConfig:
    """The :class:`CodegenConfig` a variant's compile axes spell (never
    profiled: instrumentation would be timed along with the loops)."""
    passes, tile_rows, omp_strategy = variant.compile_axes()
    return CodegenConfig(
        omp_strategy=omp_strategy,
        passes=PassConfig(parse_passes(passes), tile_rows),
    )


class VariantMeasurer:
    """Build/verify/time variants of one compiled kernel on one input set.

    ``kernel`` must be a C-backend :class:`~repro.core.compiler.CompiledKernel`
    built under the *baseline* configuration (``variant_codegen(BASELINE)``);
    its executable seeds the build cache as the untuned reference.
    """

    def __init__(self, kernel, inputs: Dict, max_eval_s: float = 2.0):
        if kernel.backend != "c":
            raise VariantRejected(
                "tuning needs the C backend; this kernel runs on %r"
                % kernel.backend
            )
        from repro.codegen.runtime import REDUCE_IDENTITY

        self.kernel = kernel
        self.lowered = kernel.lowered
        self.max_eval_s = float(max_eval_s)
        self.prepared, self.shape = kernel.prepare(**inputs)
        self._fill_value = REDUCE_IDENTITY[self.lowered.output.reduce_op]
        #: compile_axes -> executable (the baseline build seeds the cache).
        self._builds = {BASELINE.compile_axes(): kernel.bound.executable}
        #: variant -> (out_buffer, bound call) once verified bit-identical.
        self._runners: Dict[Variant, Tuple[np.ndarray, object]] = {}
        out, call = self._bind(kernel.bound.executable)
        out.fill(self._fill_value)
        call(1)
        self.baseline_raw = np.array(out, copy=True)
        self._runners[BASELINE] = (out, call)
        #: shape facts for the db key (extents in lowering order + work).
        self.extents = [
            int(self.prepared[dim.name]) for dim in self.lowered.dims
        ]
        self.work = kernel.bound.executable.parallel_work(self.prepared)
        self.shape_key = tune_db.shape_class(self.extents, self.work)

    # ------------------------------------------------------------------
    def _bind(self, executable):
        out = self.kernel.bound.make_output_buffer(self.shape)
        return out, executable.bind(out, self.prepared)

    def _executable(self, variant: Variant):
        axes = variant.compile_axes()
        if axes not in self._builds:
            from repro.codegen.backends import get_backend
            from repro.codegen.backends.base import BackendError

            try:
                self._builds[axes] = get_backend("c").compile(
                    self.lowered,
                    label="tune-%s" % variant.passes,
                    codegen=variant_codegen(variant),
                )
            except (BackendError, OSError) as exc:
                raise VariantRejected("build failed: %s" % exc)
        return self._builds[axes]

    def runner(self, variant: Variant):
        """The variant's bound ``(out, call)`` — verified bit-identical to
        the baseline on first use, :class:`VariantRejected` otherwise."""
        cached = self._runners.get(variant)
        if cached is not None:
            return cached
        from repro.codegen.backends.base import BackendError

        out, call = self._bind(self._executable(variant))
        out.fill(self._fill_value)
        try:
            call(variant.threads)
        except (BackendError, OSError) as exc:
            raise VariantRejected("run failed: %s" % exc)
        if not np.array_equal(out, self.baseline_raw):
            raise VariantRejected(
                "output not bit-identical to the untuned baseline"
            )
        self._runners[variant] = (out, call)
        return out, call

    def evaluate(self, variant: Variant, repeats: int) -> TimingStats:
        """Timed loops only (fill + call), ``repeats`` adaptive samples."""
        out, call = self.runner(variant)
        fill, fill_value, threads = out.fill, self._fill_value, variant.threads

        def run() -> None:
            fill(fill_value)
            call(threads)

        return time_callable_stats(
            run, repeats=repeats, min_time=0.0, max_time=self.max_eval_s
        )


@dataclass
class TuneReport:
    """One ``repro tune`` run: what was searched, picked, and recorded."""

    name: Optional[str]
    einsum: str
    dtype: str
    machine_class: str
    shape_key: str
    budget_s: float
    result: SearchResult
    params: Dict[str, object] = field(default_factory=dict)
    db_path: Optional[str] = None
    recorded: bool = False

    def to_dict(self) -> Dict[str, object]:
        result = self.result
        doc: Dict[str, object] = {
            "kernel": self.name,
            "einsum": self.einsum,
            "dtype": self.dtype,
            "machine_class": self.machine_class,
            "shape_class": self.shape_key,
            "budget_s": self.budget_s,
            "evaluations": result.evaluations,
            "rungs": result.rungs,
            "skipped": result.skipped,
            "rejected": {
                v.label(): reason for v, reason in result.rejected.items()
            },
            "params": dict(self.params),
            "db": self.db_path,
            "recorded": self.recorded,
        }
        if result.best is not None and result.best_stats is not None:
            doc["best"] = {
                "variant": result.best.label(),
                "threads": result.best.threads,
                "passes": result.best.passes,
                "tile_rows": result.best.tile_rows,
                "omp_strategy": result.best.omp_strategy,
                "min_s": result.best_stats.best,
                "median_s": result.best_stats.median,
            }
        if result.baseline_stats is not None:
            doc["baseline"] = {
                "min_s": result.baseline_stats.best,
                "median_s": result.baseline_stats.median,
            }
            doc["speedup_vs_baseline"] = result.speedup
        return doc

    def describe(self) -> str:
        result = self.result
        lines = [
            "tuned %s (%s, %s) at shape %s on %s"
            % (
                self.name or self.einsum,
                self.dtype,
                ", ".join("%s=%s" % kv for kv in sorted(self.params.items()))
                or "default inputs",
                self.shape_key,
                self.machine_class,
            ),
            "  %d evaluations over %d rungs in a %.1fs budget"
            " (%d rejected, %d unvisited)"
            % (
                result.evaluations,
                result.rungs,
                self.budget_s,
                len(result.rejected),
                result.skipped,
            ),
        ]
        if result.best is not None and result.best_stats is not None:
            lines.append(
                "  best: %s  min %.6fs  (%.2fx vs untuned baseline)"
                % (result.best.label(), result.best_stats.best, result.speedup)
            )
        else:
            lines.append("  no variant survived the search")
        for variant, reason in sorted(
            result.rejected.items(), key=lambda kv: kv[0].label()
        ):
            lines.append("  rejected %s: %s" % (variant.label(), reason))
        if self.recorded and self.db_path:
            lines.append("  recorded into %s" % self.db_path)
        return "\n".join(lines)


def tune_kernel(
    spec,
    inputs: Dict,
    budget_s: float = 30.0,
    dtype: str = "float64",
    db_path: Optional[str] = None,
    name: Optional[str] = None,
    variants: Optional[Sequence[Variant]] = None,
    clock=time.monotonic,
    params: Optional[Dict[str, object]] = None,
) -> TuneReport:
    """Search the variant space for one kernel and record the winner.

    ``spec`` is a :class:`~repro.kernels.library.KernelSpec`; the
    baseline kernel is compiled under the explicit baseline configuration
    so neither user env nor an active oracle skews the reference point.
    When ``db_path`` is given the winning runtime variant (and, when it
    differs from the default build, the winning compile-level variant)
    is merged into the tuning database under this machine's class.
    """
    from repro.core.compiler import compile_kernel
    from repro.core.config import DEFAULT, cpu_count

    kernel = compile_kernel(
        spec.einsum,
        symmetric=dict(spec.symmetric),
        loop_order=spec.loop_order,
        formats=dict(spec.formats),
        options=DEFAULT.but(backend="c", dtype=dtype),
        codegen=variant_codegen(BASELINE),
    )

    budget_s = float(budget_s)
    measurer = VariantMeasurer(
        kernel, inputs, max_eval_s=max(0.25, budget_s / 8.0)
    )
    if variants is None:
        fp = machine_fingerprint()
        variants = variant_space(
            cpus=cpu_count(), openmp=bool(fp.get("openmp"))
        )
    result = successive_halving(
        variants, measurer.evaluate, budget_s, clock=clock
    )

    einsum = str(kernel.plan.original)
    report = TuneReport(
        name=name,
        einsum=einsum,
        dtype=dtype,
        machine_class=fingerprint_class(),
        shape_key=measurer.shape_key,
        budget_s=budget_s,
        result=result,
        params=dict(params or {}),
        db_path=db_path,
    )
    best, best_stats = result.best, result.best_stats
    if db_path is not None and best is not None and best_stats is not None:
        passes = variant_codegen(best).passes
        enabled, signature = list(passes.enabled), passes.signature()
        shape_entry: Dict[str, object] = {
            "threads": best.threads,
            "passes": enabled,
            "tile_rows": best.tile_rows,
            "omp_strategy": best.omp_strategy,
            "signature": signature,
            "min_s": best_stats.best,
            "median_s": best_stats.median,
            "runs": best_stats.runs,
            "evaluations": result.evaluations,
            "budget_s": budget_s,
            "params": dict(params or {}),
        }
        if result.baseline_stats is not None:
            shape_entry["baseline_min_s"] = result.baseline_stats.best
            shape_entry["speedup_vs_baseline"] = result.speedup
        compile_entry = None
        if best.compile_axes() != BASELINE.compile_axes():
            compile_entry = {
                "passes": enabled,
                "tile_rows": best.tile_rows,
                "omp_strategy": best.omp_strategy,
                "signature": signature,
                "shape_class": measurer.shape_key,
                "speedup_vs_baseline": result.speedup,
            }
        tune_db.record_tuning(
            db_path,
            report.machine_class,
            machine_fingerprint(),
            tune_db.kernel_id(einsum, dtype),
            name,
            measurer.shape_key,
            shape_entry,
            compile_entry,
        )
        report.recorded = True
        # a process that tunes into its own active database should serve
        # the fresh entries without a restart
        from repro import tune as tune_mod

        tune_mod.reset()
    return report
