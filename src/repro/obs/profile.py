"""Per-nest kernel profiling: measured wall time vs. the cost model.

With ``REPRO_PROFILE=1`` the C renderer wraps every top-level loop nest
in ``clock_gettime(CLOCK_MONOTONIC)`` timing that accumulates into a
static per-nest array inside the shared object, exported through
``repro_profile_*`` symbols.  A profiled build is a *different* artifact
from the production one on every level: the C source differs (so the
toolchain's content-addressed ``.so`` cache cannot alias them) and the
service cache key carries a ``profile`` field (so memory/disk caches
never hand a profiled kernel to a production caller or vice versa).

:func:`profile_kernel` runs a compiled kernel a few times on concrete
inputs and pairs each nest's measured seconds with the parallelisation
phase's :class:`~repro.codegen.passes.parallelize.NestWork` — the OpenMP
strategy it chose for the nest and its work estimate for the same
arguments — the ground truth PR 5's ``threads="auto"`` heuristic was
calibrated against, now measurable per nest instead of guessed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping, Optional, Tuple


@dataclass(frozen=True)
class NestProfile:
    """Raw accumulators read back from a profiled shared object."""

    #: accumulated seconds per top-level nest, in emission order.
    seconds: Tuple[float, ...]
    #: kernel invocations since the last reset.
    calls: int


@dataclass(frozen=True)
class NestReport:
    """One nest's measured time against its cost-model estimate."""

    nest: int
    seconds: float          # total over the profiled calls
    per_call: float         # seconds / calls
    share: float            # fraction of the kernel's measured nest time
    estimated_work: Optional[float]  # NestWork scalar-update estimate
    seconds_per_update: Optional[float]
    #: the OpenMP strategy the nest's parallel body runs under (``None``:
    #: the nest is serial, or the parallelisation phase was off).
    strategy: Optional[str] = None

    def describe(self) -> str:
        est = (
            "~%.3g updates, %.2f ns/update"
            % (self.estimated_work, 1e9 * self.seconds_per_update)
            if self.estimated_work
            else "no work estimate"
        )
        return "nest %d: %8.3f ms/call  (%4.1f%% of nests)  %-10s  %s" % (
            self.nest,
            1e3 * self.per_call,
            100.0 * self.share,
            self.strategy or "serial",
            est,
        )


def profile_kernel(
    kernel, tensors: Mapping[str, object], repeats: int = 10
) -> List[NestReport]:
    """Run *kernel* ``repeats`` times and report per-nest time vs. work.

    *kernel* is a :class:`~repro.core.compiler.CompiledKernel` built
    with ``REPRO_PROFILE=1`` on the C backend; *tensors* the argument
    mapping its einsum needs.  Raises ``RuntimeError`` for unprofiled
    builds (nothing to read).
    """
    executable = kernel.bound.executable
    if not getattr(executable, "profiled", False):
        raise RuntimeError(
            "kernel build is not profiled: compile with REPRO_PROFILE=1 "
            "on the C backend to get per-nest instrumentation"
        )
    plan = kernel.execution_plan(**tensors)
    executable.profile_reset()
    for _ in range(max(1, int(repeats))):
        plan()
    profile = executable.nest_profile()
    if profile is None or profile.calls == 0:
        raise RuntimeError("profiled kernel recorded no calls")
    model = getattr(executable, "profile_model", ())
    vlen = getattr(executable, "_vlen", None)
    total = sum(profile.seconds) or 1.0
    reports: List[NestReport] = []
    for nest, seconds in enumerate(profile.seconds):
        term = model[nest] if nest < len(model) else None
        work = term.resolve(plan.prepared, vlen) if term is not None else None
        per_call = seconds / profile.calls
        reports.append(
            NestReport(
                nest=nest,
                seconds=seconds,
                per_call=per_call,
                share=seconds / total,
                estimated_work=work,
                seconds_per_update=(per_call / work) if work else None,
                strategy=term.strategy if term is not None else None,
            )
        )
    return reports


def format_report(reports: List[NestReport]) -> str:
    return "\n".join(report.describe() for report in reports)
