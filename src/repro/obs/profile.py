"""Per-nest kernel profiling: measured wall time per top-level nest.

With ``REPRO_PROFILE=1`` the C renderer wraps every top-level loop nest
in ``clock_gettime(CLOCK_MONOTONIC)`` timing that accumulates into a
static per-nest array inside the shared object, exported through
``repro_profile_*`` symbols.  A profiled build is a *different* artifact
from the production one on every level: the C source differs (so the
toolchain's content-addressed ``.so`` cache cannot alias them) and the
service cache key carries a ``profile`` field (so memory/disk caches
never hand a profiled kernel to a production caller or vice versa).

:func:`profile_kernel` runs a compiled kernel a few times on concrete
inputs and pairs each nest's measured seconds with the OpenMP strategy
the parallelisation phase chose for it.
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
    """One nest's measured time and strategy."""

    nest: int
    seconds: float          # total over the profiled calls
    per_call: float         # seconds / calls
    share: float            # fraction of the kernel's measured nest time
    #: the OpenMP strategy the nest's parallel body runs under (``None``:
    #: the nest is serial, or the parallelisation phase was off).
    strategy: Optional[str] = None

    def describe(self) -> str:
        return "nest %d: %8.3f ms/call  (%4.1f%% of nests)  %s" % (
            self.nest,
            1e3 * self.per_call,
            100.0 * self.share,
            self.strategy or "serial",
        )


def profile_kernel(
    kernel, tensors: Mapping[str, object], repeats: int = 10
) -> List[NestReport]:
    """Run *kernel* ``repeats`` times and report per-nest time.

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
    strategies = executable.strategies
    total = sum(profile.seconds) or 1.0
    return [
        NestReport(
            nest=nest,
            seconds=seconds,
            per_call=seconds / profile.calls,
            share=seconds / total,
            strategy=strategies[nest] if nest < len(strategies) else None,
        )
        for nest, seconds in enumerate(profile.seconds)
    ]


def format_report(reports: List[NestReport]) -> str:
    return "\n".join(report.describe() for report in reports)
