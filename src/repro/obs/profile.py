"""Per-nest kernel profiling: measured wall time per top-level nest.

:func:`profile_kernel` renders a compiled kernel's lowered program again
with every top-level loop nest wrapped in
``clock_gettime(CLOCK_MONOTONIC)`` timing that accumulates into a static
per-nest array inside the shared object, exported through
``repro_profile_*`` symbols.  That instrumented object is built into the
process build directory and nowhere else: it is outside every cache key,
store entry and wire spec, and the kernel's own (production) object
never carries the symbols.  Its C source differs from the production
one, so the content-addressed object cache cannot alias the two.

The instrumented object runs behind the same ``prepare`` and
:class:`~repro.codegen.executor.ExecutionPlan` validation as the
kernel's own plans, and each nest's measured seconds are paired with the
OpenMP strategy the parallelisation phase chose for it.
"""

from __future__ import annotations

import copy
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
    """Run *kernel* ``repeats`` times, instrumented, and report per-nest
    time.

    *kernel* is any :class:`~repro.core.compiler.CompiledKernel`; *tensors*
    the argument mapping its einsum needs.  The instrumented object is
    built from ``kernel.lowered`` on the C backend whatever backend the
    kernel runs on; ``kernel`` itself is not touched.  Raises
    :class:`~repro.codegen.backends.base.BackendUnavailableError` on a
    host without a C toolchain.
    """
    from repro.codegen.backends import ctoolchain
    from repro.codegen.backends.base import BackendUnavailableError
    from repro.codegen.backends.c import render_c_full
    from repro.codegen.backends.cexec import build

    if ctoolchain.probe() is None:
        raise BackendUnavailableError(
            "kernel profiling builds an instrumented C object and needs "
            "a working C compiler (set $REPRO_CC)"
        )
    lowered = kernel.lowered
    executable = build(lowered, render_c_full(lowered, None, profile=True))
    # a copy of the kernel's binder around the instrumented object: the
    # same prepare and ExecutionPlan checks, and the kernel keeps its own
    # executable
    bound = copy.copy(kernel.bound)
    bound.executable, bound.backend_name = executable, "c"
    prepared, shape = kernel.prepare(**tensors)
    plan = bound.plan_prepared(prepared, shape)
    executable.profile_reset()
    for _ in range(max(1, int(repeats))):
        plan()
    profile = executable.nest_profile()
    if profile.calls == 0:
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
