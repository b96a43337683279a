"""The variant space and the budgeted search over it.

The space is the discrete grid classic empirical autotuners walk
(ATLAS/FFTW-style): per (kernel, shape, machine) every axis the runtime
can actually steer — thread count, OpenMP emission strategy, and the
loop-pass set + tile block size from the cpasses pipeline.  The search
is successive halving under a wall-clock budget: every variant gets a
cheap first measurement, each rung keeps the faster half and doubles the
repeat count, so the budget concentrates on the contenders.

Everything here is deterministic and injectable — the evaluator and the
clock are callables — so the convergence tests run on a synthetic timing
stub with no real sleeps and no compiler.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.bench.harness import TimingStats

#: pinned tile-pass row-block sizes the grid explores beside the default
#: (sized at run time).
TILE_SIZES = (32, 64, 128)


class VariantRejected(Exception):
    """A variant's output was not bit-identical to the untuned baseline
    (or it failed to build/run).  Rejected variants are dropped from the
    search and recorded in the report — never timed, never selected."""


@dataclass(frozen=True)
class Variant:
    """One point of the tuning grid.

    ``passes`` is a ``$REPRO_PASSES`` spec string (the same language users
    pin by hand), ``tile_rows`` the tile-pass block size it runs with
    (0 = sized at run time), ``omp_strategy`` the emission mode,
    ``threads`` the runtime count.  The untuned baseline is ``Variant()``
    — the defaults every un-pinned process compiles and runs with,
    serially.
    """

    threads: int = 1
    omp_strategy: str = "auto"
    passes: str = "default"
    tile_rows: int = 0

    def compile_axes(self) -> Tuple[str, int, str]:
        """The slice of the variant that changes the generated C (and so
        requires a distinct build): everything but ``threads``."""
        return (self.passes, self.tile_rows, self.omp_strategy)

    def label(self) -> str:
        parts = ["passes=%s" % self.passes]
        if self.tile_rows:
            parts.append("tile=%d" % self.tile_rows)
        if self.omp_strategy != "auto":
            parts.append("omp=%s" % self.omp_strategy)
        parts.append("t%d" % self.threads)
        return ",".join(parts)


#: the untuned reference point every search must measure.
BASELINE = Variant()


def variant_space(
    cpus: int = 1,
    openmp: bool = False,
    tile_sizes: Sequence[int] = TILE_SIZES,
) -> List[Variant]:
    """The grid for one machine: compile-level axes x runtime threads.

    Compile axes: the default pass set, no passes at all, the tile pass
    off and at each pinned block size, and fission (the scatter-splitting
    prerequisite for better parallel scaling).  Runtime axes: serial plus
    the powers of two up to the visible cpu count; threaded variants
    additionally
    try the ``atomic`` scatter strategy — the bit-identity gate rejects
    it wherever atomics reorder a ``+`` reduction, which is exactly the
    measurement the guess-based default could never make.
    """
    compile_axes: List[Tuple[str, int]] = [
        ("default", 0), ("none", 0), ("default,-tile", 0)
    ]
    compile_axes += [("default,+tile", t) for t in tile_sizes]
    compile_axes.append(("default,+fission", 0))

    thread_counts = [1]
    if openmp and cpus > 1:
        count = 2
        while count < cpus:
            thread_counts.append(count)
            count *= 2
        thread_counts.append(cpus)

    variants: List[Variant] = []
    seen = set()
    for passes, tile_rows in compile_axes:
        for threads in thread_counts:
            strategies = ("auto",) if threads == 1 else ("auto", "atomic")
            for strategy in strategies:
                v = Variant(
                    threads=threads,
                    omp_strategy=strategy,
                    passes=passes,
                    tile_rows=tile_rows,
                )
                if v not in seen:
                    seen.add(v)
                    variants.append(v)
    # the baseline leads: rung 0 measures in order, so even a budget too
    # small for the full grid always times the reference point first
    variants.sort(key=lambda v: v != BASELINE)
    return variants


def parse_budget(text) -> float:
    """``"5"``, ``"5s"``, ``"2m"`` -> seconds (CLI ``--budget`` values)."""
    if isinstance(text, (int, float)):
        value = float(text)
    else:
        raw = str(text).strip().lower()
        scale = 1.0
        if raw.endswith("m"):
            raw, scale = raw[:-1], 60.0
        elif raw.endswith("s"):
            raw = raw[:-1]
        try:
            value = float(raw) * scale
        except ValueError:
            raise ValueError(
                "expected a budget like '5', '5s' or '2m', got %r" % (text,)
            )
    if value <= 0:
        raise ValueError("tuning budget must be positive, got %r" % (text,))
    return value


@dataclass
class SearchResult:
    """What one search measured and what it picked."""

    best: Optional[Variant]
    best_stats: Optional[TimingStats]
    baseline_stats: Optional[TimingStats]
    #: last measured stats per surviving variant.
    trials: Dict[Variant, TimingStats] = field(default_factory=dict)
    #: variant -> rejection reason (bit-identity / build failures).
    rejected: Dict[Variant, str] = field(default_factory=dict)
    evaluations: int = 0
    rungs: int = 0
    #: variants rung 0 never reached before the budget ran out.
    skipped: int = 0

    @property
    def speedup(self) -> float:
        """Best-over-baseline win (1.0 when either side is missing)."""
        if not self.best_stats or not self.baseline_stats:
            return 1.0
        if not self.best_stats.best:
            return 1.0
        return self.baseline_stats.best / self.best_stats.best


def successive_halving(
    variants: Sequence[Variant],
    evaluate: Callable[[Variant, int], TimingStats],
    budget_s: float,
    clock: Callable[[], float] = time.monotonic,
    min_repeats: int = 2,
) -> SearchResult:
    """Search *variants* under a wall-clock budget.

    ``evaluate(variant, repeats)`` returns a :class:`TimingStats` (or
    raises :class:`VariantRejected`); the search never calls it again for
    a variant once rejected.  Rung 0 measures the pool in order with
    ``min_repeats`` repeats until the deadline; each later rung keeps the
    faster half (by minimum time — the paper's statistic) and doubles the
    repeats, stopping when one variant remains or the budget is spent.

    A would-be winner other than the baseline must then hold its lead in
    a **final head-to-head duel**: alternating re-measurements of the
    baseline and the winner on the budget's reserved tail.  Rung order
    measures each variant in one block, so slow machine drift (frequency
    ramp-up, cache warming) can systematically flatter whichever variant
    runs later; interleaving cancels the drift, and only the duel's own
    minimums decide.  A winner that cannot beat the freshly re-measured
    baseline is demoted — the recorded speedup is one that replicates.
    """
    start = clock()
    deadline = start + float(budget_s)
    # reserve the budget's tail for the final duel so a grid big enough
    # to exhaust the rungs still gets its decision re-measured
    search_deadline = start + float(budget_s) * 0.75
    result = SearchResult(best=None, best_stats=None, baseline_stats=None)
    pool = list(variants)
    repeats = max(1, int(min_repeats))

    # rung 0: one cheap look at everything, budget permitting
    survivors: List[Variant] = []
    for index, variant in enumerate(pool):
        if index > 0 and clock() >= search_deadline:
            result.skipped = len(pool) - index
            break
        try:
            stats = evaluate(variant, repeats)
        except VariantRejected as exc:
            result.rejected[variant] = str(exc) or "rejected"
            continue
        result.evaluations += 1
        result.trials[variant] = stats
        survivors.append(variant)
    result.rungs = 1

    while len(survivors) > 1 and clock() < search_deadline:
        survivors.sort(key=lambda v: result.trials[v].best)
        survivors = survivors[: max(1, (len(survivors) + 1) // 2)]
        if len(survivors) <= 1:
            break
        repeats *= 2
        for variant in survivors:
            if clock() >= search_deadline:
                break
            try:
                stats = evaluate(variant, repeats)
            except VariantRejected as exc:  # flaky rejection on re-measure
                result.rejected[variant] = str(exc) or "rejected"
                result.trials.pop(variant, None)
                continue
            result.evaluations += 1
            result.trials[variant] = stats
        survivors = [v for v in survivors if v in result.trials]
        result.rungs += 1

    result.baseline_stats = result.trials.get(BASELINE)
    if result.trials:
        best = min(result.trials, key=lambda v: result.trials[v].best)
        result.best = best
        result.best_stats = result.trials[best]

    # the final duel: winner vs freshly re-measured baseline, alternating
    if (
        result.best is not None
        and result.best != BASELINE
        and BASELINE in result.trials
        and clock() < deadline
    ):
        contender = result.best
        duel: Dict[Variant, TimingStats] = {}
        rounds = 0
        while rounds < 3 and clock() < deadline:
            demoted = False
            # alternate who goes first so monotone drift across the duel
            # cannot systematically favor the later-measured side either
            order = (
                (BASELINE, contender)
                if rounds % 2 == 0
                else (contender, BASELINE)
            )
            for variant in order:
                try:
                    stats = evaluate(variant, repeats)
                except VariantRejected as exc:  # flaky contender: demote
                    result.rejected[variant] = str(exc) or "rejected"
                    result.trials.pop(variant, None)
                    demoted = True
                    break
                result.evaluations += 1
                held = duel.get(variant)
                if held is None or stats.best < held.best:
                    duel[variant] = stats
            if demoted:
                duel.pop(contender, None)
                break
            rounds += 1
        if BASELINE in duel:
            result.trials[BASELINE] = duel[BASELINE]
            result.baseline_stats = duel[BASELINE]
            if contender in duel:
                result.trials[contender] = duel[contender]
            # only the duel's own interleaved minimums decide, and the
            # contender must win by a real margin — a database entry that
            # buys under 2% is noise, and the default build needs no entry
            if (
                contender not in duel
                or duel[BASELINE].best <= duel[contender].best * 1.02
            ):
                result.best = BASELINE
                result.best_stats = duel[BASELINE]
            else:
                result.best_stats = duel[contender]
            result.rungs += 1
    return result
