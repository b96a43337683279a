"""The persistent autotuner: search, database, oracle, and wiring."""

from __future__ import annotations

import json
import os
import threading

import numpy as np
import pytest

from repro import tune
from repro.bench.harness import TimingStats, fingerprint_class
from repro.codegen.backends import get_backend
from repro.tune import db as tune_db
from repro.tune.oracle import TuningOracle, load_oracle
from repro.tune.search import (
    BASELINE,
    Variant,
    VariantRejected,
    parse_budget,
    successive_halving,
    variant_space,
)

from conftest import make_symmetric_matrix

HAVE_CC = get_backend("c").is_available()
needs_cc = pytest.mark.skipif(not HAVE_CC, reason="no working C toolchain")


@pytest.fixture(autouse=True)
def _fresh_oracle():
    """Every test starts and ends with no cached oracle."""
    tune.reset()
    yield
    tune.reset()


# ----------------------------------------------------------------------
# the search: deterministic convergence on a synthetic timing stub
# ----------------------------------------------------------------------
class FakeClock:
    """A monotonic clock whose time only moves when evaluations charge it."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def _fake_evaluator(clock, costs, cost_per_eval=1.0, noise=None):
    """evaluate(variant, repeats) stub: advances the fake clock and
    returns deterministic timings from a cost table (no real sleeps)."""
    calls = []

    def evaluate(variant, repeats):
        calls.append((variant, repeats))
        clock.now += cost_per_eval
        base = costs[variant.compile_axes()] / variant.threads
        wobble = noise(variant, repeats) if noise else 0.0
        return TimingStats(
            best=base + wobble, median=base + wobble, runs=repeats
        )

    evaluate.calls = calls
    return evaluate


def _grid():
    """A small deterministic space: baseline, a slow variant, a fast one."""
    return [
        BASELINE,
        Variant(passes="none"),
        Variant(passes="default,+tile", tile_rows=64),
    ]


def _costs(fast=("default,+tile", 64, "auto")):
    costs = {
        BASELINE.compile_axes(): 1.0,
        ("none", 0, "auto"): 1.5,
        ("default,+tile", 64, "auto"): 1.0,
    }
    costs[fast] = 0.4
    return costs


def test_search_converges_on_the_fastest_variant():
    clock = FakeClock()
    evaluate = _fake_evaluator(clock, _costs())
    result = successive_halving(_grid(), evaluate, budget_s=100.0, clock=clock)
    assert result.best == Variant(passes="default,+tile", tile_rows=64)
    assert result.best_stats.best == pytest.approx(0.4)
    assert result.baseline_stats.best == pytest.approx(1.0)
    assert result.speedup == pytest.approx(2.5)
    assert result.rungs >= 2  # the halving actually ran
    # later rungs double the repeats of the survivors
    assert max(r for _, r in evaluate.calls) > min(r for _, r in evaluate.calls)


def test_search_respects_the_budget():
    clock = FakeClock()
    evaluate = _fake_evaluator(clock, _costs(), cost_per_eval=1.0)
    # budget admits the baseline plus one more rung-0 measurement
    result = successive_halving(_grid(), evaluate, budget_s=2.0, clock=clock)
    assert result.evaluations == 2
    assert result.skipped == 1  # the unvisited tail is reported, not hidden
    assert result.baseline_stats is not None  # the reference always runs


def test_search_drops_rejected_variants_permanently():
    clock = FakeClock()
    poisoned = Variant(passes="default,+tile", tile_rows=64)
    inner = _fake_evaluator(clock, _costs())

    def evaluate(variant, repeats):
        if variant == poisoned:
            clock.now += 1.0
            raise VariantRejected("output not bit-identical")
        return inner(variant, repeats)

    result = successive_halving(_grid(), evaluate, budget_s=100.0, clock=clock)
    assert poisoned in result.rejected
    assert "bit-identical" in result.rejected[poisoned]
    assert result.best != poisoned  # the fastest-on-paper variant lost
    assert result.best == BASELINE  # next-fastest surviving variant wins


def test_final_duel_demotes_a_winner_that_does_not_replicate():
    """A contender whose rung-time advantage was measurement drift (fast
    early samples that later re-measurements cannot reproduce) must lose
    the final interleaved duel — only the duel's own minimums decide, so
    the stale fast sample cannot save it."""
    clock = FakeClock()
    tile = Variant(passes="default,+tile", tile_rows=64)
    calls = []

    def evaluate(variant, repeats):
        calls.append(variant)
        clock.now += 1.0
        if variant == tile:
            # flattered early, true cost (same as baseline) thereafter
            t = 0.5 if len(calls) <= 4 else 1.0
        elif variant.passes == "none":
            t = 1.5
        else:
            t = 1.0
        return TimingStats(best=t, median=t, runs=repeats)

    result = successive_halving(_grid(), evaluate, budget_s=100.0, clock=clock)
    assert result.best == BASELINE
    assert result.best_stats.best == pytest.approx(1.0)
    assert result.speedup == pytest.approx(1.0)
    # the duel actually ran, interleaved: its evaluations alternate sides
    duel_calls = calls[-4:]
    assert tile in duel_calls and BASELINE in duel_calls


def test_final_duel_requires_a_real_margin():
    """A sub-2% duel win is noise — no database entry for the contender."""
    clock = FakeClock()
    tile = Variant(passes="default,+tile", tile_rows=64)

    def evaluate(variant, repeats):
        clock.now += 1.0
        t = {tile: 0.99}.get(variant, 1.5 if variant.passes == "none" else 1.0)
        return TimingStats(best=t, median=t, runs=repeats)

    result = successive_halving(_grid(), evaluate, budget_s=100.0, clock=clock)
    assert result.best == BASELINE  # 1% is inside the noise margin


def test_variant_space_baseline_first_and_serial_without_openmp():
    space = variant_space(cpus=8, openmp=False)
    assert space[0] == BASELINE
    assert all(v.threads == 1 for v in space)
    assert len(space) == len(set(space))  # no duplicate grid points
    threaded = variant_space(cpus=8, openmp=True)
    assert {v.threads for v in threaded} == {1, 2, 4, 8}
    # the atomic scatter strategy is only worth trying with a team
    assert all(v.threads > 1 for v in threaded if v.omp_strategy == "atomic")


def test_parse_budget():
    assert parse_budget("5") == 5.0
    assert parse_budget("5s") == 5.0
    assert parse_budget("2m") == 120.0
    assert parse_budget(7) == 7.0
    with pytest.raises(ValueError):
        parse_budget("fast")
    with pytest.raises(ValueError):
        parse_budget("0s")


# ----------------------------------------------------------------------
# the database: keys, merge semantics, concurrent writers
# ----------------------------------------------------------------------
def test_shape_class_buckets_by_rounded_log2():
    assert tune_db.shape_class([2000, 2000], 150000) == "e11x11/w17"
    # nearby sizes share the bucket; the next crossover size does not
    assert tune_db.shape_class([2400, 2400], 160000) == tune_db.shape_class(
        [2000, 2000], 150000
    )
    assert tune_db.shape_class([8000, 8000], 150000) != tune_db.shape_class(
        [2000, 2000], 150000
    )
    assert tune_db.shape_class([], None) == "e-/w-"
    assert tune_db.shape_class([0], 0) == "e0/w0"  # degenerate extents clamp


def test_machine_class_parse_roundtrip():
    assert tune_db.parse_machine_class("linux-x86_64-c4") == ("linux-x86_64", 4)
    assert tune_db.parse_machine_class("no-cpu-suffix") is None
    cls = fingerprint_class()
    parsed = tune_db.parse_machine_class(cls)
    assert parsed is not None and parsed[1] >= 1


def _record(path, machine_class, kernel_key, shape_key, threads=2, **extra):
    tune_db.record_tuning(
        path,
        machine_class,
        {"cpus": 4},
        kernel_key,
        "k",
        shape_key,
        dict({"threads": threads}, **extra),
    )


def test_record_tuning_merges_and_roundtrips(tmp_path):
    path = str(tmp_path / "TUNED.json")
    _record(path, "linux-x86_64-c4", "a|float64", "e11x11/w17", threads=2)
    _record(path, "linux-x86_64-c4", "b|float64", "e8x8/w10", threads=1)
    _record(path, "linux-x86_64-c4", "a|float64", "e13x13/w20", threads=4)
    doc = tune_db.load_db(path)
    kernels = doc["machines"]["linux-x86_64-c4"]["kernels"]
    assert set(kernels) == {"a|float64", "b|float64"}
    assert set(kernels["a|float64"]["shapes"]) == {"e11x11/w17", "e13x13/w20"}
    # a re-tune overwrites only its shape
    _record(path, "linux-x86_64-c4", "a|float64", "e11x11/w17", threads=8)
    doc = tune_db.load_db(path)
    shapes = doc["machines"]["linux-x86_64-c4"]["kernels"]["a|float64"]["shapes"]
    assert shapes["e11x11/w17"]["threads"] == 8
    assert shapes["e13x13/w20"]["threads"] == 4


def test_load_db_rejects_wrong_versions(tmp_path):
    path = tmp_path / "TUNED.json"
    assert tune_db.load_db(str(path)) is None  # absent
    path.write_text("not json")
    assert tune_db.load_db(str(path)) is None  # unreadable
    path.write_text(json.dumps({"version": 999, "machines": {}}))
    assert tune_db.load_db(str(path)) is None  # future schema


def test_concurrent_writers_serialize_through_the_lock(tmp_path):
    """N threads recording distinct kernels all land in the merged db."""
    path = str(tmp_path / "TUNED.json")
    errors = []

    def write(i):
        try:
            _record(
                path, "linux-x86_64-c4", "k%d|float64" % i, "e11x11/w17",
                threads=i + 1,
            )
        except Exception as exc:  # pragma: no cover - failure reporting
            errors.append(exc)

    threads = [threading.Thread(target=write, args=(i,)) for i in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    doc = tune_db.load_db(path)
    kernels = doc["machines"]["linux-x86_64-c4"]["kernels"]
    assert len(kernels) == 8
    assert not os.path.exists(path + ".lock")  # every writer released


# ----------------------------------------------------------------------
# the oracle: machine matching, lookups, graceful fallback
# ----------------------------------------------------------------------
def _doc(machine_class="linux-x86_64-c4", threads=4, compile_entry=None):
    kernel = {
        "name": "ssymv",
        "shapes": {"e11x11/w17": {"threads": threads}},
    }
    if compile_entry is not None:
        kernel["compile"] = compile_entry
    return {
        "version": tune_db.TUNED_VERSION,
        "machines": {
            machine_class: {
                "fingerprint": {},
                "kernels": {"y[i] += A[i, j] * x[j]|float64": kernel},
            }
        },
    }


def test_oracle_exact_hit_and_shape_miss():
    oracle = TuningOracle(_doc(), machine_class="linux-x86_64-c4")
    assert oracle.exact_machine
    hit = oracle.threads_for(
        "y[i] += A[i, j] * x[j]", "float64", [2000, 2000], 150000, cpu=8
    )
    assert hit == 4
    miss = oracle.threads_for(
        "y[i] += A[i, j] * x[j]", "float64", [64, 64], 400, cpu=8
    )
    assert miss is None  # different shape bucket: cost model decides
    stats = oracle.stats_dict()
    assert stats["lookups"] == 2
    assert stats["tuned"] == 1 and stats["fallbacks"] == 1


def test_oracle_memoizes_repeated_lookups_with_counters_advancing():
    """threads_for sits on the per-run dispatch path: a repeated lookup of
    one (kernel, shape) is a memo hit — same answer, counters still move."""
    oracle = TuningOracle(_doc(), machine_class="linux-x86_64-c4")
    args = ("y[i] += A[i, j] * x[j]", "float64", [2000, 2000], 150000, 8)
    first = oracle.threads_for(*args)
    second = oracle.threads_for(*args)
    assert first == second == 4
    stats = oracle.stats_dict()
    assert stats["lookups"] == 2 and stats["tuned"] == 2


def test_oracle_clamps_tuned_threads_to_the_visible_machine():
    oracle = TuningOracle(
        _doc(threads=16), machine_class="linux-x86_64-c4"
    )
    assert (
        oracle.threads_for(
            "y[i] += A[i, j] * x[j]", "float64", [2000, 2000], 150000, cpu=2
        )
        == 2
    )


def test_oracle_nearest_machine_class_same_os_isa():
    oracle = TuningOracle(
        _doc(machine_class="linux-x86_64-c8"),
        machine_class="linux-x86_64-c4",
    )
    assert not oracle.exact_machine
    assert oracle.matched_class == "linux-x86_64-c8"
    assert (
        oracle.threads_for(
            "y[i] += A[i, j] * x[j]", "float64", [2000, 2000], 150000, cpu=8
        )
        == 4
    )


def test_oracle_unknown_fingerprint_falls_back_to_cost_model():
    """A db recorded on a foreign OS/ISA never matches — every lookup is
    a counted fallback, not an error."""
    oracle = TuningOracle(
        _doc(machine_class="darwin-arm64-c8"),
        machine_class="linux-x86_64-c4",
    )
    assert oracle.matched_class is None
    assert (
        oracle.threads_for(
            "y[i] += A[i, j] * x[j]", "float64", [2000, 2000], 150000, cpu=8
        )
        is None
    )
    assert oracle.stats_dict()["fallbacks"] == 1


def test_load_oracle_absent_db_is_none(tmp_path):
    assert load_oracle(str(tmp_path / "missing.json")) is None


# ----------------------------------------------------------------------
# the module-level switch and env knobs
# ----------------------------------------------------------------------
def test_active_is_none_without_env(monkeypatch):
    monkeypatch.delenv("REPRO_TUNED", raising=False)
    assert tune.active() is None
    assert tune.stats_dict() == {"configured": False, "enabled": False}


def test_active_loads_from_env_and_unsetting_turns_it_off(tmp_path, monkeypatch):
    path = str(tmp_path / "TUNED.json")
    cls = fingerprint_class()
    _record(path, cls, "a|float64", "e11x11/w17")
    monkeypatch.setenv("REPRO_TUNED", path)
    tune.reset()
    assert tune.active() is not None
    monkeypatch.delenv("REPRO_TUNED")  # the off switch *is* the unset state
    tune.reset()
    assert tune.active() is None
    assert tune.stats_dict()["enabled"] is False


def test_active_with_absent_db_path(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_TUNED", str(tmp_path / "nope.json"))
    tune.reset()
    assert tune.active() is None  # enabled but unreadable: off, not an error
    assert tune.stats_dict() == {"configured": False, "enabled": True}


def test_compile_overrides_env_precedence(monkeypatch):
    """The one resolver: tuned entries fill only the axes the environment
    left unset, and only for the kernel they were measured on."""
    from repro.codegen.backends.base import CodegenConfig
    from repro.codegen.backends.cpasses import DEFAULT_ON, PassConfig

    compile_entry = {
        "passes": ["fission", "tile"],
        "tile_rows": 64,
        "omp_strategy": "serial",
    }
    for name in ("REPRO_PASSES", "REPRO_OMP_STRATEGY", "REPRO_PROFILE"):
        monkeypatch.delenv(name, raising=False)
    tune.configure(None)
    tune._oracle = TuningOracle(
        _doc(compile_entry=compile_entry), machine_class="linux-x86_64-c4"
    )
    einsum = "y[i] += A[i, j] * x[j]"
    tuned = PassConfig(enabled=("fission", "tile"), tile_rows=64)
    assert CodegenConfig.resolve(einsum, "float64") == CodegenConfig(
        "serial", False, tuned
    )
    # an explicit pass pin silences the tuned pass config, not the strategy
    monkeypatch.setenv("REPRO_PASSES", "none")
    assert CodegenConfig.resolve(einsum, "float64") == CodegenConfig(
        "serial", False, PassConfig(())
    )
    monkeypatch.delenv("REPRO_PASSES")
    monkeypatch.setenv("REPRO_OMP_STRATEGY", "atomic")
    assert CodegenConfig.resolve(einsum, "float64") == CodegenConfig(
        "atomic", False, tuned
    )
    # unknown kernels and anonymous (einsum-less) compiles never override
    monkeypatch.delenv("REPRO_OMP_STRATEGY")
    untuned = CodegenConfig("auto", False, PassConfig(DEFAULT_ON))
    assert CodegenConfig.resolve("z[i] += B[i, j]", "float64") == untuned
    assert CodegenConfig.resolve(None, "float64") == untuned
    assert CodegenConfig.resolve(einsum, "float32") == untuned


# ----------------------------------------------------------------------
# end-to-end wiring (C backend): measurer gate, plan-bind lookups
# ----------------------------------------------------------------------
def _ssymv_kernel_and_inputs(rng, n=64):
    from repro.core.config import DEFAULT
    from repro.kernels.library import get_kernel

    spec = get_kernel("ssymv")
    A = make_symmetric_matrix(rng, n, 0.3)
    x = rng.random(n)
    return spec, {"A": A, "x": x}


def _baseline_kernel(spec):
    from repro.core.compiler import compile_kernel
    from repro.core.config import DEFAULT
    from repro.tune.measure import variant_codegen

    return compile_kernel(
        spec.einsum,
        symmetric=dict(spec.symmetric),
        loop_order=spec.loop_order,
        formats=dict(spec.formats),
        options=DEFAULT.but(backend="c"),
        codegen=variant_codegen(BASELINE),
    )


@needs_cc
def test_measurer_builds_variants_by_value_not_by_environment(rng, monkeypatch):
    """A search never writes ``os.environ`` (it used to pin three
    variables around every cc run), ignores what the environment says,
    and each variant runs exactly the source its own config renders."""
    from repro.codegen.backends.c import render_c_full
    from repro.tune.measure import VariantMeasurer, variant_codegen

    monkeypatch.setenv("REPRO_PASSES", "all")
    monkeypatch.setenv("REPRO_OMP_STRATEGY", "serial")
    spec, inputs = _ssymv_kernel_and_inputs(rng)
    kernel = _baseline_kernel(spec)
    before = dict(os.environ)
    measurer = VariantMeasurer(kernel, inputs, max_eval_s=0.2)
    variants = [
        BASELINE,
        Variant(passes="none"),
        Variant(passes="default,+tile", tile_rows=32),
        Variant(passes="default,+fission", omp_strategy="atomic"),
    ]
    result = successive_halving(variants, measurer.evaluate, budget_s=1.0)
    assert result.evaluations >= len(variants) and not result.rejected
    assert dict(os.environ) == before
    for variant in variants:
        built = measurer._builds[variant.compile_axes()]
        label = "tune-%s" % variant.passes if variant != BASELINE else None
        rendered = render_c_full(kernel.lowered, label, variant_codegen(variant))
        assert built.source == rendered.source
    sources = {measurer._builds[v.compile_axes()].source for v in variants}
    assert len(sources) == len(variants)


@needs_cc
def test_measurer_rejects_poisoned_variants(rng):
    from repro.tune.measure import VariantMeasurer

    spec, inputs = _ssymv_kernel_and_inputs(rng)
    kernel = _baseline_kernel(spec)
    measurer = VariantMeasurer(kernel, inputs, max_eval_s=0.2)
    good = Variant(passes="none")
    stats = measurer.evaluate(good, repeats=1)
    assert stats.runs >= 1
    # poison the baseline reference: any *new* variant must now be
    # rejected by the bit-identity gate before it is ever timed
    measurer.baseline_raw = measurer.baseline_raw + 1.0
    with pytest.raises(VariantRejected, match="bit-identical"):
        measurer.runner(Variant(passes="default,+tile", tile_rows=32))


@needs_cc
def test_tune_kernel_records_and_oracle_serves_it(rng, tmp_path, monkeypatch):
    from repro.core.config import DEFAULT
    from repro.obs import trace as obs_trace
    from repro.tune.measure import tune_kernel

    for name in ("REPRO_PASSES", "REPRO_OMP_STRATEGY"):
        monkeypatch.delenv(name, raising=False)
    path = str(tmp_path / "TUNED.json")
    spec, inputs = _ssymv_kernel_and_inputs(rng)
    report = tune_kernel(
        spec, inputs, budget_s=3.0, db_path=path, name="ssymv"
    )
    assert report.recorded
    assert report.result.best is not None
    assert report.result.baseline_stats is not None

    tune.configure(path)
    kernel = spec.compile(options=DEFAULT.but(backend="c"))
    with obs_trace.tracing() as rec:
        plan = kernel.execution_plan(threads="auto", **inputs)
    lookups = [e for e in rec.events if e.name == "tune:lookup"]
    assert lookups and lookups[0].args["origin"] == "tuned"
    assert plan.threads == report.result.best.threads
    stats = tune.stats_dict()
    assert stats["configured"] and stats["tuned"] >= 1


@needs_cc
def test_no_lookup_spans_without_a_database(rng, monkeypatch):
    from repro.core.config import DEFAULT
    from repro.obs import trace as obs_trace

    monkeypatch.delenv("REPRO_TUNED", raising=False)
    tune.reset()
    spec, inputs = _ssymv_kernel_and_inputs(rng)
    kernel = spec.compile(options=DEFAULT.but(backend="c"))
    with obs_trace.tracing() as rec:
        kernel.execution_plan(threads="auto", **inputs)
    assert not [e for e in rec.events if e.name == "tune:lookup"]


@needs_cc
def test_cache_key_tracks_tuned_compile_overrides(monkeypatch):
    """The service cache key and the renderer consult the same override:
    activating a tuned pass set must change the key (no aliasing between
    tuned and untuned builds of one einsum)."""
    from repro.service.keys import cache_key

    for name in ("REPRO_PASSES", "REPRO_OMP_STRATEGY"):
        monkeypatch.delenv(name, raising=False)
    monkeypatch.delenv("REPRO_TUNED", raising=False)  # hermetic reference key
    tune.configure(None)
    from repro.core.config import DEFAULT

    options = DEFAULT.but(backend="c")
    einsum = "y[i] += A[i, j] * x[j]"
    untuned = cache_key(einsum, symmetric={"A": True}, options=options)
    tune._oracle = TuningOracle(
        _doc(
            compile_entry={
                "passes": ["fuse", "tile", "simd"],
                "tile_rows": 64,
                "omp_strategy": "auto",
            }
        ),
        machine_class="linux-x86_64-c4",
    )
    tuned = cache_key(einsum, symmetric={"A": True}, options=options)
    assert tuned != untuned
    # an explicit env pin restores the untuned key (the user overrode it)
    monkeypatch.setenv("REPRO_PASSES", "default")
    pinned = cache_key(einsum, symmetric={"A": True}, options=options)
    assert pinned == untuned
