"""Tests for the benchmark harness and the figure drivers (tiny scales)."""

import json
import math
import os

import numpy as np
import pytest

from repro.bench import figures
from repro.bench.figures import (
    run_fig06_ssymv,
    run_fig07_bellmanford,
    run_fig08_syprd,
    run_fig09_ssyrk,
    run_fig10_ttm,
    run_fig11_mttkrp,
    run_table2,
)
from repro.bench.harness import (
    BenchResult,
    dump_json,
    format_table,
    geometric_mean,
    summarize_speedups,
    time_callable,
    time_callable_stats,
    time_compiled_kernel,
)
from repro.kernels.library import get_kernel
from tests.conftest import make_symmetric_matrix


def test_time_callable_returns_positive():
    t = time_callable(lambda: sum(range(100)), repeats=2, min_time=0.0)
    assert t > 0


def test_time_callable_stats_orders_best_and_median():
    stats = time_callable_stats(lambda: sum(range(200)), repeats=5, min_time=0.0)
    assert 0 < stats.best <= stats.median
    assert stats.runs >= 5


def test_time_compiled_kernel_excludes_preparation(rng):
    n = 30
    A = make_symmetric_matrix(rng, n, 0.3)
    x = rng.random(n)
    kernel = get_kernel("ssymv").compile()
    t = time_compiled_kernel(kernel, repeats=2, A=A, x=x)
    assert 0 < t < 1.0


def test_bench_result_speedups():
    r = BenchResult(
        figure="f", workload="w", params={},
        times={"naive": 2.0, "systec": 0.5, "taco": 1.0},
        expected_speedup=2.0,
    )
    assert r.speedups == {"systec": 4.0, "taco": 2.0}


def test_bench_result_no_naive_no_speedups():
    r = BenchResult("f", "w", {}, {"systec": 0.5}, 2.0)
    assert r.speedups == {}


def test_format_table_contains_rows():
    r = BenchResult("f", "saylr4", {}, {"naive": 1.0, "systec": 0.5}, 2.0)
    text = format_table([r], title="T")
    assert "saylr4" in text
    assert "2.00" in text  # the speedup
    assert "T" in text


def test_format_table_baseline_is_readable_milliseconds():
    """C-backend baselines are ~0.1 ms: ``%.4f`` seconds read ``0.0001``."""
    rows = [
        BenchResult("f", "a", {}, {"naive": 1.23456e-4, "systec": 1e-4}, 2.0),
        BenchResult("f", "b", {}, {"naive": 2.5, "systec": 1.0}, 2.0),
    ]
    header, _, a, b = format_table(rows).splitlines()
    assert header.split()[:2] == ["workload", "naive(ms)"]
    assert a.split()[:2] == ["a", "0.1235"]
    assert b.split()[:2] == ["b", "2500"]


def test_format_table_empty():
    assert format_table([]) == "(no results)"


def test_geometric_mean():
    assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)
    assert math.isnan(geometric_mean([]))


def test_summarize_speedups():
    rows = [
        BenchResult("f", "a", {}, {"naive": 1.0, "systec": 0.5}, 2.0),
        BenchResult("f", "b", {}, {"naive": 1.0, "systec": 0.125}, 2.0),
    ]
    assert summarize_speedups(rows) == pytest.approx(4.0)


def test_dump_json(tmp_path):
    rows = [BenchResult("f", "a", {"n": 3}, {"naive": 1.0, "systec": 0.5}, 2.0)]
    path = os.path.join(tmp_path, "r.json")
    dump_json(rows, path)
    data = json.load(open(path))
    assert data[0]["workload"] == "a"
    assert data[0]["speedups"]["systec"] == 2.0


# ----------------------------------------------------------------------
# figure drivers at tiny scale — each must produce sane, faster-than-naive
# results for the symmetric kernel
# ----------------------------------------------------------------------
TINY = dict(scale=0.01, names=("saylr4",), repeats=1)


def test_driver_fig06():
    rows = run_fig06_ssymv(with_library=False, **TINY)
    assert len(rows) == 1
    assert rows[0].times["naive"] > 0
    assert "systec" in rows[0].speedups
    assert "taco" in rows[0].speedups


def test_driver_fig07():
    rows = run_fig07_bellmanford(**TINY)
    assert rows and rows[0].expected_speedup == 2.0


def test_driver_fig08():
    rows = run_fig08_syprd(**TINY)
    assert rows and rows[0].speedups["systec"] > 0.5


def test_driver_fig09():
    rows = run_fig09_ssyrk(scale=0.01, names=("saylr4",), repeats=1)
    assert rows and rows[0].figure == "fig09"


def test_a_matrix_over_the_dense_output_budget_is_skipped(monkeypatch, capsys):
    """saylr4 (n = 35 at this scale) needs 35 x 35 doubles of SSYRK output,
    sherman5 (n = 33) 33 x 33: a budget between the two skips saylr4 with
    one line naming it and its bytes, and sherman5 still runs."""
    monkeypatch.setattr(figures, "DENSE_OUTPUT_BUDGET", 33 * 33 * 8)
    rows = run_fig09_ssyrk(scale=0.01, names=("saylr4", "sherman5"), repeats=1)
    assert [r.workload for r in rows] == ["sherman5"]
    assert capsys.readouterr().err == (
        "fig09: skipping saylr4, whose dense output needs %d bytes\n" % (35 * 35 * 8)
    )


def test_driver_fig10():
    rows = run_fig10_ttm(n=14, densities=(0.1,), ranks=(4,), repeats=1)
    assert len(rows) == 1
    assert rows[0].params["rank"] == 4


def test_driver_fig11():
    rows = run_fig11_mttkrp(
        orders=(3,), n=12, densities=(0.1,), ranks=(4,), repeats=1
    )
    assert len(rows) == 1
    assert rows[0].speedups["systec"] > 0.8  # symmetric should not lose badly


def test_driver_table2():
    rows = run_table2(scale=0.01)
    assert len(rows) == 30
    assert all(r["generated_nnz"] > 0 for r in rows)
