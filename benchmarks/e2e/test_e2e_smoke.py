"""Smoke test of the end-to-end benchmark (collected by tier-1).

No timing is asserted: the test checks that ``BENCHMARK.json`` is inside the
benchmark contract's limits, that ``--smoke`` emits every workload and metric
it names, that equal seeds give byte-identical inputs, that a corrupted output
shows in the reported failure share, and that a run - finished or terminated -
leaves neither a process nor a directory behind.
"""

from __future__ import annotations

import json
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from benchmarks.e2e import harness, inputs, sizes

HERE = Path(__file__).resolve().parent
SPEC = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


@pytest.fixture(scope="module")
def cc():
    from repro.codegen.backends import ctoolchain

    if ctoolchain.probe() is None:
        pytest.skip("the benchmark needs a C compiler")


def run_py(*args, timeout=170):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py")] + list(args),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=timeout,
    )
    assert done.returncode == 0, done.stderr[-4000:]
    return [json.loads(line) for line in done.stdout.strip().splitlines()]


def nothing_left_behind():
    assert not list((harness.ROOT / harness.WORK).glob("run-*"))
    assert not harness.stragglers(str(harness.WORK) + "/run-")


def test_benchmark_json_is_inside_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    names = [m["name"] for m in metrics] + [w["name"] for w in SPEC["workloads"]]
    assert all(NAME.match(n) for n in names), names
    assert len(set(names)) == len(names)
    assert all(UNIT.match(m["unit"]) and m["better"] in ("lower", "higher") for m in metrics)
    assert 2 <= len(SPEC["workloads"]) <= 8 and len(SPEC["per_layer"]) <= 128
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())  # the contract: the largest bound
    assert SPEC["paths"] == ["benchmarks/e2e"] and SPEC["command"][-1] == "benchmarks/e2e/run.py"
    # every run the gating harness makes, set-up included, fits its time limit
    runs = 4 + 22 * len(SPEC["workloads"])
    assert runs * (SPEC["run_seconds"] + sizes.RUN_OVERHEAD_SECONDS) <= 3420


def test_equal_seeds_give_byte_identical_inputs():
    tables = {"steady": sizes.TWIN_SIZES, "fresh": sizes.smoke(sizes.FRESH_SIZES)}
    first = {label: inputs.digest(inputs.generate(t, 7, label)) for label, t in tables.items()}
    again = {label: inputs.digest(inputs.generate(t, 7, label)) for label, t in tables.items()}
    other = {label: inputs.digest(inputs.generate(t, 8, label)) for label, t in tables.items()}
    assert first == again
    assert all(first[label] != other[label] for label in tables)


def test_refused_and_wrong_operations_count_as_failed():
    calls = []

    def op():
        calls.append(1)
        out = np.arange(16.0)
        if len(calls) == 4:
            out[3] += 1e-9  # one flipped element in one operation
        return [out]

    loop = harness.closed_loop(op, count=6, warmup=1, canary=harness.Canary())
    assert (loop.attempted, loop.failed) == (6, 1)

    def refused():
        raise ValueError("refused")

    assert harness.closed_loop(refused, count=3, warmup=0, canary=harness.Canary()).failed == 3


def test_corrupted_output_shows_in_the_reported_failure_share(cc):
    (result,) = run_py("--smoke", "--workload", "kernel_steady", "--seed", "5", "--corrupt-op", "1")
    assert not result["correct"] and result["failed"] == 1
    assert result["metrics"]["ok_share"]["value"] == 1.0 - 1.0 / result["attempted"]
    nothing_left_behind()


def test_smoke_emits_every_workload_and_metric(cc):
    results = {(r["workload"], r["trace"]): r for r in run_py("--smoke", "--seed", "5")}
    wanted = {0: {m["name"] for m in SPEC["end_to_end"]}, 1: {m["name"] for m in SPEC["per_layer"]}}
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    assert set(results) == {(w["name"], t) for w in SPEC["workloads"] for t in (0, 1)}
    for (workload, trace), result in results.items():
        assert set(result["metrics"]) == wanted[trace], (workload, trace)
        assert all(m["unit"] == units[n] for n, m in result["metrics"].items())
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, (workload, result)
        assert trace or result["metrics"]["ok_share"]["value"] == 1.0
    nothing_left_behind()


def terminated_midway(args, started) -> subprocess.Popen:
    """Start ``run.py`` with *args*, SIGTERM it once ``started()`` holds."""
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "run.py")] + args, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
    )
    deadline = time.monotonic() + 60
    while not started():
        assert proc.poll() is None and time.monotonic() < deadline, proc.stderr.read()[-2000:]
        time.sleep(0.01)
    proc.send_signal(signal.SIGTERM)
    proc.communicate(timeout=60)
    return proc


def test_sigterm_reaps_the_daemon(cc):
    serving = lambda: harness.stragglers("/s.sock")  # noqa: E731  (only the daemon's command line names its socket)
    proc = terminated_midway(["--smoke", "--workload", "daemon_roundtrip", "--seconds", "3000"], serving)
    assert proc.returncode != 0
    nothing_left_behind()


def test_sigterm_reaps_the_workload_processes_of_a_full_run(cc):
    proc = terminated_midway(["--seconds", "1"], lambda: list((harness.ROOT / harness.WORK).glob("run-*")))
    assert proc.returncode != 0
    nothing_left_behind()
