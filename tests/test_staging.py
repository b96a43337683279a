"""The padded copies of register-blocked nests, as the pipeline states them.

The register-blocking phase states, on each run of blocked nests (one
``Blocked`` node), its padded copies: what is copied in, when the clear
runs, which rows go back.  The C printer prints those fields and decides
none of them, so what a staged run writes can be checked here, on the
loop IR, without running C:

* the copy-back region is the clear's region, or every row when the run
  carries no clear (or a clear of the whole buffer), and lies inside the
  caller's buffer — a 1-D output has one row;
* a profiled object, whose runs stage each nest alone and copy the output
  in and back whole, computes the production object's bytes;
* (``-m slow``) every staged kernel runs clean under AddressSanitizer and
  UndefinedBehaviorSanitizer, bitwise equal to the Python backend, and so
  do both native splits, of adversarial matrix and 3-mode payloads (out
  of order, duplicated, on the last row, a half empty, a bad canonical
  entry first or last), equal to the numpy split.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from repro.codegen import loopir as ir
from repro.codegen.passes import run_pipeline
from repro.core.compiler import compile_kernel
from repro.core.config import DEFAULT
from tests.conftest import make_symmetric_tensor
from tests.test_differential import ALL_SPECS, HAVE_CC, fuzz_inputs
from tests.test_tensor_prepare_cost import ADVERSARIAL_SPLITS

#: ``y[j] += M[i, j] * x[i]`` as the naive baseline: a 1-D output
#: register-blocked over j under a clear of the whole buffer
VECTOR_OUT = dict(einsum="y[j] += M[i, j] * x[i]", loop_order=("i", "j"), naive=True)

#: every extent of the symbolic output the regions are evaluated over
SIDE = 4


# ----------------------------------------------------------------------
# the copy-back region, read off the loop IR
# ----------------------------------------------------------------------
def _value(expr, env) -> int:
    if isinstance(expr, ir.Const):
        return int(expr.value)
    if isinstance(expr, ir.Dim):
        return SIDE
    if isinstance(expr, ir.Var):
        return env[expr.name]
    values = [_value(arg, env) for arg in expr.args]
    return sum(values) if expr.op == "+" else math.prod(values)


def _runs(region: ir.ClearOut, shape, env=None):
    """``(first, count)`` of each run of *region* over *shape*:
    ``count`` indices of axis ``len(region.coords)`` from flat index
    ``first`` over the axes up to it, under every value of the
    coordinates (no coordinates and no span: all of axis 0)."""
    env, t = env or {}, len(env or {})
    if t < len(region.coords):
        for value in range(_value(region.ends[t], env)):
            yield from _runs(region, shape, {**env, region.coords[t]: value})
        return
    flat = 0
    for axis, coord in enumerate(region.coords):
        flat = flat * shape[axis] + env[coord]
    count = shape[0] if region.span is None else _value(region.span, env)
    yield flat * shape[t], count


def _covered(region: ir.ClearOut, shape, axes: int):
    """The flat indices, over the first *axes* axes of *shape*, that
    *region*'s runs cover: each index of a run's axis with every one of
    those axes after it (all axes: elements; all but the last: rows)."""
    per = math.prod(shape[len(region.coords) + 1:axes])
    return {
        k for first, count in _runs(region, shape)
        for k in range(first * per, (first + count) * per)
    }


def _staged_runs(body):
    for stmt in body:
        if isinstance(stmt, ir.Parallel):
            stmt = stmt.nest
        if isinstance(stmt, ir.Blocked):
            yield stmt


def _lowerings(corpus):
    for entry in corpus:
        yield entry.key, entry.kernel.lowered
    yield "vector_out", compile_kernel(
        **VECTOR_OUT, options=DEFAULT.but(backend="python")
    ).lowered


def test_every_copy_back_is_the_region_its_run_clears(corpus):
    """Over every corpus lowering and the 1-D staged output, plain and
    profiled: the rows a staged run copies back are the rows of its clear
    (every row without one), all inside the output, and a 1-D output
    copies back one row."""
    seen = {"clear": 0, "whole": 0, "vector": 0}
    for key, lowered in _lowerings(corpus):
        ndim = lowered.output.ndim
        shape = (SIDE,) * ndim
        rows = math.prod(shape[:-1])
        for profile in (False, True):
            for run in _staged_runs(run_pipeline(lowered, profile=profile).body):
                back = (
                    set(range(rows)) if run.back is None
                    else _covered(run.back, shape, ndim - 1)
                )
                assert back <= set(range(rows)), (key, profile)
                if run.clear is None:
                    assert back == set(range(rows)), (key, profile)
                    seen["whole"] += 1
                else:
                    cleared = _covered(run.clear, shape, ndim)
                    assert {k // shape[-1] for k in cleared} == back, (key, profile)
                    seen["clear"] += 1
                if ndim == 1:
                    assert len(back) <= 1, (key, profile)
                    seen["vector"] += 1
    assert all(seen.values()), seen


def test_staging_states_what_the_clear_makes_unnecessary(corpus):
    """The output is copied in only by a run that carries no clear, and a
    ``+`` clear skips the padded copy, which ``calloc`` zeroed."""
    for key, lowered in _lowerings(corpus):
        for run in _staged_runs(run_pipeline(lowered).body):
            out = run.rows.copies[0]
            assert out.name == "out" and out.ndim == lowered.output.ndim
            assert (out in run.copy_in) == (run.clear is None), key
            assert set(run.copy_in) <= set(run.rows.copies)
            assert run.clear_padded == (
                run.clear is not None and lowered.output.reduce_op != "+"
            ), key


# ----------------------------------------------------------------------
# a profiled object computes the production object's bytes
# ----------------------------------------------------------------------
@pytest.mark.skipif(not HAVE_CC, reason="no working C toolchain")
@pytest.mark.parametrize("rank", (5, 17))
@pytest.mark.parametrize("name", ("mttkrp3d", "mttkrp4d", "ttm"))
def test_a_profiled_object_returns_the_production_bytes(name, rank):
    """A profiled build stages each blocked nest on its own, so the second
    nest's run carries no clear and copies the output in and back whole:
    the path no production object takes."""
    from repro.codegen.backends.c import render_c_full
    from repro.codegen.backends.cexec import build

    kernel = ALL_SPECS[name].compile(options=DEFAULT.but(backend="c"))
    runs = list(_staged_runs(run_pipeline(kernel.lowered, profile=True).body))
    assert len(runs) == 2 and runs[1].clear is None
    prepared, shape = kernel.prepare(**fuzz_inputs(ALL_SPECS[name], 0, "float64", rank))
    instrumented = build(kernel.lowered, render_c_full(kernel.lowered, None, profile=True))
    assert "repro_profile_read" in instrumented.source
    want = np.asarray(kernel.run(prepared, shape)).tobytes()
    out = kernel.bound.make_output_buffer(shape)
    call = instrumented.bind(out, prepared)
    for _ in range(2):  # the second call over the first one's output
        call(1)
        assert out.tobytes() == want


# ----------------------------------------------------------------------
# the staged kernels under AddressSanitizer + UndefinedBehaviorSanitizer
# ----------------------------------------------------------------------
#: the script the sanitized process runs: every object it builds carries
#: the sanitizers, and each kernel runs at every rank on both index widths
_SANITIZED = textwrap.dedent(
    """
    import numpy as np
    from repro.codegen.backends import ctoolchain
    ctoolchain.BASE_FLAGS += ("-fsanitize=address,undefined", "-fno-sanitize-recover=all")
    assert "-fsanitize=address,undefined" in ctoolchain.probe().flags
    from repro.core.compiler import compile_kernel
    from repro.core.config import DEFAULT
    from repro.tensor import coo
    from tests.test_differential import ALL_SPECS, fuzz_inputs
    from tests.test_staging import RANKS, SANITIZED_KERNELS, VECTOR_OUT

    def kernels(backend):
        options = DEFAULT.but(backend=backend)
        for name in SANITIZED_KERNELS:
            yield name, ALL_SPECS[name].compile(options=options)
        yield "vector_out", compile_kernel(**VECTOR_OUT, options=options)

    def inputs(name, rank):
        if name != "vector_out":
            return fuzz_inputs(ALL_SPECS[name], 0, "float64", rank)
        rng = np.random.default_rng(rank)
        return {"M": rng.standard_normal((5, rank)), "x": rng.standard_normal(5)}

    for (name, py), (_, c) in zip(kernels("python"), kernels("c")):
        assert c.backend == "c", name
        for rank in RANKS:
            args = inputs(name, rank)
            want = np.asarray(py(**args)).tobytes()
            narrow = coo.INDEX_LIMIT
            for limit in (narrow, 0):  # the int32 object, then the int64 one
                coo.INDEX_LIMIT = limit
                prepared, shape = c.prepare(**args)
                got = np.asarray(c.finalize(c.run(prepared, shape))).tobytes()
                assert got == want, (name, rank, limit)
            coo.INDEX_LIMIT = narrow
            print(name, rank, "ok", flush=True)

    # the native splits of matrix and 3-mode payloads, built with the same flags
    from repro.obs import metrics
    from repro.tensor import native
    from tests import test_tensor_prepare_cost as prepare

    metrics.enable()
    for name in sorted(prepare.ADVERSARIAL_SPLITS):
        prepare.test_adversarial_splits_match_the_numpy_route(name)
        print("split", name, "clean", flush=True)
    prepare.test_the_native_split_is_the_numpy_split_byte_for_byte()
    assert native._loaded[ctoolchain.probe()] is not None
    print("split property clean", flush=True)
    prepare.test_the_native_3_mode_split_is_the_numpy_split_byte_for_byte()
    print("split 3-mode property clean", flush=True)

    # the finish entry points: SSYRK's in-place mirror, TTM's layout restore
    # and mirror, each against the gather of the raw buffer
    from repro.codegen.runtime import replicate_output
    from tests.test_staging import FINISHED_KERNELS, FINISH_RANKS, FINISH_SIDES, finish_inputs

    for name in FINISHED_KERNELS:
        kernel = ALL_SPECS[name].compile(options=DEFAULT.but(backend="c"))
        output = kernel.lowered.output
        for side in FINISH_SIDES:
            for rank in FINISH_RANKS:
                args = finish_inputs(name, side, rank)
                plan = kernel.execution_plan(**args)
                raw = plan().copy()
                logical = np.transpose(raw, np.argsort(output.layout))
                want = replicate_output(logical, output.replication_parts).tobytes()
                assert kernel(**args).tobytes() == want, (name, side, rank)
                assert plan.finalized().tobytes() == plan.finalized().tobytes() == want
                assert kernel.finalize(raw).tobytes() == want, (name, side, rank)
                print(name, side, rank, "finished", flush=True)
    """
)

#: the kernels whose finish entry point the sanitized run covers, at these
#: sides and ranks (SSYRK's: the columns of its operand)
FINISHED_KERNELS = ("ssyrk", "ttm")
FINISH_SIDES = (1, 63, 64, 65)
FINISH_RANKS = (5, 16)


def finish_inputs(name: str, side: int, rank: int) -> dict:
    """Sparse operands of SSYRK or TTM with an output of side *side*."""
    rng = np.random.default_rng(side * 100 + rank)
    if name == "ssyrk":
        return {"A": rng.standard_normal((side, rank)) * (rng.random((side, rank)) < 0.3)}
    return {"A": make_symmetric_tensor(rng, side, 3, 0.01), "B": rng.standard_normal((side, rank))}

#: the register-blocked library kernels the sanitized run covers (and the
#: 1-D staged output of VECTOR_OUT)
SANITIZED_KERNELS = ("mttkrp3d", "mttkrp4d", "ttm", "ttm4d")
RANKS = (1, 7, 17, 24)


def _runtime(name: str) -> str:
    """The toolchain's path of the runtime library *name*, or ``""``."""
    from repro.codegen.backends import ctoolchain

    cc = ctoolchain.probe().cc
    out = subprocess.run(
        [cc, "-print-file-name=%s" % name], capture_output=True, text=True
    ).stdout.strip()
    return out if os.path.isabs(out) and os.path.exists(out) else ""


@pytest.mark.slow
@pytest.mark.skipif(not HAVE_CC, reason="no working C toolchain")
def test_staged_kernels_run_clean_under_sanitizers(tmp_path):
    libasan = _runtime("libasan.so")
    if not libasan:
        pytest.skip("the toolchain ships no AddressSanitizer runtime")
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join([os.path.join(root, "src"), root]),
        "LD_PRELOAD": libasan,
        "ASAN_OPTIONS": "detect_leaks=0",
        "UBSAN_OPTIONS": "print_stacktrace=1:halt_on_error=1",
        "REPRO_C_CACHE": str(tmp_path),
    }
    done = subprocess.run(
        [sys.executable, "-c", _SANITIZED], env=env, cwd=root,
        capture_output=True, text=True, timeout=900,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-6000:]
    assert done.stdout.count(" ok") == (len(SANITIZED_KERNELS) + 1) * len(RANKS)
    assert done.stdout.count(" clean") == len(ADVERSARIAL_SPLITS) + 2
    assert done.stdout.count(" finished") == (
        len(FINISHED_KERNELS) * len(FINISH_SIDES) * len(FINISH_RANKS)
    )
