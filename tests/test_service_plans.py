"""Serving many input sets: ``get_or_compile`` once per spec, then one held
``execution_plan`` per input set, called again as often as needed."""

import threading

import numpy as np
import pytest

from repro import DEFAULT, KernelService
from repro.kernels.library import KERNELS, get_kernel
from repro.service.keys import canonicalize
from tests.conftest import make_symmetric_matrix
from tests.test_codegen_kernels import build_inputs


def _get(service, spec, options=DEFAULT):
    return service.get_or_compile(
        spec.einsum,
        symmetric=dict(spec.symmetric),
        loop_order=spec.loop_order,
        formats=dict(spec.formats),
        options=options,
    )


@pytest.mark.parametrize("dtype", ("float64", "float32"))
@pytest.mark.parametrize("name", sorted(KERNELS))
def test_held_plan_matches_one_shot_call_across_library(rng, name, dtype):
    spec = get_kernel(name)
    options = DEFAULT.but(dtype=dtype)
    inputs = build_inputs(rng, spec)
    expected = spec.compile(options=options)(**inputs)

    kernel = _get(KernelService(capacity=16), spec, options)
    plan = kernel.execution_plan(**inputs)
    for _ in range(3):
        out = kernel.finalize(plan())
        assert out.dtype == np.dtype(dtype)
        assert np.array_equal(out, expected)
    assert np.array_equal(plan.finalized(), expected)


def test_mixed_specs_compile_once_each(rng):
    service = KernelService(capacity=16)
    ssymv, syprd = get_kernel("ssymv"), get_kernel("syprd")
    A = make_symmetric_matrix(rng, 15, 0.5)
    x = rng.random(15)
    kernels = [_get(service, spec) for spec in (ssymv, syprd, ssymv)]
    assert kernels[0] is kernels[2]
    # two distinct kernels compiled, however many lookups arrived
    assert service.stats().compiles == 2
    assert _get(service, ssymv, DEFAULT.but(dtype="float32")) is not kernels[0]
    assert service.stats().compiles == 3  # the dtype is part of the key
    results = [k.finalize(k.execution_plan(A=A, x=x)()) for k in kernels]
    np.testing.assert_allclose(results[0], A @ x, rtol=1e-12)
    np.testing.assert_allclose(results[1], x @ A @ x, rtol=1e-12)
    assert np.array_equal(results[0], results[2])


def test_plans_over_two_input_sets_prepare_once_each(rng, monkeypatch):
    kernel = _get(KernelService(capacity=16), get_kernel("ssymv"))
    calls = []
    original = kernel.prepare

    def counting_prepare(**tensors):
        calls.append(sorted(tensors))
        return original(**tensors)

    monkeypatch.setattr(kernel, "prepare", counting_prepare)
    A1 = make_symmetric_matrix(rng, 10, 0.5)
    A2 = make_symmetric_matrix(rng, 10, 0.5)
    x = rng.random(10)
    plans = [kernel.execution_plan(A=A, x=x) for A in (A1, A2)]
    for _ in range(3):
        first, second = (kernel.finalize(plan()).copy() for plan in plans)
    assert calls == [["A", "x"], ["A", "x"]]  # one prepare per input set
    np.testing.assert_allclose(first, A1 @ x, rtol=1e-12)
    np.testing.assert_allclose(second, A2 @ x, rtol=1e-12)


def test_plans_sharing_an_input_set_own_separate_buffers(rng):
    kernel = _get(KernelService(capacity=4), get_kernel("ssymv"))
    A = make_symmetric_matrix(rng, 10, 0.5)
    x = rng.random(10)
    plans = [kernel.execution_plan(A=A, x=x) for _ in range(3)]
    outs = [plan() for plan in plans]
    assert not any(np.may_share_memory(outs[0], out) for out in outs[1:])
    outs[0][:] = -1.0  # overwriting one plan's buffer leaks nowhere
    for out in outs[1:]:
        np.testing.assert_allclose(kernel.finalize(out), A @ x, rtol=1e-12)


def test_a_cold_spec_is_a_miss_and_the_next_get_a_hit():
    service = KernelService(capacity=16)
    spec = get_kernel("ssymv")
    request = canonicalize(
        spec.einsum,
        symmetric=dict(spec.symmetric),
        loop_order=spec.loop_order,
        formats=dict(spec.formats),
    )
    _, origin = service.get_with_origin(request)
    assert origin == "compiled"
    assert service.stats().memory.misses == 1
    _get(service, spec)
    stats = service.stats()
    assert (stats.memory.hits, stats.compiles) == (1, 1)


def test_rehydrated_kernel_plan_is_bit_identical(tmp_path, rng):
    spec = get_kernel("ssyrk")
    inputs = build_inputs(rng, spec, n=12)
    first = KernelService(capacity=4, store=tmp_path)
    expected = _get(first, spec).execution_plan(**inputs).finalized().copy()

    # a "new process": fresh memory, same store
    second = KernelService(capacity=4, store=tmp_path)
    kernel = _get(second, spec)
    assert second.stats().compiles == 0
    assert second.stats().disk_hits == 1
    assert kernel.execution_plan(**inputs).finalized().tobytes() == expected.tobytes()


def test_a_held_plan_outlives_its_kernels_eviction(rng):
    service = KernelService(capacity=1)
    A = make_symmetric_matrix(rng, 12, 0.5)
    x = rng.random(12)
    plan = _get(service, get_kernel("ssymv")).execution_plan(A=A, x=x)
    _get(service, get_kernel("syprd"))  # evicts SSYMV
    assert service.stats().memory.evictions == 1
    assert service.invalidate() == 1
    np.testing.assert_allclose(plan.finalized(), A @ x, rtol=1e-12)


def test_python_plans_called_from_threads_match_a_sequential_run(rng):
    spec = get_kernel("ssyrk")
    kernel = _get(KernelService(capacity=4), spec, DEFAULT.but(backend="python"))
    plans = [kernel.execution_plan(**build_inputs(rng, spec, n=12)) for _ in range(4)]
    expected = [kernel.finalize(plan()).tobytes() for plan in plans]
    got = [[] for _ in plans]

    def worker(i):
        for _ in range(5):
            got[i].append(kernel.finalize(plans[i]()).tobytes())

    workers = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
    for thread in workers:
        thread.start()
    for thread in workers:
        thread.join()
    for i, results in enumerate(got):
        assert results == [expected[i]] * 5, "plan %d diverged" % i
