"""KernelService facade: lookup path, warmup, invalidation, stats."""

import os
import subprocess
import sys

import numpy as np
import pytest

from repro import DEFAULT, KernelService
from repro.core.compiler import PlanSnapshot
from tests.conftest import make_symmetric_matrix

SSYMV = "y[i] += A[i, j] * x[j]"
SPEC = dict(symmetric={"A": True}, loop_order=("j", "i"))


def test_repeat_requests_return_the_same_kernel_object():
    service = KernelService(capacity=4)
    k1 = service.get_or_compile(SSYMV, **SPEC)
    k2 = service.get_or_compile(SSYMV, **SPEC)
    assert k1 is k2
    stats = service.stats()
    assert stats.compiles == 1
    assert stats.memory.hits == 1


def test_equivalent_spellings_hit_the_same_entry():
    service = KernelService(capacity=4)
    service.get_or_compile(SSYMV, **SPEC)
    k = service.get_or_compile(
        SSYMV,
        symmetric={"A": [[0, 1]]},
        loop_order=["j", "i"],
        formats={"A": "sparse", "x": "dense"},
    )
    assert service.stats().compiles == 1
    assert k is service.get_or_compile(SSYMV, **SPEC)


def test_cached_kernel_computes_correctly(rng):
    service = KernelService(capacity=4)
    A = make_symmetric_matrix(rng, 12, 0.5)
    x = rng.random(12)
    first = service.get_or_compile(SSYMV, **SPEC)(A=A, x=x)
    second = service.get_or_compile(SSYMV, **SPEC)(A=A, x=x)
    np.testing.assert_allclose(first, A @ x, rtol=1e-12)
    assert np.array_equal(first, second)


def test_disk_store_survives_service_restart(tmp_path, rng):
    A = make_symmetric_matrix(rng, 10, 0.5)
    x = rng.random(10)

    first = KernelService(capacity=4, store=tmp_path)
    expected = first.get_or_compile(SSYMV, **SPEC)(A=A, x=x)
    assert first.stats().compiles == 1

    # a "new process": fresh memory, same store — no compile happens
    second = KernelService(capacity=4, store=tmp_path)
    kernel = second.get_or_compile(SSYMV, **SPEC)
    stats = second.stats()
    assert stats.compiles == 0
    assert stats.disk_hits == 1
    assert isinstance(kernel.plan, PlanSnapshot)
    assert np.array_equal(kernel(A=A, x=x), expected)
    # rehydrated entry was promoted into memory
    assert second.get_or_compile(SSYMV, **SPEC) is kernel


def test_lru_eviction_falls_back_to_disk_not_recompile(tmp_path):
    service = KernelService(capacity=1, store=tmp_path)
    service.get_or_compile(SSYMV, **SPEC)
    service.get_or_compile(SSYMV, naive=True, **SPEC)  # evicts the first
    assert service.stats().memory.evictions == 1
    service.get_or_compile(SSYMV, **SPEC)  # back via disk rehydration
    stats = service.stats()
    assert stats.compiles == 2
    assert stats.disk_hits == 1


def test_options_distinguish_cache_entries():
    service = KernelService(capacity=8)
    service.get_or_compile(SSYMV, **SPEC)
    service.get_or_compile(SSYMV, options=DEFAULT.but(workspace=False), **SPEC)
    assert service.stats().compiles == 2


def test_invalidate_by_spec_and_everything(tmp_path):
    service = KernelService(capacity=8, store=tmp_path)
    service.get_or_compile(SSYMV, **SPEC)
    assert service.invalidate(SSYMV, **SPEC) == 1
    # memory gone, disk still has it
    assert service.stats().memory.size == 0
    service.get_or_compile(SSYMV, **SPEC)
    assert service.stats().compiles == 1  # rehydrated, not recompiled

    assert service.invalidate(SSYMV, drop_store=True, **SPEC) == 2
    service.get_or_compile(SSYMV, **SPEC)
    assert service.stats().compiles == 2  # really recompiled now

    service.get_or_compile(SSYMV, naive=True, **SPEC)
    assert service.invalidate(drop_store=True) >= 2  # wipe all


def test_warmup_reports_origin_and_populates_cache(tmp_path):
    service = KernelService(capacity=16, store=tmp_path)
    reports = service.warmup(names=("ssymv", "syprd"))
    assert [r.source for r in reports] == ["compiled", "compiled"]
    assert all(len(r.key) == 64 and r.seconds >= 0 for r in reports)

    again = service.warmup(names=("ssymv", "syprd"))
    assert [r.source for r in again] == ["memory", "memory"]

    fresh = KernelService(capacity=16, store=tmp_path)
    rehydrated = fresh.warmup(names=("ssymv",))
    assert rehydrated[0].source == "disk"


def test_warmup_full_library_and_unknown_name():
    service = KernelService(capacity=32)
    reports = service.warmup()
    assert len(reports) == 8  # the Section 5.2 kernel library
    with pytest.raises(KeyError, match="nosuch"):
        service.warmup(names=("nosuch",))


def test_stats_describe_mentions_disk_only_when_present(tmp_path):
    memory_only = KernelService(capacity=2)
    assert "disk" not in memory_only.stats().describe()
    with_store = KernelService(capacity=2, store=tmp_path)
    with_store.get_or_compile(SSYMV, **SPEC)
    assert "disk: 1 entries" in with_store.stats().describe()


def test_a_cold_miss_imports_no_daemon_code(tmp_path):
    """The service layer stands alone: in a fresh interpreter, a cold miss
    compiles and publishes without importing the daemon package or
    asyncio."""
    probe = "\n".join((
        "import sys",
        "from repro import DEFAULT, KernelService",
        "KernelService(store=sys.argv[1]).get_or_compile(",
        "    %r, symmetric={'A': True}, options=DEFAULT.but(backend='python'))" % SSYMV,
        "print(sorted(m for m in sys.modules",
        "             if m.split('.')[0] == 'asyncio' or m.startswith('repro.serve')))",
    ))
    done = subprocess.run(
        [sys.executable, "-c", probe, str(tmp_path)],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip().splitlines()[-1] == "[]"
    assert list(tmp_path.glob("*.json")), "the miss compiled and published"
