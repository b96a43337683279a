"""Disk store: persist -> rehydrate round-trips, corruption tolerance."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.core.compiler import STATE_VERSION, CompiledKernel, PlanSnapshot
from repro.kernels.library import KERNELS, get_kernel
from repro.service.keys import canonicalize
from repro.service.store import DiskStore
from tests.conftest import store_objects
from tests.test_codegen_kernels import build_inputs


def _request_for(spec):
    return canonicalize(
        spec.einsum,
        symmetric=dict(spec.symmetric),
        loop_order=spec.loop_order,
        formats=dict(spec.formats),
    )


@pytest.mark.parametrize("name", sorted(KERNELS))
def test_round_trip_is_bit_identical_across_library(tmp_path, rng, name):
    """compile -> persist -> rehydrate -> identical source and outputs."""
    spec = get_kernel(name)
    request = _request_for(spec)
    fresh = request.compile()

    store = DiskStore(tmp_path)
    store.put(request.key, fresh)
    rehydrated = store.get(request.key)
    assert rehydrated is not None
    assert rehydrated.source == fresh.source
    assert rehydrated.options == fresh.options
    assert rehydrated.formats == fresh.formats

    inputs = build_inputs(rng, spec)
    expected = fresh(**inputs)
    got = rehydrated(**inputs)
    assert got.dtype == expected.dtype
    assert np.array_equal(got, expected)  # bit-identical, not just close


def test_rehydrated_plan_is_a_snapshot(tmp_path):
    spec = get_kernel("ssymv")
    request = _request_for(spec)
    fresh = request.compile()
    store = DiskStore(tmp_path)
    store.put(request.key, fresh)
    rehydrated = store.get(request.key)
    assert isinstance(rehydrated.plan, PlanSnapshot)
    assert rehydrated.plan.describe() == fresh.plan.describe()
    assert rehydrated.plan.history[-1] == "rehydrated"
    assert "def kernel(" in rehydrated.explain()


def test_rehydrated_plan_explains_missing_structure(tmp_path):
    """analyze_plan-style consumers get a self-explanatory error, not a
    bare missing-attribute crash, when handed a rehydrated plan."""
    request = _request_for(get_kernel("ssymv"))
    store = DiskStore(tmp_path)
    store.put(request.key, request.compile())
    rehydrated = store.get(request.key)
    for attr in ("blocks", "nests", "replication", "rank"):
        with pytest.raises(AttributeError, match="recompile"):
            getattr(rehydrated.plan, attr)


def test_foreign_json_files_are_ignored(tmp_path):
    """A notes.json dropped into the store directory must not break
    keys/len/clear/entries."""
    request = _request_for(get_kernel("ssymv"))
    store = DiskStore(tmp_path)
    store.put(request.key, request.compile())
    (tmp_path / "notes.json").write_text('{"mine": true}')
    assert list(store.keys()) == [request.key]
    assert len(store) == 1
    assert len(store.entries()) == 1
    assert store.clear() == 1
    assert (tmp_path / "notes.json").exists()  # untouched


def test_missing_key_is_a_miss(tmp_path):
    store = DiskStore(tmp_path)
    assert store.get("0" * 64) is None
    assert store.misses == 1
    assert "0" * 64 not in store


def test_malformed_key_rejected(tmp_path):
    store = DiskStore(tmp_path)
    with pytest.raises(ValueError):
        store.get("../escape")


def test_corrupt_entry_counts_as_miss_and_is_removed(tmp_path):
    spec = get_kernel("ssymv")
    request = _request_for(spec)
    store = DiskStore(tmp_path)
    store.put(request.key, request.compile())
    path = tmp_path / ("%s.json" % request.key)
    path.write_text("{ not json")
    assert store.get(request.key) is None
    assert store.errors == 1
    assert not path.exists()


def test_version_skew_counts_as_miss(tmp_path):
    spec = get_kernel("ssymv")
    request = _request_for(spec)
    store = DiskStore(tmp_path)
    store.put(request.key, request.compile())
    path = tmp_path / ("%s.json" % request.key)
    payload = json.loads(path.read_text())
    payload["state"]["state_version"] = STATE_VERSION + 1
    path.write_text(json.dumps(payload))
    assert store.get(request.key) is None


def test_keys_remove_clear_and_entries(tmp_path):
    store = DiskStore(tmp_path)
    requests = []
    for name in ("ssymv", "syprd"):
        request = _request_for(get_kernel(name))
        store.put(request.key, request.compile())
        requests.append(request)
    assert sorted(store.keys()) == sorted(r.key for r in requests)
    assert len(store) == 2

    entries = store.entries()
    assert len(entries) == 2
    einsums = {e.einsum for e in entries}
    assert "y[i] += A[i, j] * x[j]" in einsums
    assert all("+cse" in e.options_line for e in entries)

    assert store.remove(requests[0].key)
    assert not store.remove(requests[0].key)
    assert store.clear() == 1
    assert len(store) == 0


def test_from_state_rejects_unknown_version():
    spec = get_kernel("ssymv")
    state = _request_for(spec).compile().to_state()
    state["state_version"] = 999
    with pytest.raises(ValueError, match="state version"):
        CompiledKernel.from_state(state)


# ---------------------------------------------------------------------------
# size bound + LRU-by-atime garbage collection
# ---------------------------------------------------------------------------
def _filled_store(tmp_path, names=("ssymv", "syprd", "ttm")):
    store = DiskStore(tmp_path)
    keys = []
    for name in names:
        request = _request_for(get_kernel(name))
        assert store.put(request.key, request.compile())
        keys.append(request.key)
    return store, keys


def test_gc_unbounded_is_a_noop(tmp_path):
    store, keys = _filled_store(tmp_path)
    assert store.max_bytes is None
    assert store.gc() == (0, 0)
    assert len(store) == len(keys)


def test_gc_evicts_least_recently_used_first(tmp_path):
    import os
    import time

    store, keys = _filled_store(tmp_path)
    # age the first two entries; the third stays fresh
    old = time.time() - 1000
    for key in keys[:2]:
        os.utime(str(tmp_path / ("%s.json" % key)), times=(old, old))
    total = store.size_bytes()
    keep = total - store.entry_bytes(keys[0]) - store.entry_bytes(keys[1])
    removed, freed = store.gc(max_bytes=keep)
    assert removed == 2
    assert sorted(store.keys()) == [keys[2]]
    assert store.size_bytes() <= keep
    assert store.evictions == 2
    # the evicted entries' sidecars are gone too — no .c/.so litter
    litter = [p.name for p in tmp_path.iterdir() if p.stem in (keys[0], keys[1])]
    assert litter == []


def test_get_refreshes_recency(tmp_path):
    import os
    import time

    store, keys = _filled_store(tmp_path, names=("ssymv", "syprd"))
    old = time.time() - 1000
    for key in keys:
        os.utime(str(tmp_path / ("%s.json" % key)), times=(old, old))
    assert store.get(keys[0]) is not None  # hit refreshes atime
    removed, _ = store.gc(max_bytes=store.entry_bytes(keys[0]))
    assert removed == 1
    assert list(store.keys()) == [keys[0]], "the freshly-read entry survives"


def test_gc_skips_entries_under_a_live_lock(tmp_path):
    store, keys = _filled_store(tmp_path, names=("ssymv", "syprd"))
    lock = tmp_path / ("%s.lock" % keys[0])
    lock.write_text("%d\n" % os.getpid())
    removed, _ = store.gc(max_bytes=0)
    assert keys[0] in list(store.keys()), "mid-publication entry evicted"
    assert removed == 1 and lock.exists()


def test_gc_evicts_an_entry_whose_lock_holder_is_dead(tmp_path):
    """gc believes flock: a lock is a live holder, not a file.  Nobody
    acquires the lock of a published key again, so a builder that died
    holding it used to pin its entry — and the size bound — forever."""
    store, keys = _filled_store(tmp_path, names=("ssymv", "syprd"))
    child = subprocess.Popen([sys.executable, "-c", "pass"])
    child.wait()
    lock = tmp_path / ("%s.lock" % keys[0])
    lock.write_text("%d\n" % child.pid)
    removed, _ = store.gc(max_bytes=0)
    assert removed == 2 and list(store.keys()) == []
    assert not lock.exists(), "the corpse's lock outlived its entry"


def test_put_triggers_gc_when_bounded(tmp_path):
    request = _request_for(get_kernel("ssymv"))
    kernel = request.compile()
    probe = DiskStore(tmp_path / "probe")
    probe.put(request.key, kernel)
    entry_size = probe.entry_bytes(request.key)

    store = DiskStore(tmp_path / "bounded", max_bytes=int(entry_size * 1.5))
    store.put(request.key, kernel)
    other = _request_for(get_kernel("syprd"))
    store.put(other.key, other.compile())
    # the bound holds after every put: only one entry fits
    assert len(store) == 1
    assert store.size_bytes() <= int(entry_size * 1.5)
    assert store.evictions >= 1


def test_max_bytes_env_default(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_STORE_MAX_BYTES", "123456")
    assert DiskStore(tmp_path).max_bytes == 123456
    monkeypatch.delenv("REPRO_STORE_MAX_BYTES")
    assert DiskStore(tmp_path).max_bytes is None
    assert DiskStore(tmp_path, max_bytes=-1).max_bytes is None


def test_rehydrate_renders_under_the_writers_configuration(tmp_path, monkeypatch):
    """The entry carries its resolved codegen: a reader whose environment
    says ``none`` re-renders, byte for byte, the C the writer built under
    ``fission,fuse`` — the key it reads the entry under describes that
    program, not the reader's ambient one."""
    from repro.codegen.backends import get_backend
    from repro.core.config import DEFAULT

    if not get_backend("c").is_available():
        pytest.skip("no working C toolchain")
    spec = get_kernel("ssymv")
    monkeypatch.setenv("REPRO_PASSES", "fission,fuse")
    request = canonicalize(
        spec.einsum,
        symmetric=dict(spec.symmetric),
        loop_order=spec.loop_order,
        formats=dict(spec.formats),
        options=DEFAULT.but(backend="c"),
    )
    written = request.compile()
    assert "fission" in written.bound.codegen.passes.signature()
    store = DiskStore(tmp_path)
    store.put(request.key, written)

    monkeypatch.setenv("REPRO_PASSES", "none")
    rehydrated = DiskStore(tmp_path).get(request.key)
    assert rehydrated.bound.codegen == written.bound.codegen == request.codegen
    # same label on both sides: the same text
    relabelled = CompiledKernel.from_state(written.to_state())
    assert relabelled.backend_source == written.backend_source
    # under the store's label only the banner differs — one program, so
    # the object the writer built is the one the reader runs
    body = lambda kernel: kernel.backend_source.split("\n", 1)[1]  # noqa: E731
    assert body(rehydrated) == body(written)
    assert rehydrated.backend_source != written.backend_source
    (stored,) = store_objects(tmp_path, request.key)
    assert rehydrated.bound.executable.so_path == str(stored)
    ambient = canonicalize(spec.einsum, symmetric=dict(spec.symmetric),
                           options=DEFAULT.but(backend="c")).compile()
    assert ambient.backend_source != written.backend_source


def test_serial_artifact_upgrades_once_and_the_store_keeps_the_omp_object(
    tmp_path, rng, monkeypatch
):
    """put under threads=1, rehydrate under threads=4: one cc run (the
    upgrade), built straight into the store beside the serial object —
    the entry itself untouched — and from then on the request picks:
    a serial process loads the serial object, a threaded one the OpenMP
    object, neither runs cc or upgrades."""
    from repro.codegen.backends import ctoolchain, get_backend, health
    from repro.core.config import DEFAULT
    from repro.obs import trace

    if not get_backend("c").is_available() or not ctoolchain.openmp_flags():
        pytest.skip("needs a C toolchain with OpenMP")
    monkeypatch.setattr(ctoolchain, "_build_dir", str(tmp_path / "objects"))
    (tmp_path / "objects").mkdir()
    health.reset()

    def cc_runs(recorder):
        return sum(1 for e in recorder.events if e.name == "cc")

    spec = get_kernel("ssymv")
    inputs = build_inputs(rng, spec)
    request = canonicalize(
        spec.einsum,
        symmetric=dict(spec.symmetric),
        loop_order=spec.loop_order,
        formats=dict(spec.formats),
        options=DEFAULT.but(backend="c", threads=1),
    )
    store = DiskStore(tmp_path / "store")
    entry = store.path / ("%s.json" % request.key)
    monkeypatch.setenv("REPRO_THREADS", "1")
    with trace.tracing() as rec:
        fresh = request.compile()
        store.put(request.key, fresh)
    assert cc_runs(rec) == 1 and fresh.bound.executable.kind == "serial"
    expected = fresh(**inputs)
    (serial_file,) = store_objects(store.path, request.key)
    assert b"repro_openmp" not in serial_file.read_bytes()
    published = (entry.read_bytes(), entry.stat().st_mtime_ns)

    monkeypatch.setenv("REPRO_THREADS", "4")
    with trace.tracing() as rec:
        threaded = store.get(request.key)
    assert cc_runs(rec) == 1
    assert threaded.options.threads == 4
    assert threaded.bound.executable.kind == "omp"
    assert np.array_equal(threaded(**inputs), expected)
    (omp_file,) = set(store_objects(store.path, request.key)) - {serial_file}
    assert threaded.bound.executable.so_path == str(omp_file)
    assert b"repro_openmp" in omp_file.read_bytes()

    # later processes (empty object cache of their own): each loads the
    # object its thread setting asks for — no cc, no upgrade
    code = (
        "import sys\n"
        "from repro.obs import trace\n"
        "from repro.service.store import DiskStore\n"
        "with trace.tracing() as rec:\n"
        "    kernel = DiskStore(sys.argv[1]).get(sys.argv[2])\n"
        "names = [e.name for e in rec.events]\n"
        "print(names.count('cc'), names.count('backend:upgrade'),\n"
        "      kernel.bound.executable.kind, kernel.bound.executable.so_path)\n"
    )
    for setting, kind, path in (("4", "omp", omp_file), ("1", "serial", serial_file)):
        env = dict(os.environ, REPRO_THREADS=setting, PYTHONPATH=os.pathsep.join(sys.path))
        env["REPRO_C_CACHE"] = str(tmp_path / ("objects-%s" % setting))
        # a fresh process re-arms an inherited fault plan from its first
        # event (the CI fault-injection leg): these children count clean
        # cc runs, so they run outside the storm
        env.pop("REPRO_FAULTS", None)
        done = subprocess.run(
            [sys.executable, "-c", code, str(store.path), request.key],
            env=env, stdout=subprocess.PIPE, text=True, check=True, timeout=120,
        )
        assert done.stdout.split() == ["0", "0", kind, str(path)]
    # nothing a reader did — upgrade included — rewrote the entry
    assert (entry.read_bytes(), entry.stat().st_mtime_ns) == published
    assert store.errors == 0 and health.ok("c@omp")
