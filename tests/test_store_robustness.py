"""Disk-store failure injection: a damaged cache must cost a recompile,
never a crash.

The store's contract (see :mod:`repro.service.store`) is that corrupt,
truncated or stale entries behave as *misses*: the service falls back to
a cold compile, evicts what cannot ever load again, and rebuilds objects
that merely failed on this read — into the store, so the next reader finds
them.  These tests damage each persisted piece — the compiled object, the
source beside it, the JSON state — and assert the next lookup still serves
a working kernel.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.codegen.backends import ctoolchain, get_backend
from repro.core.compiler import STATE_VERSION
from repro.core.config import DEFAULT
from repro.service import KernelService
from repro.service.keys import KEY_VERSION, cache_key, canonicalize
from repro.service.store import DiskStore
from tests.conftest import replace_node, store_objects

HAVE_CC = get_backend("c").is_available()
needs_cc = pytest.mark.skipif(not HAVE_CC, reason="no working C toolchain")

EINSUM = "y[i] += A[i, j] * x[j]"
SPEC = dict(symmetric={"A": True}, loop_order=("j", "i"))


def _warm(tmp_path, options=DEFAULT):
    service = KernelService(store=tmp_path)
    service.get_or_compile(EINSUM, options=options, **SPEC)
    return cache_key(EINSUM, options=options, **SPEC)


def _cc_runs(recorder):
    return sum(1 for e in recorder.events if e.name == "cc")


def _check_runs(kernel):
    A = np.eye(5) + np.eye(5, k=1) + np.eye(5, k=-1)
    x = np.arange(5.0)
    np.testing.assert_allclose(kernel(A=A, x=x), A @ x, rtol=1e-12)


# ----------------------------------------------------------------------
# truncated .so
# ----------------------------------------------------------------------
@needs_cc
def test_truncated_so_falls_back_to_recompile_and_heals(tmp_path):
    """A *truncated* ELF (valid magic, half the bytes — the crash-mid-copy
    shape) must not load; the object is rebuilt once, into the store, and
    the lookup after that runs no compiler."""
    from repro.obs import trace

    options = DEFAULT.but(backend="c")
    key = _warm(tmp_path, options)
    (so,) = store_objects(tmp_path, key)
    blob = so.read_bytes()
    entry = (tmp_path / ("%s.json" % key)).read_bytes()
    assert blob[:4] == b"\x7fELF"
    so.write_bytes(blob[: len(blob) // 2])

    with trace.tracing() as rec:
        fresh = KernelService(store=tmp_path)
        kernel = fresh.get_or_compile(EINSUM, options=options, **SPEC)
    assert kernel.backend == "c" and _cc_runs(rec) == 1
    assert fresh.stats().compiles == 0 and fresh.store.hits == 1
    _check_runs(kernel)
    (healed,) = store_objects(tmp_path, key)
    assert healed.read_bytes()[:4] == b"\x7fELF"
    assert len(healed.read_bytes()) > len(blob) // 2
    with trace.tracing() as rec:
        again = DiskStore(tmp_path).get(key)
    assert _cc_runs(rec) == 0 and again.bound.executable.so_path == str(healed)
    # readers repair objects, never the entry
    assert (tmp_path / ("%s.json" % key)).read_bytes() == entry


@needs_cc
def test_zero_byte_so_falls_back_to_recompile(tmp_path):
    options = DEFAULT.but(backend="c")
    key = _warm(tmp_path, options)
    (so,) = store_objects(tmp_path, key)
    so.write_bytes(b"")

    kernel = KernelService(store=tmp_path).get_or_compile(
        EINSUM, options=options, **SPEC
    )
    assert kernel.backend == "c"
    _check_runs(kernel)


# ----------------------------------------------------------------------
# missing .c source
# ----------------------------------------------------------------------
def _built_in_place(tmp_path, options):
    """A store whose object was built in the store itself (so the ``.c``
    the builder compiled from sits beside it); returns the key."""
    key = _warm(tmp_path, options)
    for so in store_objects(tmp_path, key):
        so.unlink()
    assert DiskStore(tmp_path).get(key) is not None
    return key


@needs_cc
def test_missing_c_sidecar_still_rehydrates(tmp_path):
    """The ``.c`` file is an inspection artifact: deleting it must not
    break rehydration (the JSON state carries the lowered program)."""
    options = DEFAULT.but(backend="c")
    key = _built_in_place(tmp_path, options)
    (source,) = tmp_path.glob("%s.*.c" % key)
    assert "int64_t kernel(" in source.read_text()
    source.unlink()

    fresh = KernelService(store=tmp_path)
    kernel = fresh.get_or_compile(EINSUM, options=options, **SPEC)
    assert kernel.backend == "c"
    assert fresh.store.hits == 1  # a hit, not a recompile
    _check_runs(kernel)


@needs_cc
def test_missing_c_sidecar_and_so_recompiles(tmp_path):
    options = DEFAULT.but(backend="c")
    key = _built_in_place(tmp_path, options)
    for path in list(tmp_path.glob("%s.*.c" % key)) + store_objects(tmp_path, key):
        path.unlink()

    kernel = KernelService(store=tmp_path).get_or_compile(
        EINSUM, options=options, **SPEC
    )
    assert kernel.backend == "c"
    _check_runs(kernel)
    # rebuilt into the store, for the next process
    assert len(store_objects(tmp_path, key)) == 1


# ----------------------------------------------------------------------
# forged loop program: a store entry is outside input
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", ["python"] + ["c"] * HAVE_CC)
def test_forged_program_never_reaches_exec_or_cc(tmp_path, monkeypatch, backend):
    """The persisted program becomes source text.  An entry whose ``Var``
    name carries a statement must be rejected while decoding: counted as
    an error, evicted, recompiled — with nothing exec'd and no cc run."""
    import builtins

    from repro.codegen.backends import ctoolchain

    options = DEFAULT.but(backend=backend)
    key = _warm(tmp_path, options)
    path = tmp_path / ("%s.json" % key)
    payload = json.loads(path.read_text())
    lowered = payload["state"]["lowered"]
    forged = replace_node(lowered, ["Var", "t0", "elem"], ["Var", "x; import os", "elem"])
    assert forged != lowered
    payload["state"]["lowered"] = forged
    path.write_text(json.dumps(payload))

    reached = []
    real_exec, real_cc = builtins.exec, ctoolchain.compile_shared
    monkeypatch.setattr(
        builtins, "exec", lambda *a, **k: reached.append("exec") or real_exec(*a, **k)
    )
    monkeypatch.setattr(
        ctoolchain,
        "compile_shared",
        lambda *a, **k: reached.append("cc") or real_cc(*a, **k),
    )
    store = DiskStore(tmp_path)
    assert store.get(key) is None
    assert reached == []
    assert store.errors == 1 and store.misses == 0
    assert not path.exists()  # evicted, sidecars included
    monkeypatch.undo()

    kernel = KernelService(store=tmp_path).get_or_compile(
        EINSUM, options=options, **SPEC
    )
    _check_runs(kernel)
    assert path.exists()  # the recompile re-published a clean entry


@needs_cc
def test_entry_naming_a_deleted_pass_is_an_error_and_evicted(tmp_path):
    """A C entry written while ``denormals`` was a pass, by the version
    that still selected loop phases at all, or by the last one that
    carried a codegen configuration (STATE_VERSION 9) names settings this
    build does not have: counted as an error, answered as a miss and
    removed, not raised."""
    from tests.test_serve_protocol import PARENT_CODEGEN

    for codegen in (
        {"profile": False, "passes": ["denormals", "fuse", "tile", "simd"]},
        PARENT_CODEGEN,
        {"profile": True},
    ):
        key = _warm(tmp_path, DEFAULT.but(backend="c"))
        path = tmp_path / ("%s.json" % key)
        payload = json.loads(path.read_text())
        payload["state"]["state_version"] = 9
        payload["state"]["codegen"] = codegen
        path.write_text(json.dumps(payload))

        store = DiskStore(tmp_path)
        assert store.get(key) is None
        assert store.errors == 1 and store.misses == 0
        assert [p.name for p in tmp_path.iterdir() if p.name.startswith(key)] == []


# ----------------------------------------------------------------------
# stale STATE_VERSION
# ----------------------------------------------------------------------
def test_stale_state_version_is_a_miss_and_evicted(tmp_path):
    key = _warm(tmp_path)
    path = tmp_path / ("%s.json" % key)
    payload = json.loads(path.read_text())
    payload["state"]["state_version"] = STATE_VERSION - 1
    path.write_text(json.dumps(payload))

    store = DiskStore(tmp_path)
    assert store.get(key) is None
    # an unservable *existing* entry is an error, not a miss (the two are
    # counted separately so a failing cache is distinguishable from a
    # cold one)
    assert store.misses == 0 and store.errors == 1
    assert not path.exists()  # a version-skewed entry can never load: evict

    # the service transparently recompiles into the same slot
    service = KernelService(store=tmp_path)
    kernel = service.get_or_compile(EINSUM, **SPEC)
    _check_runs(kernel)
    assert path.exists()


@needs_cc
def test_stale_state_version_eviction_drops_artifacts(tmp_path):
    """Evicting a version-skewed C entry must take everything stored with
    it — a stale ABI's shared object must never be rebound by a later
    entry.  That includes the ``<key>.c``/``<key>.so`` sidecars of the
    layout before STATE_VERSION 8."""
    options = DEFAULT.but(backend="c")
    key = _built_in_place(tmp_path, options)
    for legacy in (".c", ".so"):
        (tmp_path / (key + legacy)).write_bytes(b"old layout")
    path = tmp_path / ("%s.json" % key)
    payload = json.loads(path.read_text())
    payload["state"]["state_version"] = STATE_VERSION - 1
    path.write_text(json.dumps(payload))

    assert DiskStore(tmp_path).get(key) is None
    assert [p.name for p in tmp_path.iterdir() if p.name.startswith(key)] == []


@needs_cc
def test_a_v8_entry_is_evicted_never_rebound_against_narrow_arrays(tmp_path):
    """A STATE_VERSION 8 entry's object reads ``int64_t`` index pointers
    and reports no width: rebinding it against the 32-bit arrays prepare
    now builds would read garbage.  Such an entry — its JSON and that
    object — is evicted, and the recompiled one binds the narrow object."""
    from repro.codegen.backends.c import INDEX_DECLARATION
    from repro.codegen.backends.objects import ObjectCache

    assert STATE_VERSION == 13
    options = DEFAULT.but(backend="c", threads=1)
    kernel = KernelService(store=tmp_path).get_or_compile(EINSUM, options=options, **SPEC)
    key = cache_key(EINSUM, options=options, **SPEC)
    source = kernel.bound.executable.source
    v8 = source.replace("\n" + "\n".join(INDEX_DECLARATION), "").replace("rp_index", "int64_t")
    assert v8 != source and "int32" not in v8
    for so in store_objects(tmp_path, key):
        so.unlink()
    ctoolchain.compile_shared(v8, objects=ObjectCache(tmp_path, key + "."))
    (old,) = store_objects(tmp_path, key)
    path = tmp_path / ("%s.json" % key)
    payload = json.loads(path.read_text())
    payload["state"]["state_version"] = 8
    path.write_text(json.dumps(payload))

    assert DiskStore(tmp_path).get(key) is None
    assert not path.exists() and not old.exists()
    kernel = KernelService(store=tmp_path).get_or_compile(EINSUM, options=options, **SPEC)
    assert kernel.bound.executable.index_dtype == np.int32
    _check_runs(kernel)


def test_truncated_json_is_a_miss_and_evicted(tmp_path):
    key = _warm(tmp_path)
    path = tmp_path / ("%s.json" % key)
    path.write_text(path.read_text()[: 40])

    store = DiskStore(tmp_path)
    assert store.get(key) is None
    assert not path.exists()
    kernel = KernelService(store=tmp_path).get_or_compile(EINSUM, **SPEC)
    _check_runs(kernel)


# ----------------------------------------------------------------------
# stale KEY_VERSION
# ----------------------------------------------------------------------
def test_entry_under_the_previous_key_version_is_a_miss_not_an_error(tmp_path):
    """The salt exists for semantic changes: a v6 entry held the
    unfactored, untiled program of the same request — correct but slower.
    Such an entry must be unreachable: the lookup misses and recompiles,
    nothing is counted as damage or evicted."""
    key = _warm(tmp_path)
    material = canonicalize(EINSUM, **SPEC).key_material()
    salt = "v%d|" % KEY_VERSION
    assert material.startswith(salt)
    previous = "v%d|" % (KEY_VERSION - 1) + material[len(salt):]
    old_key = hashlib.sha256(previous.encode("utf-8")).hexdigest()
    (tmp_path / ("%s.json" % key)).rename(tmp_path / ("%s.json" % old_key))

    service = KernelService(store=tmp_path)
    _check_runs(service.get_or_compile(EINSUM, **SPEC))
    assert service.stats().compiles == 1
    assert service.store.misses == 1 and service.store.errors == 0
    assert (tmp_path / ("%s.json" % old_key)).exists()
    assert (tmp_path / ("%s.json" % key)).exists()


# ----------------------------------------------------------------------
# dtype separation on disk
# ----------------------------------------------------------------------
def test_f32_and_f64_entries_never_alias(tmp_path):
    """One einsum, two dtypes: two distinct keys, two distinct entries,
    each rehydrating to a kernel of its own dtype."""
    service = KernelService(store=tmp_path)
    k64 = service.get_or_compile(EINSUM, options=DEFAULT.but(dtype="float64"), **SPEC)
    k32 = service.get_or_compile(EINSUM, options=DEFAULT.but(dtype="float32"), **SPEC)
    key64 = cache_key(EINSUM, options=DEFAULT.but(dtype="float64"), **SPEC)
    key32 = cache_key(EINSUM, options=DEFAULT.but(dtype="float32"), **SPEC)
    assert key64 != key32
    assert len(service.store) == 2

    fresh = KernelService(store=tmp_path)
    r64 = fresh.get_or_compile(EINSUM, options=DEFAULT.but(dtype="float64"), **SPEC)
    r32 = fresh.get_or_compile(EINSUM, options=DEFAULT.but(dtype="float32"), **SPEC)
    assert fresh.stats().compiles == 0  # both served from disk
    A = np.eye(4)
    assert r64(A=A, x=np.ones(4)).dtype == np.float64
    assert r32(A=A, x=np.ones(4)).dtype == np.float32
    assert k64.lowered.dtype == "float64" and k32.lowered.dtype == "float32"
    assert r64.lowered.dtype == "float64" and r32.lowered.dtype == "float32"
