"""The object cache: one naming, one verified lookup, one publication.

Unit tests of :class:`repro.codegen.backends.objects.ObjectCache` and of
the two helpers under it (:func:`repro.core.flock.single_flight`,
:func:`repro.core.flock.atomic_write`), then the defects the cache closes,
each reproduced across fresh processes: an object cut short in a
persistent ``$REPRO_C_CACHE`` or in a store is rebuilt, never mapped; a
store written with a compiler serves a host without one.
"""

from __future__ import annotations

import os
import threading
import time

import pytest

from repro.codegen.backends import get_backend
from repro.codegen.backends.objects import (
    IDENTITY,
    ObjectCache,
    identity,
    identity_of,
    program_digest,
)
from repro.core import flock
from tests.conftest import KERNEL_CHILD_RESULT, damage, kernel_child, store_objects

HAVE_CC = get_backend("c").is_available()
needs_cc = pytest.mark.skipif(not HAVE_CC, reason="no working C toolchain")

PROGRAM = "0123456789abcdef"
SERIAL = identity(PROGRAM, "serial", "/usr/bin/cc", ("-O3",))
OMP = identity(PROGRAM, "omp", "/usr/bin/cc", ("-O3", "-fopenmp"))


# ----------------------------------------------------------------------
# naming
# ----------------------------------------------------------------------
def test_program_digest_ignores_the_banner_and_nothing_else():
    body = "#include <stdint.h>\nint64_t kernel(void) { return 0; }\n"
    plain = program_digest("/* generated by repro.codegen.backends.c */\n" + body)
    assert plain == program_digest("/* generated by ... [842da28c6b6c] */\n" + body)
    assert plain != program_digest(body.replace("0;", "1;"))
    # a first line that is code — or a comment with code after it — counts
    assert program_digest("int a;\nint b;\n") != program_digest("int c;\nint b;\n")
    assert program_digest("/* x */ int a;\nint b;\n") != program_digest("int b;\n")


def test_identity_separates_kind_and_flag_set_and_parses_back(tmp_path):
    assert SERIAL != OMP and IDENTITY.fullmatch(SERIAL) and IDENTITY.fullmatch(OMP)
    assert identity(PROGRAM, "serial", "/usr/bin/cc", ("-O2",)) != SERIAL
    assert identity(PROGRAM, "serial", "/opt/cc", ("-O3",)) != SERIAL
    path = ObjectCache(tmp_path, prefix="abc.").adopt(SERIAL, b"bytes")
    assert os.path.basename(path).startswith("abc." + SERIAL + "-")
    assert identity_of(path) == SERIAL
    assert identity_of(str(tmp_path / "libm.so")) is None


# ----------------------------------------------------------------------
# verified lookup, adoption
# ----------------------------------------------------------------------
def test_lookup_verifies_bytes_against_the_name(tmp_path):
    cache = ObjectCache(tmp_path)
    assert cache.lookup(SERIAL) is None
    path = cache.adopt(SERIAL, b"the object")
    assert cache.lookup(SERIAL) == path
    assert cache.adopt(SERIAL, b"the object") == path  # already there
    damage(path, b"the obj")
    # a mismatch is an absent object: not returned, and removed
    assert cache.lookup(SERIAL) is None
    assert not os.path.exists(path)


def test_lookup_follows_the_preference_order(tmp_path):
    cache = ObjectCache(tmp_path)
    omp = cache.adopt(OMP, b"omp object")
    assert cache.lookup(SERIAL, OMP) == omp  # accepted in its absence
    serial = cache.adopt(SERIAL, b"serial object")
    assert cache.lookup(SERIAL, OMP) == serial  # preferred when present
    assert cache.lookup(OMP) == omp  # a threaded request takes nothing else
    # any object of the program, whatever built it
    assert cache.lookup(PROGRAM + "-serial-", PROGRAM + "-omp-") == serial
    assert cache.lookup("f" * 16 + "-serial-") is None


def test_instances_over_one_directory_are_told_apart_by_prefix(tmp_path):
    one, other = ObjectCache(tmp_path, "aaaa."), ObjectCache(tmp_path, "aaaabbbb.")
    path = other.adopt(SERIAL, b"x")
    assert one.lookup(SERIAL) is None and other.lookup(SERIAL) == path
    # adopting a file of another instance keeps its identity and bytes
    copied = one.adopt_file(path)
    assert identity_of(copied) == SERIAL and one.lookup(SERIAL) == copied
    damage(path, b"y")
    assert ObjectCache(tmp_path, "cccc.").adopt_file(path) is None
    assert one.adopt_file(str(tmp_path / "missing.so")) is None


def test_build_publishes_once_and_leaves_one_object_per_identity(tmp_path):
    cache = ObjectCache(tmp_path)
    runs = []

    def cc(c_path, out):
        runs.append(open(c_path).read())
        with open(out, "wb") as handle:
            handle.write(b"build %d" % len(runs))

    first = cache.build(SERIAL, "int x;\n", cc)
    assert cache.build(SERIAL, "int x;\n", cc) == first and len(runs) == 1
    assert runs == ["int x;\n"]
    forced = cache.build(SERIAL, "int x;\n", cc, force=True)
    assert forced != first and not os.path.exists(first)
    assert cache.lookup(SERIAL) == forced
    names = sorted(os.listdir(tmp_path))
    assert names == [os.path.basename(forced), "ck_%s.c" % PROGRAM]

    def failing(c_path, out):
        raise RuntimeError("cc exploded")

    with pytest.raises(RuntimeError):
        cache.build(OMP, "int x;\n", failing)
    assert sorted(os.listdir(tmp_path)) == names  # no temp, no lock


# ----------------------------------------------------------------------
# the helpers under it
# ----------------------------------------------------------------------
def test_atomic_write_replaces_whole_files_and_cleans_up(tmp_path, monkeypatch):
    target = tmp_path / "entry.json"
    flock.atomic_write(target, b"one")
    flock.atomic_write(str(target), b"two", fsync=False)
    assert target.read_bytes() == b"two"
    monkeypatch.setattr(os, "replace", lambda *a: (_ for _ in ()).throw(OSError("full")))
    with pytest.raises(OSError):
        flock.atomic_write(target, b"three")
    assert target.read_bytes() == b"two"
    assert [p.name for p in tmp_path.iterdir()] == ["entry.json"]


def test_single_flight_builds_once_and_waiters_take_the_published(tmp_path):
    lock_path = tmp_path / "x.lock"
    product = []
    building = threading.Event()
    release = threading.Event()

    def build():
        building.set()
        release.wait(timeout=30)
        product.append("built")
        return "built"

    # the holder is another "process": a lock file with a live foreign pid
    # cannot be forged portably, so the holder is this process (never
    # reclaimed) and the waiter a thread polling the same path
    leader = threading.Thread(
        target=flock.single_flight,
        args=(lock_path, lambda: None, build, 30.0, lambda: None),
    )
    leader.start()
    assert building.wait(timeout=30)
    answers = []
    waiter = threading.Thread(
        target=lambda: answers.append(
            flock.single_flight(
                lock_path, lambda: product[0] if product else None,
                lambda: "duplicate", 30.0, lambda: None,
            )
        )
    )
    waiter.start()
    release.set()
    leader.join(timeout=30)
    waiter.join(timeout=30)
    assert answers == ["built"] and not lock_path.exists()


def test_single_flight_waiter_builds_privately_past_the_timeout(tmp_path):
    lock_path = tmp_path / "x.lock"
    holder = flock.InterProcessLock(lock_path)
    assert holder.try_acquire()
    timeouts = []
    got = flock.single_flight(
        lock_path, lambda: None, lambda: "private", 0.05, lambda: timeouts.append(1)
    )
    assert got == "private" and timeouts == [1]
    assert lock_path.exists()  # the holder's lock is not the waiter's to drop
    holder.release()


def test_a_build_waits_the_lock_timeout_then_builds_privately(tmp_path, monkeypatch):
    """``ObjectCache.build`` reads :data:`flock.LOCK_TIMEOUT` when it waits:
    past it, a waiter on a held lock builds its own copy of the object."""
    cache = ObjectCache(tmp_path)
    holder = flock.InterProcessLock(tmp_path / ("ck_%s.lock" % SERIAL))
    assert holder.try_acquire()
    monkeypatch.setattr(flock, "LOCK_TIMEOUT", 0.05)
    runs = []

    def cc(c_path, out):
        runs.append(c_path)
        with open(out, "wb") as handle:
            handle.write(b"private")

    started = time.monotonic()
    try:
        path = cache.build(SERIAL, "int x;\n", cc)
    finally:
        holder.release()
    assert time.monotonic() - started < 60  # not the 120 s default wait
    assert len(runs) == 1 and cache.lookup(SERIAL) == path


# ----------------------------------------------------------------------
# a cut-short object never reaches dlopen (fresh processes throughout:
# the damaged file must not be mapped by the process that damages it)
# ----------------------------------------------------------------------
def _served(report, cc):
    code, seen = report
    assert code == 0, seen
    assert seen["backend"] == "c" and seen["cc"] == cc, seen
    assert seen["out"] == KERNEL_CHILD_RESULT
    return seen


@needs_cc
def test_truncated_object_in_the_process_cache_is_rebuilt_not_mapped(tmp_path):
    """Half an ELF in a persistent ``$REPRO_C_CACHE`` used to be handed to
    ``dlopen`` on ``os.path.exists`` alone: SIGBUS, exit code -7."""
    cache = tmp_path / "cc"
    built = _served(kernel_child(REPRO_C_CACHE=cache), cc=1)["so_path"]
    with open(built, "rb") as handle:
        blob = handle.read()
    damage(built, blob[: len(blob) // 2])
    rebuilt = _served(kernel_child(REPRO_C_CACHE=cache), cc=1)
    assert identity_of(rebuilt["so_path"]) == identity_of(built)
    _served(kernel_child(REPRO_C_CACHE=cache), cc=0)
    assert len(list(cache.glob("*.so"))) == 1


@needs_cc
def test_truncated_object_in_a_store_is_rebuilt_in_the_store(tmp_path):
    store = tmp_path / "store"
    first = _served(kernel_child(store, REPRO_C_CACHE=tmp_path / "cc1"), cc=1)
    assert first["compiles"] == 1
    (key,) = [p.stem for p in store.glob("*.json")]
    (stored,) = store_objects(store, key)
    damage(stored, stored.read_bytes()[: stored.stat().st_size // 2])
    # every reader brings an empty cache of its own: what it runs is the store's
    second = _served(kernel_child(store, REPRO_C_CACHE=tmp_path / "cc2"), cc=1)
    assert second["compiles"] == 0 and second["so_path"].startswith(str(store))
    third = _served(kernel_child(store, REPRO_C_CACHE=tmp_path / "cc3"), cc=0)
    assert third["compiles"] == 0 and third["so_path"] == second["so_path"]
    assert [str(p) for p in store_objects(store, key)] == [third["so_path"]]


def test_a_store_written_with_a_compiler_serves_a_host_without_one(tmp_path):
    """README's "no compiler needed on the serving host", on its positive
    side.  Runs in the no-compiler CI leg too: the writer child drops the
    ambient ``REPRO_NO_CC``, and skips when there really is no compiler."""
    store = tmp_path / "store"
    code, written = kernel_child(store, REPRO_C_CACHE=tmp_path / "cc1")
    if code != 0 or written.get("backend") != "c":
        pytest.skip("no working C toolchain: %r" % (written,))
    served = _served(
        kernel_child(store, REPRO_C_CACHE=tmp_path / "cc2", REPRO_NO_CC=1), cc=0
    )
    assert served["dlopen"] == 1 and served["compiles"] == 0
    assert served["so_path"].startswith(str(store))
    assert not (tmp_path / "cc2").exists() or not list((tmp_path / "cc2").iterdir())
