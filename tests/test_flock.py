"""Advisory inter-process lock files: acquisition, contention, staleness.

Staleness is simulated rather than produced (killing real child
processes mid-acquire is flaky); the multiprocessing stress test in
``test_multiprocess.py`` exercises live cross-process contention.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.core import flock
from repro.core.flock import InterProcessLock


def test_acquire_release_cycle(tmp_path):
    path = tmp_path / "x.lock"
    lock = InterProcessLock(path)
    assert lock.try_acquire()
    assert path.exists()
    assert lock.holder_pid() == os.getpid()
    lock.release()
    assert not path.exists()
    # reusable after release
    assert lock.try_acquire()
    lock.release()


def test_contended_lock_not_acquired(tmp_path):
    path = tmp_path / "x.lock"
    first = InterProcessLock(path)
    assert first.try_acquire()
    second = InterProcessLock(path)
    # the holder (this process) is alive: never stolen
    assert not second.try_acquire()
    first.release()
    assert second.try_acquire()
    second.release()


def test_release_without_acquire_is_noop(tmp_path):
    lock = InterProcessLock(tmp_path / "x.lock")
    lock.release()  # must not raise, must not unlink anything else


def test_context_manager_releases(tmp_path):
    path = tmp_path / "x.lock"
    with InterProcessLock(path) as lock:
        acquired = lock.try_acquire()
        assert acquired
    assert not path.exists()


def test_dead_holder_is_reclaimed(tmp_path):
    path = tmp_path / "x.lock"
    # forge a lock held by a PID that cannot exist
    dead = 2 ** 22 + 1  # beyond default pid_max on Linux
    path.write_text("%d\n" % dead)
    lock = InterProcessLock(path)
    assert lock.try_acquire()
    assert lock.holder_pid() == os.getpid()
    lock.release()


def test_unreadable_lock_respects_grace(tmp_path, monkeypatch):
    path = tmp_path / "x.lock"
    path.write_text("")  # mid-write: no pid yet
    lock = InterProcessLock(path)
    # fresh unreadable lock is trusted...
    assert not lock.try_acquire()
    # ...until the grace period passes
    old = time.time() - flock.UNREADABLE_GRACE - 1
    os.utime(path, (old, old))
    assert lock.try_acquire()
    lock.release()


def test_garbage_pid_follows_unreadable_path(tmp_path):
    path = tmp_path / "x.lock"
    path.write_text("not-a-pid\n")
    lock = InterProcessLock(path)
    assert lock.holder_pid() is None
    assert not lock.try_acquire()  # within grace: trusted
    old = time.time() - flock.UNREADABLE_GRACE - 1
    os.utime(path, (old, old))
    assert lock.try_acquire()
    lock.release()


def test_own_pid_never_broken(tmp_path):
    path = tmp_path / "x.lock"
    path.write_text("%d\n" % os.getpid())  # as if re-entered
    lock = InterProcessLock(path)
    assert not lock.try_acquire()


def test_unwritable_directory_behaves_as_contended(tmp_path):
    if os.geteuid() == 0:
        pytest.skip("root ignores directory permissions")
    sub = tmp_path / "ro"
    sub.mkdir()
    sub.chmod(0o555)
    try:
        lock = InterProcessLock(sub / "x.lock")
        assert not lock.try_acquire()
    finally:
        sub.chmod(0o755)


def test_acquire_times_out_and_then_succeeds(tmp_path):
    path = tmp_path / "x.lock"
    holder = InterProcessLock(path)
    assert holder.try_acquire()
    timeouts = []

    def wait():
        return flock.single_flight(
            path, lambda: None, lambda: "built", 0.1, lambda: timeouts.append(1)
        )

    start = time.monotonic()
    assert wait() == "built"  # privately: the holder never let go
    assert time.monotonic() - start >= 0.1 and timeouts == [1]
    holder.release()
    assert wait() == "built" and timeouts == [1]  # acquired: no second timeout
    assert not path.exists()
