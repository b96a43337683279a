"""Advisory inter-process lock files (cross-process single-flight).

A lock is a PID-stamped file created with ``O_CREAT | O_EXCL`` — atomic
on POSIX local filesystems (NFS before v4 does not guarantee it; the
artifact paths this guards are content-addressed, so a lost race there
costs a duplicate compile, never corruption).

Stale locks from dead holders are *reclaimed*: a contender that finds the
holder PID no longer alive renames the lock file to a unique name before
unlinking it, so exactly one contender breaks the lock even when several
discover the corpse simultaneously — the rename loser simply retries.
A lock file whose PID cannot be read yet (the holder is between ``open``
and ``write``) is given a short grace period before being treated as
stale.

On the lock sit the two helpers every cross-process publisher goes
through: :func:`single_flight`, the one poll loop that elects a builder
(:class:`repro.codegen.backends.objects.ObjectCache`: one ``cc`` run per
object; :class:`repro.service.engine.KernelService`: one compile per key
of a shared disk store), and :func:`atomic_write`, the one temp + fsync +
rename.  They live in :mod:`repro.core` because both of those layers
import them — the service package already depends on the backends
package, so placing them there would cycle.
"""

from __future__ import annotations

import os
import tempfile
import time
from typing import Callable, Optional, Union

#: seconds an unreadable (empty / mid-write) lock file is trusted before
#: it is treated as stale.
UNREADABLE_GRACE = 10.0

#: seconds between a waiter's looks at a contended lock — shorter than
#: anything it waits on (a python-backend compile is 1-35 ms, a ``cc`` run
#: ~100 ms).
POLL = 0.02


class InterProcessLock:
    """A non-blocking, reclaimable PID lock file.

    Not reentrant and not thread-safe per instance — use one instance per
    acquisition attempt (they are two ints and a string).
    """

    def __init__(self, path: Union[str, os.PathLike]):
        self.path = str(path)
        self.held = False

    # ------------------------------------------------------------------
    def try_acquire(self) -> bool:
        """One acquisition attempt; reclaims a stale lock but does not
        wait on a live one."""
        for _ in range(2):  # second pass after a successful reclaim
            try:
                fd = os.open(
                    self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644
                )
            except FileExistsError:
                if not self._reclaim_stale():
                    return False
                continue
            except OSError:
                return False  # unwritable directory: behave as contended
            try:
                os.write(fd, b"%d\n" % os.getpid())
            finally:
                os.close(fd)
            self.held = True
            return True
        return False

    def release(self) -> None:
        if not self.held:
            return
        self.held = False
        try:
            os.unlink(self.path)
        except OSError:
            pass

    def __enter__(self) -> "InterProcessLock":
        return self

    def __exit__(self, *exc) -> None:
        self.release()

    # ------------------------------------------------------------------
    def holder_pid(self) -> Optional[int]:
        """PID recorded in the lock file, or ``None`` when unreadable."""
        try:
            with open(self.path, "r") as handle:
                return int(handle.read().strip() or "x")
        except (OSError, ValueError):
            return None

    def _is_stale(self) -> bool:
        pid = self.holder_pid()
        if pid is None:
            # unreadable: either mid-write (fresh) or torn — trust it for
            # a grace period, then treat as stale
            try:
                age = time.time() - os.stat(self.path).st_mtime
            except OSError:
                return False  # vanished: not stale, just gone
            return age > UNREADABLE_GRACE
        if pid == os.getpid():
            return False  # our own (a reentrant misuse): never break it
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return True  # holder is dead
        except PermissionError:
            return False  # alive, owned by another user
        except OSError:
            return False
        return False

    def _reclaim_stale(self) -> bool:
        """Break a stale lock; returns True when *this* process broke it
        (losers of the rename race return False and re-wait)."""
        if not self._is_stale():
            return False
        corpse = "%s.stale-%d" % (self.path, os.getpid())
        try:
            os.rename(self.path, corpse)  # exactly one renamer wins
        except OSError:
            return False
        try:
            os.unlink(corpse)
        except OSError:
            pass
        return True


def single_flight(
    lock_path: Union[str, os.PathLike],
    published: Callable[[], Optional[object]],
    build: Callable[[], object],
    timeout: float,
    on_timeout: Callable[[], None],
):
    """Elect one builder per *lock_path* across processes.

    The lock holder runs ``build()`` (make and publish, return the
    product); everyone else polls ``published()`` (the product or ``None``)
    rather than duplicating the work.  A waiter that outlives *timeout*
    seconds calls ``on_timeout()`` and builds privately — wasteful, never
    wrong, since publication is atomic either way.
    """
    lock = InterProcessLock(lock_path)
    deadline = time.monotonic() + timeout
    try:
        while not lock.try_acquire():
            found = published()
            if found is not None:
                return found
            if time.monotonic() >= deadline:
                on_timeout()
                break
            time.sleep(POLL)
        else:
            # the previous holder may have published while this one waited
            found = published()
            if found is not None:
                return found
        return build()
    finally:
        lock.release()


def atomic_write(
    path: Union[str, os.PathLike], data: bytes, fsync: bool = True
) -> None:
    """Publish *data* at *path* so that no reader ever sees part of it: a
    unique temp in the target directory, fsync, ``os.replace``, the temp
    removed on any failure.  The fsync is what makes the rename safe across
    a crash — ``os.replace`` is atomic in the namespace, not in the data,
    and a renamed file whose bytes never hit the disk reads back empty;
    ``fsync=False`` is for files nobody trusts after one."""
    path = os.fspath(path)
    fd, tmp = tempfile.mkstemp(
        dir=os.path.dirname(path) or ".", prefix=".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            if fsync:
                handle.flush()
                os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
