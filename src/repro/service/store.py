"""On-disk kernel store: persisted compile results, rehydrated on demand.

Each entry is one JSON file ``<key>.json`` under the store directory,
holding the :meth:`CompiledKernel.to_state` snapshot (generated source +
lowered metadata + plan summary).  Loading an entry re-``exec``'s the
source but never re-runs the pass pipeline, so a warm store turns process
startup cost into microseconds per kernel.

Kernels built by the C backend keep their compiled objects here too: the
store directory is an instance of the object cache
(:mod:`repro.codegen.backends.objects`) whose file names start with the
entry's key.  ``put`` adopts the object the kernel is running; ``get``
hands the instance to the backend, which finds the object by the cache's
verified lookup (one object per index width: the source decides whether
it is the serial or the OpenMP one) and builds a damaged or missing one
— or the wide-index one, on first need — straight into the store, where
the next process finds it.

Writes are atomic (:func:`repro.core.flock.atomic_write`) so a crashed
writer never leaves or publishes a half-written entry, and the JSON entry
— the commit point, written after the object — is never rewritten by a
reader; reads that fail are counted as ``errors`` (distinct from
``misses``) and answered with ``None`` — a cache must never be the thing
that takes the service down.  Writes are likewise best-effort: a full or
read-only disk costs persistence, not the compile result (``put`` returns
``False``).

Fault-injection points (:mod:`repro.faults`): ``store.get`` (corrupt /
truncate-so / fail) and ``store.put`` (enospc / eacces / partial / fail).
"""

from __future__ import annotations

import errno
import json
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple, Union

from repro import faults
from repro.codegen.backends import BackendError
from repro.codegen.backends.objects import ObjectCache
from repro.core.compiler import STATE_VERSION, CompiledKernel
from repro.core.config import knob
from repro.core.flock import InterProcessLock, atomic_write
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace


@dataclass(frozen=True)
class StoreEntry:
    """Metadata about one persisted kernel (for listings and the CLI)."""

    key: str
    einsum: str
    options_line: str
    naive: bool
    size_bytes: int


def _dumps(payload: dict) -> str:
    """One entry as JSON text.  Compact: the persisted loop program is a
    deep tree of short lists, which indentation would inflate sixfold."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


class DiskStore:
    """A directory of persisted kernel states, addressed by cache key.

    ``max_bytes`` (default ``$REPRO_STORE_MAX_BYTES``; ``None`` =
    unbounded) bounds the store's total size: every successful ``put``
    triggers an LRU-by-access-time :meth:`gc` pass, so a long-lived
    daemon that owns the store cannot grow it into an outage.  Reads
    refresh an entry's access time explicitly (``relatime``/``noatime``
    mounts would otherwise starve the LRU of signal).
    """

    def __init__(
        self, path: Union[str, Path], max_bytes: Optional[int] = None
    ):
        self.path = Path(path)
        if self.path.exists() and not self.path.is_dir():
            raise NotADirectoryError(
                "disk store path %s exists and is not a directory" % self.path
            )
        self.path.mkdir(parents=True, exist_ok=True)
        self.max_bytes = knob("REPRO_STORE_MAX_BYTES") if max_bytes is None else (
            max_bytes if max_bytes > 0 else None
        )
        self.hits = 0
        self.misses = 0
        self.errors = 0
        self.evictions = 0

    # ------------------------------------------------------------------
    @staticmethod
    def _is_key(stem: str) -> bool:
        return bool(stem) and all(c in "0123456789abcdef" for c in stem)

    def _file(self, key: str) -> Path:
        if not self._is_key(key):
            raise ValueError("malformed cache key %r" % (key,))
        return self.path / ("%s.json" % key)

    def _files(self, key: str) -> List[Path]:
        """Everything on disk that belongs to *key* — entry, objects, built
        sources — but not its lock files, which belong to their holders."""
        return [p for p in self.path.glob("%s.*" % key) if p.suffix != ".lock"]

    def put(self, key: str, kernel: CompiledKernel) -> bool:
        """Persist a compiled kernel under *key* (atomic overwrite).

        C-backend kernels also persist the shared object they run, so
        later processes skip the compiler entirely.

        Persistence is best-effort: a write failure (full disk, read-only
        directory) is counted in ``errors`` and reported as ``False`` —
        the caller keeps its in-memory kernel either way.
        """
        with obs_trace.span("store:put", key=key[:12]) as sp:
            try:
                self._put(key, kernel)
            except OSError:
                self.errors += 1
                obs_metrics.inc("store.put_errors")
                sp.add(ok=False)
                return False
        if self.max_bytes is not None:
            self.gc()
        return True

    def _put(self, key: str, kernel: CompiledKernel) -> None:
        fault = faults.poll("store.put")
        if fault is not None:
            if fault.action == "enospc":
                raise OSError(errno.ENOSPC, "injected: no space left on device")
            if fault.action == "eacces":
                raise PermissionError(errno.EACCES, "injected: permission denied")
            if fault.action == "fail":
                raise OSError("injected: store write failure for %s" % key)
            # "partial" handled below: publish a truncated JSON entry
        raw = _dumps({"key": key, "state": kernel.to_state()}).encode("utf-8")
        if fault is not None and fault.action == "partial":
            # simulate a torn entry reaching the store (e.g. a writer
            # without the fsync+rename discipline): readers must treat it
            # as corrupt, never crash
            atomic_write(self._file(key), raw[: len(raw) // 2])
            return
        so_path = getattr(kernel.bound.executable, "so_path", None)
        if so_path is not None:
            # the object lands before the JSON entry: the entry is the
            # commit point, and a process that can see it (single-flight
            # waiters poll for exactly that) must also find the object —
            # the reverse order makes waiters recompile a published kernel.
            # (An object that cannot be read back — build dir vanished —
            # costs the next reader a cc run; the entry still works.)
            ObjectCache(self.path, "%s." % key).adopt_file(so_path)
        atomic_write(self._file(key), raw)

    def get(self, key: str) -> Optional[CompiledKernel]:
        """Rehydrate the kernel stored under *key*, or ``None`` on a miss.

        An absent entry is a *miss*; an entry that exists but cannot be
        served — corrupt, version-skewed, unreadable, or unrunnable on
        this host — is an *error* (kept distinct so operators can tell "a
        cold cache" from "a failing one").  Corrupt and skewed entries
        are removed; entries another host could serve (and transient I/O
        failures) are kept.  Every failure answers ``None`` — the caller
        falls through to a fresh compile.
        """
        with obs_trace.span("store:get", key=key[:12]) as sp:
            kernel = self._get(key)
            sp.add(hit=kernel is not None)
        return kernel

    def _get(self, key: str) -> Optional[CompiledKernel]:
        path = self._file(key)
        fault = faults.poll("store.get")
        try:
            if fault is not None and fault.action == "fail":
                raise OSError("injected: store read failure for %s" % key)
            with open(path, "r") as handle:
                payload = json.load(handle)
            if fault is not None and fault.action == "corrupt":
                raise ValueError("injected: corrupt entry %s" % key)
            state = payload["state"]
            if state.get("state_version") != STATE_VERSION:
                raise ValueError("state version skew")
            if fault is not None and fault.action == "truncate-so":
                # as if the hash check rejected every object of the entry
                for stale in self._files(key):
                    if stale.suffix == ".so":
                        stale.unlink()
            kernel = CompiledKernel.from_state(
                state, label=key[:12], objects=ObjectCache(self.path, "%s." % key)
            )
        except FileNotFoundError:
            self.misses += 1
            return None
        except BackendError:
            # the entry is fine, this *host* can't run it (no compiler, or
            # a local build failure): error, but keep the entry — and its
            # objects — for hosts that can
            self.errors += 1
            obs_metrics.inc("store.get_errors")
            return None
        except OSError:
            # transient I/O (EIO, injected read failure): the entry may be
            # perfectly healthy — never destroy it for a flaky read
            self.errors += 1
            obs_metrics.inc("store.get_errors")
            return None
        except Exception:
            self.errors += 1
            obs_metrics.inc("store.get_errors")
            self.remove(key)  # drops its objects too
            return None
        self.hits += 1
        self._touch(path)
        return kernel

    @staticmethod
    def _touch(path: Path) -> None:
        """Refresh *path*'s access time (LRU signal for :meth:`gc`) —
        mount options like ``noatime`` make implicit atime unreliable."""
        try:
            os.utime(str(path), ns=(time.time_ns(), path.stat().st_mtime_ns))
        except OSError:
            pass

    # ------------------------------------------------------------------
    def __contains__(self, key: str) -> bool:
        return self._file(key).exists()

    def __len__(self) -> int:
        return sum(1 for _ in self.keys())

    def keys(self) -> Iterator[str]:
        """Stems of well-formed entries only — foreign ``*.json`` files a
        user (or another tool) drops into the directory are ignored, so
        ``clear``/``remove``/``len`` never trip over them."""
        for path in sorted(self.path.glob("*.json")):
            if self._is_key(path.stem):
                yield path.stem

    def remove(self, key: str) -> bool:
        """Delete *key*'s entry — first: it is the commit point — and
        everything stored with it; ``True`` when there was an entry."""
        found = True
        try:
            os.unlink(self._file(key))
        except FileNotFoundError:
            found = False
        for path in self._files(key):
            try:
                path.unlink()
            except OSError:
                pass
        return found

    def clear(self) -> int:
        n = 0
        for key in list(self.keys()):
            n += self.remove(key)
        return n

    # ------------------------------------------------------------------
    # size bound
    # ------------------------------------------------------------------
    def _sizes(self) -> Dict[str, int]:
        """On-disk bytes of every well-formed entry (JSON + objects +
        built sources), from one pass over the directory."""
        sizes = {key: 0 for key in self.keys()}
        with os.scandir(self.path) as listing:
            for item in listing:
                key = item.name.partition(".")[0]
                if key in sizes and not item.name.endswith(".lock"):
                    try:
                        sizes[key] += item.stat().st_size
                    except OSError:
                        pass
        return sizes

    def entry_bytes(self, key: str) -> int:
        """Total on-disk size of one entry."""
        return self._sizes().get(key, 0)

    def size_bytes(self) -> int:
        """Total on-disk size of every well-formed entry."""
        return sum(self._sizes().values())

    def gc(self, max_bytes: Optional[int] = None) -> Tuple[int, int]:
        """Evict least-recently-used entries until the store fits.

        Recency is the JSON entry's access time (refreshed explicitly on
        every hit, so ``noatime`` mounts behave).  An entry is evicted
        under its ``<key>.lock``: while a live process holds that —
        compiling or publishing the key right now — it is skipped, and a
        dead holder's lock is reclaimed like anywhere else.  Returns
        ``(entries_removed, bytes_freed)``.
        """
        limit = self.max_bytes if max_bytes is None else max_bytes
        if limit is None:
            return (0, 0)
        aged = []
        total = 0
        for key, size in self._sizes().items():
            total += size
            try:
                stamp = self._file(key).stat().st_atime
            except OSError:
                stamp = 0.0
            aged.append((stamp, key, size))
        removed = 0
        freed = 0
        if total <= limit:
            return (0, 0)
        for stamp, key, size in sorted(aged):
            if total - freed <= limit:
                break
            with InterProcessLock(self.path / ("%s.lock" % key)) as lock:
                if not lock.try_acquire():
                    continue  # mid-publication: never evict under a builder
                if self.remove(key):
                    removed += 1
                    freed += size
                    self.evictions += 1
                    obs_metrics.inc("store.evictions")
        return (removed, freed)

    def entries(self) -> List[StoreEntry]:
        """Listing metadata for every readable entry (CLI support)."""
        from repro.core.config import CompilerOptions

        out: List[StoreEntry] = []
        for path in sorted(self.path.glob("*.json")):
            if not self._is_key(path.stem):
                continue
            try:
                with open(path, "r") as handle:
                    payload = json.load(handle)
                state = payload["state"]
                options = CompilerOptions.from_dict(state["options"])
                out.append(
                    StoreEntry(
                        key=path.stem,
                        einsum=state["einsum"],
                        options_line=options.describe(),
                        naive="naive" in state["history"],
                        size_bytes=path.stat().st_size,
                    )
                )
            except Exception:
                self.errors += 1
        return out
