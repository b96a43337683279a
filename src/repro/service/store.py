"""On-disk kernel store: persisted compile results, rehydrated on demand.

Each entry is one JSON file ``<key>.json`` under the store directory,
holding the :meth:`CompiledKernel.to_state` snapshot (generated source +
lowered metadata + plan summary).  Loading an entry re-``exec``'s the
source but never re-runs the pass pipeline, so a warm store turns process
startup cost into microseconds per kernel.

Kernels built by the C backend additionally persist their generated C
source (``<key>.c``, for inspection) and the compiled shared object
(``<key>.so``): rehydration hands the ``.so`` to the backend, which
reuses it directly and only recompiles when the artifact is corrupt or
from a foreign architecture.  The ``.so`` is whichever object the kernel
was running when it was stored — the serial build for a kernel that only
ever ran on one thread, the OpenMP build otherwise (the loaded object
says which, :attr:`CExecutable.kind`).  A process that rehydrates a
serial artifact under a thread setting above 1 upgrades it (one ``cc``
run) and the store then keeps the OpenMP object, which also serves
serial callers; an OpenMP artifact is never replaced by a serial one.

Writes are atomic (temp file + fsync + ``os.replace``) so a crashed
writer never leaves or publishes a half-written entry; reads that fail
are counted as ``errors`` (distinct from ``misses``) and answered with
``None`` — a cache must never be the thing that takes the service down.
Writes are likewise best-effort: a full or read-only disk costs
persistence, not the compile result (``put`` returns ``False``).

Fault-injection points (:mod:`repro.faults`): ``store.get`` (corrupt /
truncate-so / fail) and ``store.put`` (enospc / eacces / partial / fail).
"""

from __future__ import annotations

import errno
import hashlib
import json
import os
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, List, Optional, Tuple, Union

from repro import faults
from repro.codegen.backends import BackendError
from repro.core.compiler import STATE_VERSION, CompiledKernel
from repro.core.config import knob
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

    def put(self, key: str, kernel: CompiledKernel) -> bool:
        """Persist a compiled kernel under *key* (atomic overwrite).

        C-backend kernels also persist their generated C source and the
        compiled shared object, so later processes skip the compiler
        entirely.  The JSON entry records the artifact's content hash:
        ``get`` refuses to ``dlopen`` a shared object that does not match
        it (a *truncated* ELF can crash the whole process inside dlopen,
        not just fail to load — the hash check turns that into a clean
        recompile).

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
        executable = kernel.bound.executable
        so_path = getattr(executable, "so_path", None)
        blob = None
        if so_path is not None:
            try:
                with open(so_path, "rb") as handle:
                    blob = handle.read()
            except OSError:
                blob = None  # build dir vanished: the JSON entry still works
        payload = {"key": key, "state": kernel.to_state()}
        if blob is not None:
            payload["artifact_sha256"] = hashlib.sha256(blob).hexdigest()
        data = _dumps(payload)
        raw = data.encode("utf-8")
        if fault is not None and fault.action == "partial":
            # simulate a torn entry reaching the store (e.g. a writer
            # without the fsync+rename discipline): readers must treat it
            # as corrupt, never crash
            self._atomic_write(self._file(key), raw[: len(raw) // 2], key)
            return
        if so_path is not None:
            # sidecars land before the JSON entry: the entry is the commit
            # point, and a process that can see it (single-flight waiters
            # poll for exactly that) must also find the artifact — the
            # reverse order makes waiters recompile a published kernel
            self._atomic_write(
                self.path / ("%s.c" % key),
                executable.source.encode("utf-8"),
                key,
            )
            if blob is not None:
                self._atomic_write(self.path / ("%s.so" % key), blob, key)
        self._atomic_write(self._file(key), raw, key)

    def _atomic_write(self, target: Path, blob: bytes, key: str) -> None:
        fd, tmp = tempfile.mkstemp(
            dir=str(self.path), prefix=".%s." % key[:12], suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(blob)
                handle.flush()
                # fsync before the rename: os.replace is atomic in the
                # namespace but not in the data — after a crash, a renamed
                # file whose bytes never hit disk reads back empty
                os.fsync(handle.fileno())
            os.replace(tmp, target)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

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
            artifact = self._verified_artifact(key, payload)
            if fault is not None and fault.action == "truncate-so":
                artifact = None  # as if the hash check rejected the .so
            kernel = CompiledKernel.from_state(
                state, label=key[:12], artifact=artifact
            )
            self._heal_artifact(key, kernel, artifact, payload)
        except FileNotFoundError:
            self.misses += 1
            return None
        except BackendError:
            # the entry is fine, this *host* can't run it (no compiler, or
            # a local build failure): error, but keep the entry — and its
            # artifacts — for hosts that can
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
            self.remove(key)  # drops the .c/.so siblings too
            return None
        self.hits += 1
        self._touch(path)
        return kernel

    @staticmethod
    def _touch(path: Path) -> None:
        """Refresh *path*'s access time (LRU signal for :meth:`gc`) —
        mount options like ``noatime`` make implicit atime unreliable."""
        try:
            stat = path.stat()
            os.utime(str(path), times=(time.time(), stat.st_mtime))
        except OSError:
            pass

    def _verified_artifact(self, key: str, payload) -> Optional[str]:
        """Path of ``<key>.so`` iff its bytes match the recorded hash.

        A mismatched or unhashed shared object is *never* handed to
        ``dlopen``: a truncated mapping can take the process down with
        SIGBUS rather than raising.  Returning ``None`` routes the entry
        through a clean rebuild (and :meth:`_heal_artifact` repairs the
        file afterwards).
        """
        so_path = self.path / ("%s.so" % key)
        digest = payload.get("artifact_sha256")
        if digest is None or not so_path.exists():
            return None
        try:
            with open(so_path, "rb") as handle:
                blob = handle.read()
        except OSError:
            return None
        if hashlib.sha256(blob).hexdigest() != digest:
            return None
        return str(so_path)

    def _heal_artifact(
        self, key, kernel, artifact: Optional[str], payload
    ) -> None:
        """Refresh ``<key>.so`` (and its recorded hash) when the backend
        did not run the persisted artifact (it was corrupt, truncated,
        absent, or a serial object that a threaded caller upgraded to the
        OpenMP one): otherwise every future process would pay a failed
        load + recompile — or the upgrade — for this entry again."""
        executable = kernel.bound.executable
        so_path = getattr(executable, "so_path", None)
        if so_path is None or so_path == artifact:
            return
        try:
            with open(so_path, "rb") as handle:
                blob = handle.read()
            digest = hashlib.sha256(blob).hexdigest()
            if artifact is not None and digest == payload.get("artifact_sha256"):
                return  # the verified sidecar already holds these bytes
            payload = dict(payload)
            payload["artifact_sha256"] = digest
            data = _dumps(payload)
            # same commit discipline as _put: artifact first, entry second
            self._atomic_write(self.path / ("%s.so" % key), blob, key)
            self._atomic_write(self._file(key), data.encode("utf-8"), key)
        except OSError:
            pass  # healing is best-effort; the entry itself is fine

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
        for suffix in (".c", ".so"):
            try:
                os.unlink(str(self.path / (key + suffix)))
            except OSError:
                pass
        try:
            os.unlink(self._file(key))
            return True
        except FileNotFoundError:
            return False

    def clear(self) -> int:
        n = 0
        for key in list(self.keys()):
            n += self.remove(key)
        return n

    # ------------------------------------------------------------------
    # size bound
    # ------------------------------------------------------------------
    def entry_bytes(self, key: str) -> int:
        """Total on-disk size of one entry (JSON + ``.c`` + ``.so``)."""
        total = 0
        for suffix in (".json", ".c", ".so"):
            try:
                total += (self.path / (key + suffix)).stat().st_size
            except OSError:
                pass
        return total

    def size_bytes(self) -> int:
        """Total on-disk size of every well-formed entry."""
        return sum(self.entry_bytes(key) for key in self.keys())

    def gc(self, max_bytes: Optional[int] = None) -> Tuple[int, int]:
        """Evict least-recently-used entries until the store fits.

        Recency is the JSON entry's access time (refreshed explicitly on
        every hit, so ``noatime`` mounts behave).  Entries whose
        ``<key>.lock`` file exists are skipped — another process is
        compiling/publishing that key right now, and evicting under it
        would race the publication.  Returns ``(entries_removed,
        bytes_freed)``.
        """
        limit = self.max_bytes if max_bytes is None else max_bytes
        if limit is None:
            return (0, 0)
        aged = []
        total = 0
        for key in self.keys():
            size = self.entry_bytes(key)
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
            if (self.path / ("%s.lock" % key)).exists():
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
                        naive=not options.output_canonical
                        and "naive" in state.get("history", []),
                        size_bytes=path.stat().st_size,
                    )
                )
            except Exception:
                self.errors += 1
        return out
