"""The kernel service facade: compile once, serve forever.

:class:`KernelService` is the recommended entry point for any workload
that compiles more than a handful of kernels: it content-addresses every
compile request (:mod:`repro.service.keys`), serves repeats from an
in-memory LRU (:mod:`repro.service.cache`), optionally persists compiled
kernels to disk (:mod:`repro.service.store`) so later *processes* skip the
pass pipeline too.  A caller that runs one input set again holds the
kernel's :meth:`~repro.core.compiler.CompiledKernel.execution_plan`:
preparation is paid once, each call runs the loops.

Lookup path on ``get_or_compile``:  memory LRU -> disk store (rehydrate +
promote into memory) -> cold compile (insert into both).

The disk store is how processes share compiles: every process (the
``repro serve`` daemon included) that opens one directory elects a single
compiler per key and rehydrates what another published.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro import faults
from repro.core import flock
from repro.core.compiler import CompiledKernel
from repro.core.config import CompilerOptions, DEFAULT
from repro.core.flock import single_flight
from repro.faults.spec import FaultError
from repro.frontend.einsum import Assignment
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.service.cache import CacheStats, LRUKernelCache
from repro.service.keys import CompileRequest, canonicalize
from repro.service.store import DiskStore


@dataclass(frozen=True)
class ServiceStats:
    """Aggregate service counters: memory cache + disk store + compiles."""

    memory: CacheStats
    compiles: int
    disk_hits: int
    disk_misses: int
    disk_errors: int
    disk_entries: int

    @property
    def hit_rate(self) -> float:
        """Memory-cache hit rate (division-safe: 0.0 before any lookup)."""
        return self.memory.hit_rate

    @property
    def disk_lookups(self) -> int:
        """Every disk probe: hits + misses + errors (an errored lookup is
        neither a hit nor a miss — the entry existed but failed)."""
        return self.disk_hits + self.disk_misses + self.disk_errors

    @property
    def disk_hit_rate(self) -> float:
        """Disk-store hit rate (division-safe: 0.0 before any lookup)."""
        return self.disk_hits / self.disk_lookups if self.disk_lookups else 0.0

    def to_dict(self) -> dict:
        """JSON-ready snapshot (``repro stats --json``).

        When ``REPRO_METRICS`` is live, the process-wide metrics registry
        (counters + latency histograms) rides along under ``"metrics"``.
        """
        out = {
            "memory": self.memory.to_dict(),
            "compiles": self.compiles,
            "disk": {
                "entries": self.disk_entries,
                "hits": self.disk_hits,
                "misses": self.disk_misses,
                "errors": self.disk_errors,
                "hit_rate": self.disk_hit_rate,
            },
        }
        if obs_metrics.enabled():
            out["metrics"] = obs_metrics.to_dict()
        return out

    def describe(self) -> str:
        lines = ["memory: %s" % self.memory.describe()]
        lines.append("compiles: %d" % self.compiles)
        if self.disk_hits or self.disk_misses or self.disk_errors or self.disk_entries:
            lines.append(
                "disk: %d entries, %d hits / %d misses, %d errors"
                % (
                    self.disk_entries,
                    self.disk_hits,
                    self.disk_misses,
                    self.disk_errors,
                )
            )
        return "\n".join(lines)


@dataclass(frozen=True)
class WarmupReport:
    """One warmed kernel: where it came from and what it cost."""

    name: str
    key: str
    source: str  # "memory" | "disk" | "compiled"
    seconds: float


class KernelService:
    """Content-addressed compile cache: memory LRU, disk store, compiler.

    Parameters
    ----------
    capacity:
        maximum kernels resident in the in-memory LRU.
    store:
        a :class:`DiskStore`, a directory path to create one in, or
        ``None`` for a memory-only service.
    """

    def __init__(
        self,
        capacity: int = 128,
        store: Union[DiskStore, str, Path, None] = None,
    ):
        self.cache = LRUKernelCache(capacity)
        if store is not None and not isinstance(store, DiskStore):
            store = DiskStore(store)
        self.store: Optional[DiskStore] = store
        self._compiles = 0
        self._lock = threading.Lock()
        #: single-flight guard: key -> Event set when the leader finishes.
        #: Concurrent misses on one key compile once; followers wait.
        self._inflight: Dict[str, threading.Event] = {}

    # ------------------------------------------------------------------
    # the core lookup
    # ------------------------------------------------------------------
    def get_or_compile(
        self,
        einsum: Union[str, Assignment],
        symmetric: Optional[Mapping] = None,
        loop_order: Optional[Sequence[str]] = None,
        formats: Optional[Mapping[str, str]] = None,
        options: CompilerOptions = DEFAULT,
        naive: bool = False,
        sparse_levels: Optional[Mapping[str, Sequence[str]]] = None,
    ) -> CompiledKernel:
        """The cached equivalent of :func:`repro.core.compiler.compile_kernel`."""
        with obs_trace.span("service:canonicalize"):
            request = canonicalize(
                einsum, symmetric, loop_order, formats, options, naive, sparse_levels
            )
        return self.get_or_compile_request(request)

    def get_or_compile_request(self, request: CompileRequest) -> CompiledKernel:
        """Serve an already-canonical request (memory -> disk -> compile).

        Thread-safe with single-flight semantics: when several threads
        miss on the same key simultaneously, one compiles while the rest
        wait and then read the cached result — the pass pipeline and the
        C toolchain run once per key, not once per caller.
        """
        return self.get_with_origin(request)[0]

    def get_with_origin(
        self, request: CompileRequest
    ) -> Tuple[CompiledKernel, str]:
        """Like :meth:`get_or_compile_request`, also reporting provenance:
        ``"memory"`` / ``"disk"`` / ``"compiled"``.  The daemon serves its
        wire replies through this so clients see where an answer came
        from."""
        key = request.key
        with obs_trace.span("service:lookup", key=key[:12]) as sp:
            kernel, origin = self._serve(key, request)
            sp.add(origin=origin)
        obs_metrics.inc("service.requests")
        obs_metrics.inc("service.origin.%s" % origin)
        return kernel, origin

    def _serve(self, key: str, request: CompileRequest) -> Tuple[CompiledKernel, str]:
        """The lookup loop; returns ``(kernel, origin)`` with origin one
        of ``"memory"`` / ``"disk"`` / ``"compiled"`` (a follower that
        waited out another thread's compile reports ``"memory"`` — that
        is where its answer came from)."""
        while True:
            with self._lock:
                kernel = self.cache.get(key)
                if kernel is not None:
                    return kernel, "memory"
                event = self._inflight.get(key)
                if event is None:
                    event = threading.Event()
                    self._inflight[key] = event
                    leader = True
                else:
                    leader = False
            if not leader:
                with obs_trace.span("service:wait", key=key[:12]):
                    event.wait()
                continue  # cache now holds it, or the leader failed —
                # in which case this thread retries as the new leader
            try:
                kernel = None
                origin = "disk"
                if self.store is not None:
                    with obs_trace.span("service:disk", key=key[:12]):
                        kernel = self.store.get(key)
                if kernel is None:
                    kernel, origin = self._compile_cold(key, request)
                with self._lock:
                    if origin == "compiled":
                        self._compiles += 1
                    self.cache.put(key, kernel)
                return kernel, origin
            finally:
                with self._lock:
                    self._inflight.pop(key, None)
                event.set()

    def _compile_cold(
        self, key: str, request: CompileRequest
    ) -> Tuple[CompiledKernel, str]:
        """Compile a key this process missed everywhere.

        With a disk store attached, processes sharing it elect a single
        compiler per key (:func:`repro.core.flock.single_flight` on the
        ``<key>.lock`` next to the entry): the leader compiles and
        publishes, waiters rehydrate the published entry.  A waiter that
        finds that entry unservable on this host compiles privately, like
        one that outlives :data:`~repro.core.flock.LOCK_TIMEOUT`.
        """
        if self.store is None:
            return self._compile_now(key, request), "compiled"
        store = self.store

        def build() -> Tuple[CompiledKernel, str]:
            kernel = self._compile_now(key, request)
            # a kernel that fell back to a different backend than requested
            # (a C request served interpreted because its source did not
            # build or load here) must not poison the shared store: other
            # processes could compile the real thing
            if kernel.backend == kernel.options.backend:
                store.put(key, kernel)
            return kernel, "compiled"

        def published() -> Optional[Tuple[CompiledKernel, str]]:
            if key not in store:
                return None
            kernel = store.get(key)
            # published but unservable here: build our own, now
            return (kernel, "disk") if kernel is not None else build()

        return single_flight(
            store.path / ("%s.lock" % key),
            published,
            build,
            flock.LOCK_TIMEOUT,
            lambda: obs_metrics.inc("service.lock_timeouts"),
        )

    def _compile_now(self, key: str, request: CompileRequest) -> CompiledKernel:
        """One cold compile (the ``service.compile`` injection point)."""
        with obs_trace.span("service:compile", key=key[:12]):
            fault = faults.poll("service.compile")
            if fault is not None:
                if fault.action == "slow":
                    time.sleep(fault.arg_float(0.05))
                else:
                    raise FaultError(fault)
            start = time.perf_counter()
            kernel = request.compile()
            obs_metrics.observe(
                "service.compile_seconds", time.perf_counter() - start
            )
        return kernel

    # ------------------------------------------------------------------
    # management
    # ------------------------------------------------------------------
    def warmup(
        self,
        names: Optional[Sequence[str]] = None,
        include_extensions: bool = False,
    ) -> List[WarmupReport]:
        """Pre-compile the kernel library into the cache (and disk store).

        ``names`` selects a subset of the library; by default every
        evaluation kernel (Section 5.2) is warmed, plus the extension
        kernels when ``include_extensions`` is set.
        """
        from repro.kernels.extensions import EXTENSIONS
        from repro.kernels.library import KERNELS

        specs = dict(KERNELS)
        if include_extensions:
            specs.update(EXTENSIONS)
        if names is not None:
            missing = sorted(set(names) - set(specs))
            if missing:
                raise KeyError(
                    "unknown kernels %s (have: %s)"
                    % (missing, ", ".join(sorted(specs)))
                )
            specs = {name: specs[name] for name in names}

        reports: List[WarmupReport] = []
        for name in sorted(specs):
            spec = specs[name]
            request = canonicalize(
                spec.einsum,
                symmetric=dict(spec.symmetric),
                loop_order=spec.loop_order,
                formats=dict(spec.formats),
            )
            start = time.perf_counter()
            _, origin = self.get_with_origin(request)
            seconds = time.perf_counter() - start
            reports.append(
                WarmupReport(
                    name=name, key=request.key, source=origin, seconds=seconds
                )
            )
        return reports

    def invalidate(
        self,
        einsum: Union[str, Assignment, None] = None,
        key: Optional[str] = None,
        drop_store: bool = False,
        **spec,
    ) -> int:
        """Remove entries from the cache (and, optionally, the store).

        With no arguments, everything in memory is dropped; a specific
        entry is addressed either by ``key`` or by the same spec arguments
        ``get_or_compile`` takes.  Returns the number of entries removed.
        """
        if key is None and einsum is not None:
            key = canonicalize(einsum, **spec).key
        removed = self.cache.invalidate(key)
        if self.store is not None and drop_store:
            if key is None:
                removed += self.store.clear()
            else:
                removed += int(self.store.remove(key))
        return removed

    def stats(self) -> ServiceStats:
        # explicit None checks: DiskStore defines __len__, so an *empty*
        # store is falsy — `if store` would zero every disk counter on a
        # store that has seen only misses/errors
        store = self.store
        return ServiceStats(
            memory=self.cache.stats(),
            compiles=self._compiles,
            disk_hits=store.hits if store is not None else 0,
            disk_misses=store.misses if store is not None else 0,
            disk_errors=store.errors if store is not None else 0,
            disk_entries=len(store) if store is not None else 0,
        )
