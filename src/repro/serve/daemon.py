"""``repro serve`` — the crash-tolerant kernel-service daemon.

An asyncio unix-socket server that owns a :class:`KernelService` (the
in-memory LRU and the disk store) plus a bounded pool of warm
:class:`ExecutionPlan`\\ s, and speaks the length-prefixed frames (JSON
head + raw tensor segments) of :mod:`repro.serve.protocol`: it runs
kernels (``execute``) and reports on itself (``stats``, ``health``,
``shutdown``).  A cold ``execute`` compiles through the service, so
concurrent requests for one key compile once (its single-flight) and
the result is published to the store, where any process opening the
same directory finds it.  Robustness decisions, in order of what kills
shared services first:

* **Deadlines** — every request runs under a deadline (its own
  ``deadline_s`` or the daemon's ``deadline``, 30 s); expiry answers a
  structured ``deadline`` error.  Compiles themselves stay bounded by
  the ``$REPRO_CC_TIMEOUT`` retry machinery, so a worker thread stuck
  behind a hung ``cc`` is released by the toolchain layer, not leaked.
* **Backpressure** — at most ``queue_limit`` (32) requests are
  admitted (queued + running); the rest are shed immediately with an
  ``overloaded`` reply instead of queueing unboundedly.
* **Graceful drain** — SIGTERM (or the ``shutdown`` op) stops admitting
  work (``draining`` replies), lets in-flight requests finish within
  ``drain_grace`` seconds (10), then exits, unlinking the socket and the
  pid lock.
* **Crash-safe warm restart** — a ``kill -9``'d daemon leaves only a
  stale socket and a stale PID-stamped lock, both reclaimed on the next
  start; ``--warm`` rehydrates the LRU from the disk store, whose
  object cache refuses to ``dlopen`` torn shared objects (they are
  rebuilt in place instead).
* **Hostile input** — oversized length prefixes, garbage JSON and torn
  frames answer ``bad-request``/close without allocating; a started
  frame that stalls (slowloris) is cut off after ``read_timeout``
  seconds (30).

Fault-injection points (:mod:`repro.faults`): ``wire.accept``,
``wire.read``, ``wire.write`` and ``serve.handler`` make every failure
path above deterministically testable.
"""

from __future__ import annotations

import asyncio
import hashlib
import os
import signal
import socket as socket_module
import threading
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Optional, Tuple

import numpy as np

from repro import faults
from repro.codegen.backends import health as backend_health
from repro.core.config import knob
from repro.core.flock import InterProcessLock
from repro.faults.spec import FaultError
from repro.obs import metrics as obs_metrics
from repro.serve import protocol
from repro.serve.protocol import ProtocolError, error_reply
from repro.service.engine import KernelService


class PlanPool:
    """A bounded LRU of warm execution plans keyed by request content.

    The key is a digest of (kernel key, tensor names/dtypes/shapes/raw
    bytes): two wire requests with identical inputs reuse one prepared
    plan, skipping preparation and argument marshaling.  Plans are not
    thread-safe, so each entry carries a busy flag — a concurrent
    duplicate request simply runs unpooled rather than waiting.
    """

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self._lock = threading.Lock()
        self._entries: "OrderedDict[str, tuple]" = OrderedDict()

    def acquire(self, digest: str):
        """Borrow the (kernel, plan) pair for *digest*, or ``None``."""
        if self.capacity <= 0:
            return None
        with self._lock:
            entry = self._entries.get(digest)
            if entry is None:
                self.misses += 1
                return None
            kernel, plan, busy = entry
            if not busy.acquire(blocking=False):
                self.misses += 1  # in use: duplicate runs unpooled
                return None
            self._entries.move_to_end(digest)
            self.hits += 1
            return entry

    @staticmethod
    def release(entry) -> None:
        entry[2].release()

    def put(self, digest: str, kernel, plan) -> None:
        if self.capacity <= 0:
            return
        with self._lock:
            if digest in self._entries:
                return
            self._entries[digest] = (kernel, plan, threading.Lock())
            while len(self._entries) > self.capacity:
                # evict the least-recently-used idle entry
                for key, entry in self._entries.items():
                    if not entry[2].locked():
                        del self._entries[key]
                        break
                else:
                    break  # every entry busy: over-capacity transiently

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


def _execute_digest(key: str, tensors) -> str:
    digest = hashlib.sha256()
    digest.update(key.encode("ascii"))
    for name in sorted(tensors):
        arr = tensors[name]
        digest.update(
            ("|%s:%s:%s:" % (name, arr.dtype, arr.shape)).encode("ascii")
        )
        digest.update(np.ascontiguousarray(arr))  # no copy off the wire
    return digest.hexdigest()


class _BadFrame(Exception):
    """A readable-but-invalid frame; answered with ``bad-request``."""


class KernelServer:
    """The daemon: one instance, one unix socket, one kernel service."""

    def __init__(
        self,
        socket_path,
        service: Optional[KernelService] = None,
        *,
        store=None,
        capacity: int = 128,
        queue_limit: int = 32,
        workers: int = 4,
        deadline: Optional[float] = 30.0,
        read_timeout: Optional[float] = 30.0,
        drain_grace: float = 10.0,
        plan_pool_size: int = 32,
        max_frame: Optional[int] = None,
    ):
        self.socket_path = str(socket_path)
        if service is None:
            service = KernelService(capacity=capacity, store=store)
        self.service = service
        self.queue_limit = int(queue_limit)
        self.workers = int(workers)
        # 0 (or None) = requests without their own deadline_s run unbounded
        self.deadline = deadline if deadline and deadline > 0 else None
        # slowloris bound: only a *started* frame is timed, idle ones may
        # wait; 0 (or None) = no bound
        self.read_timeout = (
            read_timeout if read_timeout and read_timeout > 0 else None
        )
        self.drain_grace = float(drain_grace)
        self.max_frame = (
            knob("REPRO_SERVE_MAX_FRAME") if max_frame is None else int(max_frame)
        )
        self.plans = PlanPool(plan_pool_size)
        self._pool = ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="repro-serve"
        )
        self._lock_file = InterProcessLock(self.socket_path + ".lock")
        self._server: Optional[asyncio.AbstractServer] = None
        self._done: Optional[asyncio.Event] = None
        self._idle: Optional[asyncio.Event] = None
        self._connections: set = set()
        self._active = 0
        self._draining = False
        self._started = time.monotonic()
        # counters (mutated on the event loop only — no lock needed)
        self.requests = 0
        self.shed = 0
        self.draining_rejected = 0
        self.deadline_timeouts = 0
        self.errors = 0
        self.warmed = 0
        self.bytes_in = 0
        self.bytes_out = 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def _claim_socket(self) -> None:
        """Own the socket path: the PID lock elects exactly one daemon,
        and a stale socket left by a crashed predecessor is reclaimed."""
        if not self._lock_file.try_acquire():
            raise RuntimeError(
                "another daemon appears to hold %s (lock %s, pid %s)"
                % (
                    self.socket_path,
                    self._lock_file.path,
                    self._lock_file.holder_pid(),
                )
            )
        if os.path.exists(self.socket_path):
            # we hold the lock, so no live daemon owns this socket:
            # whatever is there is a crashed predecessor's corpse
            try:
                os.unlink(self.socket_path)
            except OSError:
                self._lock_file.release()
                raise

    def warm_from_store(self) -> Tuple[int, int]:
        """Rehydrate every persisted kernel into the LRU before serving.

        Runs the disk store's full verification path (state-version
        check, object bytes against their name before any ``dlopen``): corrupt
        entries are removed and counted, never served.  Returns
        ``(rehydrated, failed)``.
        """
        store = self.service.store
        if store is None:
            return (0, 0)
        ok = failed = 0
        for key in list(store.keys()):
            kernel = store.get(key)
            if kernel is None:
                failed += 1
                continue
            self.service.cache.put(key, kernel)
            ok += 1
        self.warmed = ok
        return (ok, failed)

    async def start(self, warm: bool = False) -> None:
        self._claim_socket()
        if warm:
            self.warm_from_store()
        loop = asyncio.get_running_loop()
        self._done = asyncio.Event()
        self._idle = asyncio.Event()
        self._idle.set()
        try:
            self._server = await asyncio.start_unix_server(
                self._on_connect, path=self.socket_path
            )
        except BaseException:
            self._lock_file.release()
            raise
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(
                    signum, self.begin_drain, signal.Signals(signum).name
                )
            except (NotImplementedError, RuntimeError, ValueError):
                pass  # non-main thread (tests) or platform without support
        self._started = time.monotonic()

    async def run(self, warm: bool = False, on_ready=None) -> None:
        """Start, serve until drained, then clean up.  ``on_ready`` is
        called once the socket is accepting (the CLI prints its banner
        there, so "serving" is never announced before it is true)."""
        await self.start(warm=warm)
        if on_ready is not None:
            on_ready()
        try:
            await self._done.wait()
        finally:
            await self.close()

    def begin_drain(self, reason: str = "shutdown") -> None:
        """Stop admitting work; finish in-flight requests, then stop."""
        if self._draining:
            return
        self._draining = True
        obs_metrics.inc("serve.drains")
        loop = asyncio.get_running_loop()
        loop.create_task(self._drain_then_stop(reason))

    async def _drain_then_stop(self, reason: str) -> None:
        try:
            await asyncio.wait_for(self._idle.wait(), self.drain_grace)
        except asyncio.TimeoutError:
            pass  # grace expired: remaining requests are abandoned
        self._done.set()

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            try:
                await self._server.wait_closed()
            except Exception:
                pass
            self._server = None
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)
        self._pool.shutdown(wait=False)
        try:
            os.unlink(self.socket_path)
        except OSError:
            pass
        self._lock_file.release()

    @property
    def draining(self) -> bool:
        return self._draining

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    async def _on_connect(self, reader, writer) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
            task.add_done_callback(self._connections.discard)
        if faults.poll("wire.accept") is not None:
            writer.close()
            return
        try:
            while True:
                try:
                    msg = await self._read_frame(reader)
                except _BadFrame as exc:
                    self.errors += 1
                    obs_metrics.inc("serve.bad_frames")
                    await self._write_frame(
                        writer,
                        error_reply(None, protocol.BAD_REQUEST, str(exc)),
                    )
                    break  # framing may be desynchronized: drop the link
                if msg is None:
                    break  # clean EOF
                reply = await self._handle(msg)
                if not await self._write_frame(writer, reply):
                    break
        except asyncio.CancelledError:
            pass  # server shutdown cancelled this connection: done
        except (
            asyncio.IncompleteReadError,
            asyncio.TimeoutError,
            ConnectionError,
            OSError,
        ):
            pass  # torn connection: nothing to answer
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:
                pass

    async def _read_frame(self, reader) -> Optional[dict]:
        """One request frame; ``None`` on clean EOF.

        The wait for a frame's *first* byte is unbounded (idle client
        connections are legal); once a frame has started, the rest must
        arrive within ``read_timeout`` — a slowloris peer that dribbles
        bytes is disconnected instead of pinning the connection forever.
        """
        fault = faults.poll("wire.read")
        if fault is not None:
            if fault.action == "slow":
                await asyncio.sleep(fault.arg_float(0.05))
            else:
                raise ConnectionResetError("injected: wire.read failure")
        first = await reader.read(1)
        if not first:
            return None

        async def rest() -> bytes:
            header = first + await reader.readexactly(HEADER_REMAINDER)
            length = protocol.decode_length(header, self.max_frame)
            return await reader.readexactly(length)

        try:
            body = await self._bounded(self.read_timeout, rest())
            nbytes = protocol.HEADER.size + len(body)
            self.bytes_in += nbytes
            obs_metrics.inc("serve.bytes_in", nbytes)
            return protocol.decode_body(body)
        except ProtocolError as exc:
            raise _BadFrame(str(exc))

    async def _write_frame(self, writer, reply: dict) -> bool:
        fault = faults.poll("wire.write")
        if fault is not None:
            if fault.action == "slow":
                await asyncio.sleep(fault.arg_float(0.05))
            else:
                return False  # injected: connection died under the reply
        try:
            try:
                frame = protocol.encode_frame(reply, self.max_frame)
            except ProtocolError:
                # the reply itself overflows the frame limit (giant
                # tensor): tell the client rather than silently closing
                frame = protocol.encode_frame(
                    error_reply(
                        reply.get("id"),
                        protocol.INTERNAL,
                        "reply exceeds the frame limit",
                    ),
                    self.max_frame,
                )
            self.bytes_out += len(frame)
            obs_metrics.inc("serve.bytes_out", len(frame))
            writer.write(frame)
            await writer.drain()
            return True
        except (ConnectionError, OSError, ProtocolError):
            return False

    # ------------------------------------------------------------------
    # request dispatch
    # ------------------------------------------------------------------
    async def _handle(self, msg: dict) -> dict:
        rid = msg.get("id")
        op = msg.get("op")
        self.requests += 1
        obs_metrics.inc("serve.requests")
        if op == "health":
            return self._health_reply(rid)
        if op == "stats":
            return self._stats_reply(rid)
        if op == "shutdown":
            self.begin_drain("shutdown op")
            return {"ok": True, "id": rid, "status": "draining"}
        if op != "execute":
            return error_reply(
                rid,
                protocol.UNKNOWN_OP,
                "unknown op %r (have: %s)" % (op, ", ".join(protocol.OPERATIONS)),
            )
        if self._draining:
            self.draining_rejected += 1
            obs_metrics.inc("serve.draining_rejected")
            return error_reply(rid, protocol.DRAINING, "daemon is draining")
        if self._active >= self.queue_limit:
            self.shed += 1
            obs_metrics.inc("serve.shed")
            return error_reply(
                rid,
                protocol.OVERLOADED,
                "admission queue full (%d in flight)" % self._active,
            )
        self._active += 1
        self._idle.clear()
        start = time.perf_counter()
        try:
            fault = faults.poll("serve.handler")
            if fault is not None:
                if fault.action == "slow":
                    await asyncio.sleep(fault.arg_float(0.05))
                else:
                    raise FaultError(fault)
            return await self._execute_op(msg, rid, self._request_deadline(msg))
        except asyncio.TimeoutError:
            self.deadline_timeouts += 1
            obs_metrics.inc("serve.deadline_timeouts")
            return error_reply(
                rid, protocol.DEADLINE, "request deadline expired"
            )
        except (ProtocolError, ValueError, KeyError, TypeError) as exc:
            self.errors += 1
            return error_reply(rid, protocol.BAD_REQUEST, str(exc))
        except Exception as exc:
            self.errors += 1
            obs_metrics.inc("serve.errors")
            return error_reply(
                rid,
                protocol.INTERNAL,
                "%s: %s" % (type(exc).__name__, exc),
            )
        finally:
            self._active -= 1
            if self._active == 0:
                self._idle.set()
            obs_metrics.observe(
                "serve.request_seconds", time.perf_counter() - start
            )

    def _request_deadline(self, msg: dict) -> Optional[float]:
        value = msg.get("deadline_s")
        if value is None:
            return self.deadline
        deadline = float(value)
        if deadline <= 0:
            raise ProtocolError("deadline_s must be > 0")
        return deadline

    async def _bounded(self, deadline: Optional[float], awaitable):
        if deadline is None:
            return await awaitable
        return await asyncio.wait_for(awaitable, deadline)

    # -- execute -------------------------------------------------------
    async def _execute_op(
        self, msg: dict, rid, deadline: Optional[float]
    ) -> dict:
        request = protocol.request_from_spec(msg.get("spec"))
        # read-only views of the frame body: a plan pooled over them pins
        # that body, not a copy of it
        tensors = protocol.decode_tensors(msg.get("tensors"))
        loop = asyncio.get_running_loop()
        payload = await self._bounded(
            deadline,
            loop.run_in_executor(self._pool, self._execute, request, tensors),
        )
        payload["id"] = rid
        return payload

    def _execute(self, request, tensors) -> dict:
        """Worker-thread body of one ``execute`` request."""
        kernel, origin = self.service.get_with_origin(request)
        digest = _execute_digest(request.key, tensors)
        entry = self.plans.acquire(digest)
        pooled = entry is not None
        if entry is None:
            kernel_for_run = kernel
            plan = kernel.execution_plan(**tensors)
        else:
            kernel_for_run, plan = entry[0], entry[1]
        try:
            # copy before releasing: finalize may return a view of the
            # plan's reusable buffer, which the next caller overwrites
            # while this reply still waits to be framed
            result = np.array(kernel_for_run.finalize(plan()), order="C")
        finally:
            if pooled:
                self.plans.release(entry)
        if not pooled:
            self.plans.put(digest, kernel, plan)
        obs_metrics.inc("serve.executes")
        return {
            "ok": True,
            "key": request.key,
            "origin": origin,
            "backend": kernel.backend,
            "plan_pooled": pooled,
            "result": protocol.encode_tensor(result),
        }

    # -- introspection -------------------------------------------------
    def _health_reply(self, rid) -> dict:
        return {
            "ok": True,
            "id": rid,
            "status": "draining" if self._draining else "serving",
            "pid": os.getpid(),
            "protocol": protocol.PROTOCOL_VERSION,
            "uptime_s": time.monotonic() - self._started,
            "health": backend_health.snapshot(),
        }

    def _stats_reply(self, rid) -> dict:
        return {
            "ok": True,
            "id": rid,
            "stats": self.service.stats().to_dict(),
            "server": {
                "requests": self.requests,
                "active": self._active,
                "queue_limit": self.queue_limit,
                "shed": self.shed,
                "deadline_timeouts": self.deadline_timeouts,
                "draining_rejected": self.draining_rejected,
                "errors": self.errors,
                "warmed": self.warmed,
                "bytes_in": self.bytes_in,
                "bytes_out": self.bytes_out,
                "draining": self._draining,
                "uptime_s": time.monotonic() - self._started,
                "plan_pool": {
                    "capacity": self.plans.capacity,
                    "entries": len(self.plans),
                    "hits": self.plans.hits,
                    "misses": self.plans.misses,
                },
            },
        }


#: bytes of the frame header left to read after the first byte arrives.
HEADER_REMAINDER = protocol.HEADER.size - 1


def probe_socket(socket_path) -> bool:
    """Is something accepting connections on *socket_path*?  (Used by
    ``repro doctor`` and the stale-socket check in tests.)"""
    sock = socket_module.socket(socket_module.AF_UNIX, socket_module.SOCK_STREAM)
    sock.settimeout(1.0)
    try:
        sock.connect(str(socket_path))
        return True
    except OSError:
        return False
    finally:
        sock.close()


def main(argv=None) -> int:  # pragma: no cover - thin wrapper, CLI-tested
    """Entry point used by ``repro serve`` (see :mod:`repro.cli`)."""
    raise SystemExit("use `python -m repro.cli serve`")
