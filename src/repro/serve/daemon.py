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
  seconds (30).  Each connection receives its frames into one buffer
  that it reuses, up to ``$REPRO_SERVE_MAX_FRAME``; between frames it
  keeps at most ``_KEEP_BYTES`` (2 MiB).

Fault-injection points (:mod:`repro.faults`): ``wire.accept``,
``wire.read``, ``wire.write`` and ``serve.handler`` make every failure
path above deterministically testable.
"""

from __future__ import annotations

import asyncio
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
from repro.core.config import knob
from repro.core.flock import InterProcessLock
from repro.faults.spec import FaultError
from repro.obs import metrics as obs_metrics
from repro.serve import protocol
from repro.serve.protocol import ProtocolError, error_reply
from repro.service.engine import KernelService


class _Pooled:
    """One warm plan and the private copy of the inputs it was built from."""

    __slots__ = ("signature", "inputs", "kernel", "plan", "busy")

    def __init__(self, signature, inputs, kernel, plan):
        self.signature = signature
        self.inputs = inputs
        self.kernel = kernel
        self.plan = plan
        self.busy = threading.Lock()


class PlanPool:
    """A bounded LRU of warm execution plans, matched on exact input bytes.

    Entries are keyed by the kernel key plus each tensor's name, dtype and
    shape.  Each owns a private copy of the inputs its plan was built
    from, so nothing pooled points into a connection's receive buffer,
    and a lookup takes the first idle entry (most recently used first)
    whose inputs equal the request's byte for byte (``-0.0`` and ``0.0``
    differ, as a kernel's result bits may).  Plans are not thread-safe,
    so each entry carries a busy flag: a concurrent duplicate request
    runs unpooled rather than waiting.  An evicted entry stays busy for
    good, so no lookup can borrow it, and its inputs take the copy of the
    next entry of its signature: a pool that misses on every request (a
    new operand per call) allocates nothing in steady state.
    """

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self._lock = threading.Lock()
        self._entries: "OrderedDict[_Pooled, None]" = OrderedDict()

    def acquire(self, key: str, tensors) -> Optional[_Pooled]:
        """Borrow an idle entry holding exactly *tensors*, or ``None``."""
        if self.capacity <= 0:
            return None
        signature = _signature(key, tensors)
        # smallest first: a request that shares a large operand with the
        # entries (one matrix, a new vector per call) is told apart by its
        # small one without walking the large one
        order = sorted(tensors, key=lambda name: tensors[name].nbytes)
        with self._lock:
            candidates = [
                e for e in reversed(self._entries) if e.signature == signature
            ]
        for entry in candidates:
            if not entry.busy.acquire(blocking=False):
                continue  # in use (or evicted): a duplicate runs unpooled
            if all(_same_bytes(entry.inputs[n], tensors[n]) for n in order):
                with self._lock:
                    self._entries.move_to_end(entry)
                    self.hits += 1
                return entry
            entry.busy.release()
        with self._lock:
            self.misses += 1
        return None

    def admit(self, key: str, tensors, kernel) -> _Pooled:
        """A borrowed entry running *kernel* over *tensors*: pooled, over
        a private copy of them, unless the pool is off."""
        signature = _signature(key, tensors)
        pooled = self.capacity > 0
        if pooled:
            with self._lock:
                spare = self._evict(self.capacity - 1, signature)
            tensors = {
                n: _copy_into(a, None if spare is None else spare[n])
                for n, a in tensors.items()
            }
        entry = _Pooled(
            signature, tensors, kernel, kernel.execution_plan(**tensors)
        )
        entry.busy.acquire()
        if pooled:
            with self._lock:
                self._entries[entry] = None
                self._evict(self.capacity, None)  # concurrent admits
        return entry

    def _evict(self, keep: int, signature) -> Optional[dict]:
        """Evict least-recently-used idle entries until at most *keep*
        remain (fewer than that may stay busy); return the inputs of one
        evicted entry of *signature*, for reuse.  Holds the pool lock."""
        spare = None
        while len(self._entries) > keep:
            for old in self._entries:
                if old.busy.acquire(blocking=False):  # never released
                    del self._entries[old]
                    break
            else:
                break  # every entry busy: over capacity transiently
            if spare is None and old.signature == signature:
                spare = old.inputs
        return spare

    @staticmethod
    def release(entry: _Pooled) -> None:
        entry.busy.release()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


def _signature(key: str, tensors) -> tuple:
    return key, tuple(
        sorted((n, a.dtype.str, a.shape) for n, a in tensors.items())
    )


def _copy_into(a: np.ndarray, out: Optional[np.ndarray]) -> np.ndarray:
    """A C-ordered copy of *a*, written into *out* (same dtype and shape)
    when given."""
    if out is None:
        out = np.empty_like(a, order="C")
    np.copyto(out, a)
    return out


#: words :func:`_same_bytes` compares in its first step; each later step
#: doubles, up to :data:`_COMPARE_WORDS`
_FIRST_WORDS = 1 << 9
#: the most words :func:`_same_bytes` compares per step (128 KiB of uint64)
_COMPARE_WORDS = 1 << 14


def _same_bytes(a: np.ndarray, b: np.ndarray) -> bool:
    """Do *a* and *b* (one dtype and shape) hold the same bytes?

    Walked in steps that start small and double up to a bound, stopping
    at the first difference: an early difference costs one small step,
    and no full-size temporary is made.
    """
    x = a.reshape(-1).view(np.uint8)
    y = b.reshape(-1).view(np.uint8)
    if x.size % 8 == 0:
        x, y = x.view(np.uint64), y.view(np.uint64)
    scratch = np.empty(min(x.size, _COMPARE_WORDS), dtype=bool)
    at, step = 0, _FIRST_WORDS
    while at < x.size:
        n = min(step, x.size - at)
        if np.not_equal(x[at : at + n], y[at : at + n], out=scratch[:n]).any():
            return False
        at, step = at + n, min(2 * step, _COMPARE_WORDS)
    return True


#: the smallest buffer a lingering connection discards input into.
_LINGER_BYTES = 4096
#: the largest receive buffer a connection keeps between frames; one a
#: larger frame needed is dropped once that frame is answered
_KEEP_BYTES = 2 << 20


class _Connection(asyncio.BufferedProtocol):
    """One client link.

    A frame's 4-byte length is validated before anything is allocated;
    the transport then writes the body straight into one buffer that the
    link reuses across frames, never past the frame limit.  The buffer
    grows to the largest frame so far, but one over ``_KEEP_BYTES`` is
    dropped once its frame is answered, so an idle link holds at most
    that much.  Reading pauses once a frame is in and resumes when its
    reply has been written, so the read-only views a frame decodes into
    stay valid while it is handled, and pipelined frames are answered in
    order.
    """

    def __init__(self, server: "KernelServer"):
        self.server = server
        server._links.add(self)  # until connection_lost
        self.transport = None
        self.task: Optional[asyncio.Task] = None  # the frames' handler
        #: the receive buffer; ``np.empty`` leaves pages a peer never
        #: fills untouched
        self.buffer = np.empty(0, dtype=np.uint8)
        self._header = bytearray(protocol.HEADER.size)
        self._length: Optional[int] = None  # body bytes, once the header is in
        self._filled = 0
        self._lost = False
        self._discard = False  # after a framing error: swallow, never parse
        self._frame: Optional[asyncio.Future] = None
        self._stall: Optional[asyncio.TimerHandle] = None
        self._writable: Optional[asyncio.Future] = None

    # -- asyncio callbacks ----------------------------------------------
    def connection_made(self, transport) -> None:
        self.transport = transport
        # a link accepted just before close() began is made after it: it
        # would wait for a frame nobody answers
        if self.server._closing or faults.poll("wire.accept") is not None:
            transport.close()
            return
        loop = asyncio.get_running_loop()
        self._frame = loop.create_future()
        self.task = loop.create_task(self.server._serve(self))

    def get_buffer(self, sizehint: int):
        if self._discard:
            return self.buffer
        # exactly what the frame still lacks: the next frame's bytes stay
        # in the socket until this one is answered
        if self._length is None:
            return memoryview(self._header)[self._filled :]
        return self.buffer[self._filled : self._length]

    def buffer_updated(self, nbytes: int) -> None:
        if self._discard:
            return
        timeout = self.server.read_timeout
        if self._length is None and self._filled == 0 and timeout:
            # a started frame must finish within read_timeout (slowloris);
            # the wait for its first byte is unbounded
            self._stall = asyncio.get_running_loop().call_later(
                timeout, self.transport.abort
            )
        self._filled += nbytes
        if self._length is None:
            if self._filled < protocol.HEADER.size:
                return
            try:
                length = protocol.decode_length(
                    self._header, self.server.max_frame
                )
            except ProtocolError as exc:
                self._finish(exc)
                return
            if length > self.buffer.size:
                self.buffer = np.empty(length, dtype=np.uint8)
            self._length, self._filled = length, 0
        if self._filled == self._length:
            self._finish(self._length)

    def eof_received(self) -> bool:
        self._finish(None)
        return False  # close the transport

    def connection_lost(self, exc) -> None:
        self._lost = True
        self._finish(None)
        if self._writable is not None and not self._writable.done():
            self._writable.set_result(None)
        self.server._unlink(self)

    def pause_writing(self) -> None:
        self._writable = asyncio.get_running_loop().create_future()

    def resume_writing(self) -> None:
        if self._writable is not None and not self._writable.done():
            self._writable.set_result(None)

    # -- what the connection task uses ----------------------------------
    def _finish(self, outcome) -> None:
        """Settle the frame in flight: its body length, ``None`` at EOF,
        or the :class:`ProtocolError` its header raised."""
        if self._stall is not None:
            self._stall.cancel()
            self._stall = None
        self.transport.pause_reading()
        frame = self._frame
        if frame is None or frame.done():
            return
        if isinstance(outcome, ProtocolError):
            frame.set_exception(outcome)
        else:
            frame.set_result(outcome)

    async def receive(self) -> Optional[memoryview]:
        """The next frame's body, a read-only view of :attr:`buffer`;
        ``None`` once the peer is gone."""
        length = await self._frame
        if length is None:
            return None
        return memoryview(self.buffer)[:length].toreadonly()

    def drop_buffer(self) -> None:
        """Receive the next frame into a new buffer: the views of the last
        one stay valid for whoever still holds them."""
        self.buffer = np.empty(0, dtype=np.uint8)

    def next_frame(self) -> None:
        """The last frame is answered: let the next one in."""
        if self.buffer.size > _KEEP_BYTES:
            self.drop_buffer()
        self._length, self._filled = None, 0
        self._frame = asyncio.get_running_loop().create_future()
        if self._lost:
            self._frame.set_result(None)
        else:
            self.transport.resume_reading()

    async def linger(self) -> None:
        """Half-close after a framing error, then swallow what the peer
        still sends until it closes (within ``read_timeout``): closing
        over unread bytes would reset the link before the peer reads the
        error reply."""
        self._discard = True
        if self.buffer.size < _LINGER_BYTES:
            self.buffer = np.empty(_LINGER_BYTES, dtype=np.uint8)
        self._frame = asyncio.get_running_loop().create_future()
        if self._lost:
            return
        self.transport.write_eof()
        self.transport.resume_reading()
        try:
            await self.server._bounded(self.server.read_timeout, self._frame)
        except asyncio.TimeoutError:
            pass

    async def drain(self) -> None:
        if self._writable is not None:
            await self._writable
        if self._lost:
            raise ConnectionResetError("peer closed the connection")


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
        #: every link from its protocol's creation to its connection_lost,
        #: and the event set whenever that leaves none
        self._links: set = set()
        self._unlinked = asyncio.Event()
        self._closing = False
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
            self._server = await loop.create_unix_server(
                lambda: _Connection(self), path=self.socket_path
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

    def _unlink(self, link: _Connection) -> None:
        self._links.discard(link)
        if not self._links:
            self._unlinked.set()

    async def close(self) -> None:
        self._closing = True
        if self._server is not None:
            self._server.close()
        # a link the listener accepted just before it closed is made a loop
        # pass later, and closes itself (connection_made): cancel until
        # every link is lost, so none is left to wait out its timeout
        await asyncio.sleep(0)
        while self._links:
            self._unlinked.clear()
            for link in list(self._links):
                if link.task is not None:
                    link.task.cancel()
            try:
                await asyncio.wait_for(self._unlinked.wait(), self.drain_grace)
            except asyncio.TimeoutError:
                break  # a peer that never reads its last reply
        if self._server is not None:
            try:
                await self._server.wait_closed()
            except Exception:
                pass
            self._server = None
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
    async def _serve(self, conn: _Connection) -> None:
        """One connection's frames, answered in order."""
        try:
            while await self._answer(conn):
                conn.next_frame()
        except asyncio.CancelledError:
            pass  # server shutdown cancelled this connection: done
        except (ConnectionError, OSError):
            pass  # torn connection: nothing to answer
        finally:
            conn.transport.close()

    async def _answer(self, conn: _Connection) -> bool:
        """Receive, handle and answer one frame; ``False`` ends the link.
        Nothing here outlives the call, so no view of the frame does."""
        fault = faults.poll("wire.read")
        if fault is not None:
            if fault.action == "slow":
                await asyncio.sleep(fault.arg_float(0.05))
            else:
                raise ConnectionResetError("injected: wire.read failure")
        try:
            body = await conn.receive()
            if body is None:
                return False  # EOF, clean or torn: nothing to answer
            nbytes = protocol.HEADER.size + body.nbytes
            self.bytes_in += nbytes
            obs_metrics.inc("serve.bytes_in", nbytes)
            msg = protocol.decode_body(body)
        except ProtocolError as exc:
            self.errors += 1
            obs_metrics.inc("serve.bad_frames")
            if await self._write_reply(
                conn, error_reply(None, protocol.BAD_REQUEST, str(exc))
            ):
                await conn.linger()
            return False  # framing may be desynchronized: drop the link
        return await self._write_reply(conn, await self._handle(msg, conn))

    async def _write_reply(self, conn: _Connection, reply: dict) -> bool:
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
            conn.transport.write(frame)
            await conn.drain()
            return True
        except (ConnectionError, OSError, ProtocolError):
            return False

    # ------------------------------------------------------------------
    # request dispatch
    # ------------------------------------------------------------------
    async def _handle(self, msg: dict, conn: _Connection) -> dict:
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
            # the abandoned worker still reads this frame's tensors: the
            # next frame must not land on them
            conn.drop_buffer()
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
        # read-only views of the connection's receive buffer; the plan
        # pool copies what it keeps
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
        entry = self.plans.acquire(request.key, tensors)
        pooled = entry is not None
        if not pooled:
            entry = self.plans.admit(request.key, tensors, kernel)
        try:
            # copy before releasing: finalize may return a view of the
            # plan's reusable buffer, which the next caller overwrites
            # while this reply still waits to be framed
            result = np.array(entry.kernel.finalize(entry.plan()), order="C")
        finally:
            self.plans.release(entry)
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
