"""The kernel-service daemon client: one connection, bounded retries.

:class:`ServiceClient` speaks the wire protocol of
:mod:`repro.serve.protocol` to a ``repro serve`` daemon and runs kernels
there (``execute``), or asks it for ``stats`` / ``health`` / ``shutdown``.
Retryable replies (``overloaded``, ``draining``) and torn connections are
retried ``retries`` times with bounded exponential backoff (base
``backoff`` seconds, doubled, capped at 1s; counted as
``service.remote.retries``); then :class:`RemoteUnavailable` is raised.
A non-retryable structured error raises :class:`RemoteReplyError`.

Compiled kernels are not fetched over the wire: processes share compiles
by sharing the daemon's store directory (``KernelService(store=...)``).
"""

from __future__ import annotations

import itertools
import socket
import threading
import time
from typing import Optional

from repro import faults
from repro.obs import metrics as obs_metrics
from repro.serve import protocol
from repro.serve.protocol import ProtocolError


class RemoteError(RuntimeError):
    """Base class for kernel-service daemon client failures."""


class RemoteUnavailable(RemoteError):
    """The daemon could not be reached (or kept failing) after the
    configured retries, or speaks another protocol version."""


class RemoteReplyError(RemoteError):
    """The daemon answered with a structured error reply."""

    def __init__(self, code: str, detail: str = ""):
        super().__init__(
            "daemon replied %s%s" % (code, ": %s" % detail if detail else "")
        )
        self.code = code
        self.detail = detail


class ServiceClient:
    """One persistent connection to the daemon, with retries.

    Thread-safe (one request in flight at a time — the protocol is
    strictly request/reply per connection).  Connection failures close
    and re-dial transparently inside :meth:`call`.
    """

    def __init__(
        self,
        path: str,
        timeout: Optional[float] = 30.0,
        retries: int = 2,
        backoff: float = 0.05,
    ):
        self.path = str(path)
        self.timeout = timeout
        self.retries = int(retries)
        self.backoff = float(backoff)
        self._sock: Optional[socket.socket] = None
        self._lock = threading.Lock()
        self._ids = itertools.count(1)

    # ------------------------------------------------------------------
    def _connect(self) -> socket.socket:
        if self._sock is not None:
            return self._sock
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(self.timeout)
        try:
            sock.connect(self.path)
            # one health exchange per connection: a peer on another
            # protocol version stays unusable however often it is retried
            # (a v1 daemon's reply does not even parse; that
            # ProtocolError names both versions)
            ours = protocol.PROTOCOL_VERSION
            self._send(sock, {"op": "health", "id": 0})
            theirs = self._recv(sock).get("protocol")
            if theirs != ours:
                newer = isinstance(theirs, int) and theirs > ours
                raise RemoteUnavailable(
                    "daemon at %s speaks protocol v%s, this client v%d: "
                    "the %s is older"
                    % (self.path, theirs, ours, "client" if newer else "daemon")
                )
        except BaseException:
            sock.close()
            raise
        self._sock = sock
        return sock

    def close(self) -> None:
        with self._lock:
            self._close_locked()

    def _close_locked(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    # ------------------------------------------------------------------
    def _send(self, sock: socket.socket, msg: dict) -> None:
        fault = faults.poll("wire.write")
        if fault is not None:
            if fault.action == "slow":
                time.sleep(fault.arg_float(0.05))
            else:
                raise ConnectionResetError("injected: wire.write failure")
        sock.sendall(protocol.encode_frame(msg))

    def _recv_exact(self, sock: socket.socket, n: int) -> bytearray:
        buf = bytearray(n)
        view = memoryview(buf)
        while view:
            got = sock.recv_into(view)
            if not got:
                raise ConnectionResetError("daemon closed the connection")
            view = view[got:]
        return buf

    def _recv(self, sock: socket.socket) -> dict:
        fault = faults.poll("wire.read")
        if fault is not None:
            if fault.action == "slow":
                time.sleep(fault.arg_float(0.05))
            else:
                raise ConnectionResetError("injected: wire.read failure")
        header = self._recv_exact(sock, protocol.HEADER.size)
        length = protocol.decode_length(header)
        return protocol.decode_body(self._recv_exact(sock, length))

    # ------------------------------------------------------------------
    def call(
        self,
        op: str,
        payload: Optional[dict] = None,
        deadline: Optional[float] = None,
    ) -> dict:
        """One request/reply exchange, with the full retry policy.

        Raises :class:`RemoteUnavailable` when the daemon cannot be
        reached (or keeps answering retryably) within the retry budget,
        :class:`RemoteReplyError` on a non-retryable structured error.
        """
        msg = dict(payload or {})
        msg["op"] = op
        if deadline is not None:
            msg["deadline_s"] = deadline
        delay = self.backoff
        last: Optional[Exception] = None
        with self._lock:
            for attempt in range(self.retries + 1):
                if attempt:
                    obs_metrics.inc("service.remote.retries")
                    time.sleep(min(delay, 1.0))
                    delay *= 2
                msg["id"] = next(self._ids)
                try:
                    sock = self._connect()
                    self._send(sock, msg)
                    reply = self._recv(sock)
                except (OSError, ProtocolError) as exc:
                    # the connection is untrustworthy either way: re-dial
                    self._close_locked()
                    last = exc
                    continue
                if reply.get("ok"):
                    return reply
                code = str(reply.get("error", "internal"))
                detail = str(reply.get("detail", ""))
                if code in protocol.RETRYABLE_ERRORS:
                    last = RemoteReplyError(code, detail)
                    continue
                raise RemoteReplyError(code, detail)
        raise RemoteUnavailable(
            "daemon at %s unavailable after %d attempt(s): %s"
            % (self.path, self.retries + 1, last)
        )

    # -- convenience wrappers ------------------------------------------
    def execute(self, request, tensors, deadline: Optional[float] = None):
        """Run *request* on the daemon; returns ``(result, reply)`` with
        the result decoded back into a numpy array (bit-identical to the
        daemon's buffer — the codec ships raw bytes)."""
        reply = self.call(
            "execute",
            {
                "spec": protocol.spec_from_request(request),
                "tensors": protocol.encode_tensors(tensors),
            },
            deadline=deadline,
        )
        return protocol.decode_tensor(reply["result"]), reply

    def health(self) -> dict:
        return self.call("health")

    def stats(self) -> dict:
        return self.call("stats")

    def shutdown(self) -> dict:
        return self.call("shutdown")
