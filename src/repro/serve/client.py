"""The kernel-service daemon client: remote first, in-process always.

Setting ``REPRO_SERVICE=unix:/path/to.sock`` makes every
:class:`KernelService` in the process try the daemon for cold keys before
compiling locally (:meth:`KernelService._remote_fetch`).  The contract is
strictly *accelerator, not dependency*:

* retryable replies (``overloaded``, ``draining``) and torn connections
  are retried ``$REPRO_SERVICE_RETRIES`` times with bounded exponential
  backoff (base ``$REPRO_SERVICE_BACKOFF`` seconds, capped at 1s);
* when retries are exhausted the daemon is marked unreachable in the
  process's sticky health record (:func:`backend_health.mark_remote`) —
  the "remote" pseudo-tier above the in-process degradation ladder — and
  every later request falls straight through to the local compile path
  without paying connect latency again;
* :func:`fetch_compiled` therefore never raises, and results are
  bit-identical either way: a daemon-built kernel is rehydrated through
  the same ``to_state``/``from_state`` path the disk store uses.  The
  shipped object is outside input: bytes checked against the reply's
  ``artifact_sha256``, name against the object cache's strict pattern,
  then adopted into the process's object cache, where the rehydrate finds
  it by the ordinary lookup — a hit under the daemon's toolchain, a local
  ``cc`` under another.

Degradation is surfaced, never silent: ``service.remote.*`` metrics count
hits / retries / fallbacks / errors, and ``ServiceStats.describe`` prints
a ``DEGRADED(remote)`` banner once the daemon has been marked.
"""

from __future__ import annotations

import hashlib
import itertools
import socket
import threading
import time
import warnings
from typing import Dict, Optional

from repro import faults
from repro.codegen.backends import ctoolchain
from repro.codegen.backends import health as backend_health
from repro.codegen.backends.objects import IDENTITY, ObjectCache
from repro.core.config import knob
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.serve import protocol
from repro.serve.protocol import ProtocolError


class RemoteError(RuntimeError):
    """Base class for kernel-service daemon client failures."""


class RemoteUnavailable(RemoteError):
    """The daemon could not be reached (or kept failing) after the
    configured retries — callers should fall back in-process."""


class RemoteReplyError(RemoteError):
    """The daemon answered with a structured error reply."""

    def __init__(self, code: str, detail: str = ""):
        super().__init__(
            "daemon replied %s%s" % (code, ": %s" % detail if detail else "")
        )
        self.code = code
        self.detail = detail


def parse_endpoint(value: str) -> str:
    """The socket path from a ``unix:PATH`` endpoint string."""
    value = value.strip()
    if value.startswith("unix:"):
        path = value[len("unix:"):]
    else:
        path = value  # a bare path is accepted as shorthand
    if not path:
        raise ValueError("empty REPRO_SERVICE endpoint")
    return path


class ServiceClient:
    """One persistent connection to the daemon, with retries.

    Thread-safe (one request in flight at a time — the protocol is
    strictly request/reply per connection).  Connection failures close
    and re-dial transparently inside :meth:`call`.
    """

    def __init__(
        self,
        path: str,
        timeout: Optional[float] = None,
        retries: Optional[int] = None,
        backoff: Optional[float] = None,
    ):
        self.path = str(path)
        if timeout is None:
            timeout = knob("REPRO_SERVICE_TIMEOUT")
        if retries is None:
            retries = knob("REPRO_SERVICE_RETRIES")
        if backoff is None:
            backoff = knob("REPRO_SERVICE_BACKOFF")
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
    def compile(self, request, deadline: Optional[float] = None) -> dict:
        """The raw ``compile`` reply for a :class:`CompileRequest`."""
        return self.call(
            "compile",
            {"spec": protocol.spec_from_request(request)},
            deadline=deadline,
        )

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


# ---------------------------------------------------------------------------
# the process-wide client (what KernelService._remote_fetch uses)
# ---------------------------------------------------------------------------
_state_lock = threading.Lock()
_client: Optional[ServiceClient] = None
_client_endpoint: Optional[str] = None
_disabled = False
_warned = False


def configured() -> bool:
    """Is a daemon endpoint configured (and not disabled in-process)?"""
    return not _disabled and bool(knob("REPRO_SERVICE"))


def disable_in_process() -> None:
    """Permanently ignore ``$REPRO_SERVICE`` in this process.

    The daemon calls this first thing: a daemon whose environment points
    at its own socket must never become its own client — every cold
    compile would deadlock behind a request to itself.
    """
    global _disabled
    _disabled = True


def get_client() -> Optional[ServiceClient]:
    """The memoized process-wide client, or ``None`` if unconfigured."""
    global _client, _client_endpoint
    if not configured():
        return None
    endpoint = knob("REPRO_SERVICE")
    with _state_lock:
        if _client is None or _client_endpoint != endpoint:
            if _client is not None:
                _client.close()
            try:
                _client = ServiceClient(parse_endpoint(endpoint))
            except ValueError:
                return None
            _client_endpoint = endpoint
        return _client


def reset() -> None:
    """Forget the memoized client and re-enable (tests; also clears the
    sticky remote health mark so a restarted daemon gets retried)."""
    global _client, _client_endpoint, _disabled, _warned
    with _state_lock:
        if _client is not None:
            _client.close()
        _client = None
        _client_endpoint = None
        _disabled = False
        _warned = False
    backend_health.reset_remote()


def _adopt_artifact(reply: dict) -> None:
    """Adopt the shipped shared object into the process's object cache,
    iff it is what the reply says it is: bytes matching the recorded hash
    under a well-formed object name.  A reply that ships or names none (an
    older daemon) adopts nothing; the rehydrate that follows builds
    locally whatever it does not find."""
    blob = reply.get("artifact")
    digest = reply.get("artifact_sha256")
    name = reply.get("artifact_name")
    if not isinstance(blob, memoryview) or not digest or name is None:
        return  # nothing shipped (or not as a wire segment), or unnamed
    if (
        not isinstance(name, str)
        or IDENTITY.fullmatch(name) is None
        or hashlib.sha256(blob).hexdigest() != digest
    ):
        obs_metrics.inc("service.remote.artifact_rejected")
        return
    try:
        ObjectCache(ctoolchain.build_dir()).adopt(name, blob)
    except OSError:
        pass  # an unwritable cache costs a local build, nothing else


def _mark_unreachable(error: Exception) -> None:
    global _warned
    first = backend_health.mark_remote(error)
    obs_metrics.inc("service.remote.fallbacks")
    if first and not _warned:
        _warned = True
        warnings.warn(
            "kernel-service daemon unreachable (%s); serving in-process "
            "for the rest of this run" % error,
            RuntimeWarning,
            stacklevel=3,
        )


def fetch_compiled(request) -> Optional["object"]:
    """Fetch a compiled kernel for *request* from the daemon, or ``None``.

    Never raises; every failure path answers ``None`` so the caller's
    lookup falls through to the in-process compile — bit-identical, just
    slower.  Exhausted connection retries mark the daemon unreachable
    (sticky, per-process) so later requests skip straight to local.
    """
    from repro.core.compiler import CompiledKernel

    if not configured() or not backend_health.remote_ok():
        return None
    client = get_client()
    if client is None:
        return None
    key = request.key
    with obs_trace.span("service:remote", key=key[:12], hit=False) as sp:
        try:
            reply = client.compile(request)
        except RemoteUnavailable as exc:
            _mark_unreachable(exc)
            return None
        except RemoteReplyError:
            # the daemon is alive but cannot help with *this* request
            # (degraded toolchain, deadline, malformed spec): not sticky —
            # other requests may still be served fine
            obs_metrics.inc("service.remote.errors")
            return None
        if reply.get("key") != key:
            # the daemon built some other kernel (an older one that drops
            # the spec's codegen field, or one whose "auto" resolved to a
            # different backend): loading it under this request's key
            # would hand the caller — and, through store.put, every later
            # process — the wrong program.  Compile locally instead.
            obs_metrics.inc("service.remote.key_mismatch")
            sp.add(key_mismatch=True)
            return None
        _adopt_artifact(reply)
        try:
            kernel = CompiledKernel.from_state(reply["state"], label=key[:12])
        except Exception:
            obs_metrics.inc("service.remote.errors")
            return None
        obs_metrics.inc("service.remote.hits")
        sp.add(hit=True)
        return kernel
