"""Client-side degradation tests: bounded retries, transparent in-process
fallback (bit-identical, zero failed requests), the sticky "remote"
pseudo-tier, and the ``service.remote.*`` / ``DEGRADED(remote)`` surface."""

from __future__ import annotations

import os
import threading
import time
import warnings

import numpy as np
import pytest

from repro import faults
from repro.codegen.backends import health as backend_health
from repro.obs import metrics as obs_metrics
from repro.serve import client as serve_client
from repro.serve import protocol
from repro.serve.client import (
    RemoteReplyError,
    RemoteUnavailable,
    ServiceClient,
)
from repro.service.engine import KernelService
from repro.service.keys import canonicalize
from tests.conftest import replace_node, running_daemon

SYMV = dict(
    einsum="y[i] += A[i,j] * x[j]",
    symmetric={"A": True},
    formats={"A": "sparse"},
)


@pytest.fixture(autouse=True)
def clean_client_state(monkeypatch):
    """Every test starts unconfigured with no sticky remote mark."""
    monkeypatch.delenv("REPRO_SERVICE", raising=False)
    serve_client.reset()
    yield
    serve_client.reset()


@pytest.fixture
def metrics():
    previous = obs_metrics.enabled()
    obs_metrics.enable()
    obs_metrics.registry().reset()
    yield lambda name: obs_metrics.to_dict()["counters"].get(name, 0)
    obs_metrics.registry().reset()
    if not previous:
        obs_metrics.disable()


# ---------------------------------------------------------------------------
# endpoint parsing + configuration surface
# ---------------------------------------------------------------------------
def test_parse_endpoint():
    assert serve_client.parse_endpoint("unix:/tmp/a.sock") == "/tmp/a.sock"
    assert serve_client.parse_endpoint("/tmp/bare.sock") == "/tmp/bare.sock"
    with pytest.raises(ValueError):
        serve_client.parse_endpoint("unix:")


def test_unconfigured_is_a_noop(monkeypatch):
    assert not serve_client.configured()
    assert serve_client.get_client() is None
    request = canonicalize(**SYMV)
    assert serve_client.fetch_compiled(request) is None


def test_disable_in_process_wins_over_env(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_SERVICE", "unix:%s/x.sock" % tmp_path)
    assert serve_client.configured()
    serve_client.disable_in_process()
    assert not serve_client.configured()
    assert serve_client.get_client() is None


# ---------------------------------------------------------------------------
# fallback: dead daemon, zero failed requests, sticky mark, banner
# ---------------------------------------------------------------------------
def test_dead_socket_falls_back_in_process(monkeypatch, tmp_path, metrics, rng):
    monkeypatch.setenv("REPRO_SERVICE", "unix:%s/nope.sock" % tmp_path)
    monkeypatch.setenv("REPRO_SERVICE_RETRIES", "1")
    monkeypatch.setenv("REPRO_SERVICE_BACKOFF", "0.01")
    service = KernelService()
    request = canonicalize(**SYMV)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        kernel, origin = service.get_with_origin(request)
    # zero failed requests: the caller still gets a working kernel
    assert origin == "compiled"
    n = 6
    A = rng.random((n, n))
    A = np.maximum(A, A.T)
    x = rng.random(n)
    reference = KernelService(use_remote=False).get_or_compile_request(request)
    assert np.array_equal(kernel(A=A, x=x), reference(A=A, x=x))
    # the failure is loud exactly once ...
    assert any("daemon unreachable" in str(w.message) for w in caught)
    # ... sticky in the remote pseudo-tier (not the backend ladder) ...
    assert not backend_health.remote_ok()
    snap = backend_health.snapshot()
    assert snap["ladder"] == list(backend_health.TIERS)
    assert snap["remote"]["failures"] == 1
    # ... surfaced in metrics and the stats banner
    assert metrics("service.remote.fallbacks") == 1
    assert metrics("service.remote.retries") == 1
    assert "DEGRADED(remote)" in service.stats().describe()


def test_sticky_mark_skips_the_daemon_on_later_requests(
    monkeypatch, tmp_path, metrics
):
    monkeypatch.setenv("REPRO_SERVICE", "unix:%s/nope.sock" % tmp_path)
    monkeypatch.setenv("REPRO_SERVICE_RETRIES", "0")
    service = KernelService()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        service.get_with_origin(canonicalize(**SYMV))
    fallbacks = metrics("service.remote.fallbacks")
    assert fallbacks == 1
    start = time.perf_counter()
    _, origin = service.get_with_origin(canonicalize(**SYMV, naive=True))
    assert origin == "compiled"
    # no new fallback recorded: the dead daemon was never re-dialed
    assert metrics("service.remote.fallbacks") == fallbacks
    assert time.perf_counter() - start < 5.0


def test_reset_clears_the_sticky_mark(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_SERVICE", "unix:%s/nope.sock" % tmp_path)
    monkeypatch.setenv("REPRO_SERVICE_RETRIES", "0")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert serve_client.fetch_compiled(canonicalize(**SYMV)) is None
    assert not backend_health.remote_ok()
    serve_client.reset()
    assert backend_health.remote_ok()


def test_daemon_killed_mid_run_degrades_without_failures(
    monkeypatch, tmp_path, rng
):
    """The acceptance scenario: daemon dies between requests; every
    subsequent request is served in-process, none fail."""
    request = canonicalize(**SYMV)
    n = 6
    A = rng.random((n, n))
    A = np.maximum(A, A.T)
    x = rng.random(n)
    reference = KernelService(use_remote=False).get_or_compile_request(request)
    expected = reference(A=A, x=x)

    monkeypatch.setenv("REPRO_SERVICE_RETRIES", "1")
    monkeypatch.setenv("REPRO_SERVICE_BACKOFF", "0.01")
    with running_daemon(tmp_path) as (server, sock):
        monkeypatch.setenv("REPRO_SERVICE", "unix:" + sock)
        serve_client.reset()
        service = KernelService()
        kernel, origin = service.get_with_origin(request)
        assert origin == "remote"
        assert np.array_equal(kernel(A=A, x=x), expected)
    # daemon is now gone; a fresh service must degrade transparently
    service2 = KernelService()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        kernel2, origin2 = service2.get_with_origin(request)
    assert origin2 == "compiled"
    assert np.array_equal(kernel2(A=A, x=x), expected)


# ---------------------------------------------------------------------------
# retries against a live daemon
# ---------------------------------------------------------------------------
def test_wire_fault_storm_is_retried_through(monkeypatch, tmp_path, metrics):
    request = canonicalize(**SYMV)
    with running_daemon(tmp_path) as (server, sock):
        client = ServiceClient(sock, retries=3, backoff=0.01)
        with faults.injecting("wire.read=fail*2"):
            reply = client.call(
                "compile", {"spec": protocol.spec_from_request(request)}
            )
        client.close()
    assert reply["ok"]
    assert metrics("service.remote.retries") >= 1


def test_retries_exhausted_raises_unavailable(tmp_path):
    client = ServiceClient(str(tmp_path / "nope.sock"), retries=2, backoff=0.001)
    with pytest.raises(RemoteUnavailable, match="3 attempt"):
        client.call("health")
    client.close()


def test_draining_reply_is_retried_then_unavailable(tmp_path):
    with running_daemon(tmp_path) as (server, sock):
        probe = ServiceClient(sock, retries=0)
        probe.shutdown()  # daemon begins draining
        probe.close()
        client = ServiceClient(sock, retries=1, backoff=0.01)
        with pytest.raises((RemoteUnavailable, OSError)) as err:
            client.call("compile", {"spec": {"einsum": "y[i] += x[i]"}})
        client.close()
    if isinstance(err.value, RemoteUnavailable):
        assert "draining" in str(err.value) or "unavailable" in str(err.value)


def test_degraded_reply_is_not_sticky(monkeypatch, tmp_path, metrics):
    """A daemon that can only produce degraded kernels answers with a
    structured 'degraded' error; the client compiles locally but keeps
    the daemon healthy (other requests may still be fine)."""
    request = canonicalize(**SYMV)
    with running_daemon(tmp_path) as (server, sock):
        monkeypatch.setenv("REPRO_SERVICE", "unix:" + sock)
        serve_client.reset()
        client = serve_client.get_client()
        real = client.compile(request)
        assert real["ok"]
        # forge a degraded reply end to end via a broken-backend kernel:
        # simplest deterministic stand-in is the error path itself
        with pytest.raises(RemoteReplyError) as err:
            client.call("compile", {"spec": "not an object"})
        assert err.value.code == "bad-request"
        assert serve_client.fetch_compiled(request) is not None
        assert backend_health.remote_ok()


def test_forged_program_from_the_daemon_is_compiled_locally(
    monkeypatch, tmp_path, metrics
):
    """A reply whose loop program does not decode (here: a ``Var`` named
    ``x; import os``) is a counted remote error; the request is compiled
    in-process and nothing from the reply is exec'd."""
    request = canonicalize(**SYMV)
    with running_daemon(tmp_path) as (server, sock):
        monkeypatch.setenv("REPRO_SERVICE", "unix:" + sock)
        serve_client.reset()
        client = serve_client.get_client()
        real = client.compile

        def forged(req):
            reply = real(req)
            reply["state"]["lowered"] = replace_node(
                reply["state"]["lowered"],
                ["Var", "t0", "elem"],
                ["Var", "x; import os", "elem"],
            )
            return reply

        monkeypatch.setattr(client, "compile", forged)
        assert serve_client.fetch_compiled(request) is None
        assert metrics("service.remote.errors") == 1
        kernel, origin = KernelService().get_with_origin(request)
        assert origin == "compiled"
    A = np.eye(4) + np.eye(4, k=1) + np.eye(4, k=-1)
    np.testing.assert_allclose(kernel(A=A, x=np.arange(4.0)), A @ np.arange(4.0))


GOOD_NAME = "0123456789abcdef-serial-fedcba9876543210"


@pytest.fixture
def client_objects(monkeypatch, tmp_path):
    """An empty process object cache (the in-thread daemon of these tests
    shares the process, hence — unless swapped — the cache)."""
    from repro.codegen.backends import ctoolchain

    directory = tmp_path / "client-objects"
    directory.mkdir()
    monkeypatch.setattr(ctoolchain, "_build_dir", str(directory))
    return directory


def _shipped(blob, name=GOOD_NAME, **overrides):
    import hashlib

    # what decode_body hands over: a view of the reply frame's segment
    reply = {
        "artifact": memoryview(blob),
        "artifact_sha256": hashlib.sha256(blob).hexdigest(),
        "artifact_name": name,
    }
    reply.update(overrides)
    return reply


def test_fetch_compiled_rejects_mismatched_artifact(client_objects, metrics):
    """A shipped artifact whose bytes do not match artifact_sha256 is
    never adopted — the kernel rehydrates through a clean local path."""
    blob = b"\x7fELF not really"
    serve_client._adopt_artifact(_shipped(blob, artifact_sha256="0" * 64))
    assert metrics("service.remote.artifact_rejected") == 1
    assert list(client_objects.iterdir()) == []

    serve_client._adopt_artifact(_shipped(blob))
    (adopted,) = client_objects.iterdir()
    assert adopted.name.startswith("ck_" + GOOD_NAME) and adopted.read_bytes() == blob
    # a peer that sends text where the segment belongs gets no dlopen
    adopted.unlink()
    serve_client._adopt_artifact(_shipped(blob, artifact="f0VMRg=="))
    assert list(client_objects.iterdir()) == []
    assert metrics("service.remote.artifact_rejected") == 1


@pytest.mark.parametrize(
    "name",
    [
        "../x",
        "/tmp/x",
        "../" + GOOD_NAME,
        GOOD_NAME + "/../../x",
        GOOD_NAME[1:],  # wrong length
        GOOD_NAME.replace("0", "g", 1),  # not hex
        GOOD_NAME.replace("serial", "simd"),  # not a kind
        GOOD_NAME + "\n",
        7,
    ],
)
def test_path_like_artifact_name_is_refused(client_objects, metrics, tmp_path, name):
    """The name decides where bytes land: anything but hex digests and a
    kind word is refused, and nothing is written — inside the cache
    directory or out of it."""
    before = sorted(p for p in tmp_path.rglob("*"))
    serve_client._adopt_artifact(_shipped(b"\x7fELF not really", name=name))
    assert metrics("service.remote.artifact_rejected") == 1
    assert sorted(p for p in tmp_path.rglob("*")) == before


def test_compiled_artifact_rides_a_raw_segment(tmp_path, client_objects):
    """The ``.so`` crosses as the same out-of-band segment tensors use:
    the reply's ``artifact`` is a view of the received frame, hashed and
    adopted as it is — and the rehydrate then finds it by the ordinary
    lookup, with no compiler run."""
    import hashlib

    from repro.codegen.backends import get_backend
    from repro.codegen.backends.objects import IDENTITY
    from repro.core.compiler import CompiledKernel
    from repro.core.config import CompilerOptions
    from repro.obs import trace

    if not get_backend("c").is_available():
        pytest.skip("no working C toolchain")
    request = canonicalize(**SYMV, options=CompilerOptions(backend="c"))
    with running_daemon(tmp_path) as (server, sock):
        client = ServiceClient(sock)
        reply = client.compile(request)
        client.close()
    blob = reply["artifact"]
    assert isinstance(blob, memoryview) and blob[:4] == b"\x7fELF"
    assert hashlib.sha256(blob).hexdigest() == reply["artifact_sha256"]
    assert IDENTITY.fullmatch(reply["artifact_name"])
    # the daemon built into the cache this process had then; adopt into an
    # empty one, as a separate client process would
    for leftover in client_objects.iterdir():
        leftover.unlink()
    serve_client._adopt_artifact(reply)
    (adopted,) = client_objects.iterdir()
    assert adopted.read_bytes() == bytes(blob)
    with trace.tracing() as rec:
        kernel = CompiledKernel.from_state(reply["state"], label=reply["key"][:12])
    assert kernel.bound.executable.so_path == str(adopted)
    assert not [e for e in rec.events if e.name == "cc"]


def test_reply_without_an_object_name_is_built_locally(
    monkeypatch, tmp_path, client_objects, metrics
):
    """An older daemon ships the bytes but does not say which object they
    are: nothing is adopted, the client compiles the shipped state itself
    and the answer still counts as remote."""
    from repro.codegen.backends import get_backend
    from repro.core.config import CompilerOptions
    from repro.obs import trace

    if not get_backend("c").is_available():
        pytest.skip("no working C toolchain")
    request = canonicalize(**SYMV, options=CompilerOptions(backend="c"))
    with running_daemon(tmp_path) as (server, sock):
        monkeypatch.setenv("REPRO_SERVICE", "unix:" + sock)
        serve_client.reset()
        client = serve_client.get_client()
        real = client.compile

        def unnamed(req):
            reply = real(req)
            for leftover in client_objects.iterdir():  # the daemon's build
                leftover.unlink()
            assert reply.pop("artifact_name")
            return reply

        monkeypatch.setattr(client, "compile", unnamed)
        with trace.tracing() as rec:
            kernel, origin = KernelService().get_with_origin(request)
    assert origin == "remote" and kernel.backend == "c"
    # the in-thread daemon's build is traced too: its cc run, then ours
    assert len([e for e in rec.events if e.name == "cc"]) == 2
    assert metrics("service.remote.artifact_rejected") == 0
    A = np.eye(4) + np.eye(4, k=1) + np.eye(4, k=-1)
    np.testing.assert_allclose(kernel(A=A, x=np.arange(4.0)), A @ np.arange(4.0))


# ---------------------------------------------------------------------------
# a remote reply must be the kernel that was asked for
# ---------------------------------------------------------------------------
SSYRK = dict(
    einsum="C[i, j] += A[i, k] * A[j, k]",
    loop_order=("k", "j", "i"),
    formats={"A": "sparse"},
)


def _c_request_under(monkeypatch, name, value):
    """SSYRK canonicalized as a client with ``name=value`` set would; the
    variable is gone again afterwards, so a daemon started next resolves
    the default configuration (daemon threads share this process's
    environment — what matters is what it holds at request time)."""
    from repro.codegen.backends import get_backend
    from repro.core.config import CompilerOptions

    if not get_backend("c").is_available():
        pytest.skip("no working C toolchain")
    for knob_name in ("REPRO_PROFILE", "REPRO_PASSES", "REPRO_OMP_STRATEGY"):
        monkeypatch.delenv(knob_name, raising=False)
    options = CompilerOptions(backend="c", threads=1)
    monkeypatch.setenv(name, value)
    request = canonicalize(**SSYRK, options=options)
    monkeypatch.delenv(name)
    assert request.key != canonicalize(**SSYRK, options=options).key
    return request


@pytest.mark.parametrize(
    "name, value", [("REPRO_PROFILE", "1"), ("REPRO_PASSES", "none")]
)
def test_daemon_builds_what_the_clients_environment_resolved(
    monkeypatch, tmp_path, name, value
):
    """The resolved codegen configuration travels in the wire spec: a
    daemon whose own environment says otherwise still builds — and keys —
    the client's kernel.  (It used to re-resolve under its environment;
    the client loaded that object under its own key and persisted it.)"""
    from repro.service.store import DiskStore

    request = _c_request_under(monkeypatch, name, value)
    with running_daemon(tmp_path) as (server, sock):
        monkeypatch.setenv("REPRO_SERVICE", "unix:" + sock)
        serve_client.reset()
        service = KernelService(store=tmp_path / "client-store")
        kernel, origin = service.get_with_origin(request)
        built = server.service.cache.get(request.key)
    assert origin == "remote" and built is not None
    exe, daemon_exe = kernel.bound.executable, built.bound.executable
    assert kernel.bound.codegen == built.bound.codegen == request.codegen
    # the loaded object is the daemon's build of the *client's* source
    # (modulo the header comment, which names the label)
    body = lambda source: source.split("\n", 1)[1]  # noqa: E731
    assert body(exe.source) == body(daemon_exe.source)
    with open(exe.so_path, "rb") as ours, open(daemon_exe.so_path, "rb") as theirs:
        assert ours.read() == theirs.read()
    if name == "REPRO_PROFILE":
        assert exe.profiled is True and daemon_exe.profiled is True
    else:
        assert "rp_tile" not in exe.source
        default = canonicalize(**SSYRK, options=request.options).compile()
        assert "rp_tile" in default.backend_source
    # and what the client persisted rehydrates as that same kernel, under
    # the scrubbed environment this process now has
    again = DiskStore(tmp_path / "client-store").get(request.key)
    assert body(again.backend_source) == body(exe.source)
    assert again.bound.executable.profiled is exe.profiled


def test_reply_under_a_foreign_key_is_refused(monkeypatch, tmp_path, metrics):
    """The net under the wire field: an older daemon drops ``codegen``
    from the spec, resolves under its own environment and answers with
    *its* key.  The client must not load that under the request's key —
    it compiles locally, and nothing of the reply reaches its store."""
    from repro.obs import trace as obs_trace

    request = _c_request_under(monkeypatch, "REPRO_PROFILE", "1")
    real_spec = protocol.spec_from_request

    def older_spec(req):
        spec = real_spec(req)
        del spec["codegen"]
        return spec

    monkeypatch.setattr(protocol, "spec_from_request", older_spec)
    with running_daemon(tmp_path) as (server, sock):
        monkeypatch.setenv("REPRO_SERVICE", "unix:" + sock)
        serve_client.reset()
        service = KernelService(store=tmp_path / "client-store")
        stored_before_local_compile = []
        cold = service._compile_cold

        def watching(key, req):
            stored_before_local_compile.append(key in service.store)
            return cold(key, req)

        monkeypatch.setattr(service, "_compile_cold", watching)
        with obs_trace.tracing() as rec:
            kernel, origin = service.get_with_origin(request)
    assert origin == "compiled"
    assert stored_before_local_compile == [False]
    assert metrics("service.remote.key_mismatch") == 1
    assert metrics("service.remote.hits") == 0
    (span,) = [e for e in rec.snapshot() if e.name == "service:remote"]
    assert span.args["key_mismatch"] is True and span.args["hit"] is False
    assert kernel.bound.executable.profiled is True  # what was asked for
    assert backend_health.remote_ok()  # a wrong answer is not an outage


# ---------------------------------------------------------------------------
# protocol-version mismatch: loud, not retried, transparent
# ---------------------------------------------------------------------------
def _fallback_warnings(request):
    """Serve *request* through a fresh KernelService; returns the origin
    and the text of every warning raised on the way."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        _, origin = KernelService().get_with_origin(request)
    return origin, [str(w.message) for w in caught]


def test_newer_daemon_falls_back_in_process_naming_the_older_side(
    monkeypatch, tmp_path, metrics
):
    from test_serve_daemon import claim_protocol

    claim_protocol(monkeypatch, protocol.PROTOCOL_VERSION + 1)
    with running_daemon(tmp_path) as (server, sock):
        client = ServiceClient(sock, retries=3, backoff=0.01)
        with pytest.raises(RemoteUnavailable, match="v3, this client v2: the client is older"):
            client.health()
        client.close()
        monkeypatch.setenv("REPRO_SERVICE", "unix:" + sock)
        serve_client.reset()
        origin, messages = _fallback_warnings(canonicalize(**SYMV))
    assert origin == "compiled"
    assert any("daemon unreachable" in m and "client is older" in m for m in messages)
    assert not backend_health.remote_ok()
    assert metrics("service.remote.retries") == 0  # retrying cannot help
    assert metrics("service.remote.fallbacks") == 1


def test_v1_daemon_falls_back_in_process_naming_the_older_side(
    monkeypatch, tmp_path
):
    import json
    import socket

    sock_path = str(tmp_path / "v1.sock")
    listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    listener.bind(sock_path)
    listener.listen(4)

    def serve_v1():
        # what the v1 daemon did with a frame it could not parse: answer
        # in *its* framing (bare JSON), then drop the link
        while True:
            try:
                conn, _ = listener.accept()
            except OSError:
                return
            with conn:
                conn.recv(4096)
                body = json.dumps({"ok": False, "error": "bad-request"}).encode()
                conn.sendall(protocol.HEADER.pack(len(body)) + body)

    thread = threading.Thread(target=serve_v1, daemon=True)
    thread.start()
    try:
        monkeypatch.setenv("REPRO_SERVICE", "unix:" + sock_path)
        monkeypatch.setenv("REPRO_SERVICE_RETRIES", "1")
        monkeypatch.setenv("REPRO_SERVICE_BACKOFF", "0.01")
        serve_client.reset()
        origin, messages = _fallback_warnings(canonicalize(**SYMV))
    finally:
        listener.shutdown(socket.SHUT_RDWR)  # wakes the blocked accept()
        listener.close()
        thread.join(timeout=5.0)
    assert not thread.is_alive()
    assert origin == "compiled"
    assert any("protocol v2" in m and "v1 peer" in m and "older" in m for m in messages)
    assert not backend_health.remote_ok()
