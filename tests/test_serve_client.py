"""``ServiceClient``: bounded retries, loud protocol mismatches, and the
daemon building — and keying — what the client's environment resolved."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro import faults
from repro.obs import metrics as obs_metrics
from repro.serve import protocol
from repro.serve.client import RemoteUnavailable, ServiceClient
from repro.service.engine import KernelService
from repro.service.keys import canonicalize
from tests.conftest import make_symmetric_matrix, running_daemon

SYMV = dict(
    einsum="y[i] += A[i,j] * x[j]",
    symmetric={"A": True},
    formats={"A": "sparse"},
)


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
# retries
# ---------------------------------------------------------------------------
def test_wire_fault_storm_is_retried_through(tmp_path, metrics, rng):
    request = canonicalize(**SYMV)
    tensors = {"A": make_symmetric_matrix(rng, 6), "x": rng.random(6)}
    with running_daemon(tmp_path) as (server, sock):
        client = ServiceClient(sock, retries=3, backoff=0.01)
        with faults.injecting("wire.read=fail*2"):
            result, reply = client.execute(request, tensors)
        client.close()
    assert reply["ok"]
    np.testing.assert_allclose(result, tensors["A"] @ tensors["x"])
    assert metrics("service.remote.retries") >= 1


def test_retries_exhausted_raises_unavailable(tmp_path):
    client = ServiceClient(str(tmp_path / "nope.sock"), retries=2, backoff=0.001)
    with pytest.raises(RemoteUnavailable, match="3 attempt"):
        client.call("health")
    client.close()


def test_draining_reply_is_retried_then_unavailable(tmp_path, rng):
    request = canonicalize(**SYMV)
    tensors = {"A": make_symmetric_matrix(rng, 6), "x": rng.random(6)}
    with running_daemon(tmp_path) as (server, sock):
        probe = ServiceClient(sock, retries=0)
        probe.shutdown()  # daemon begins draining
        probe.close()
        client = ServiceClient(sock, retries=1, backoff=0.01)
        with pytest.raises((RemoteUnavailable, OSError)) as err:
            client.execute(request, tensors)
        client.close()
    if isinstance(err.value, RemoteUnavailable):
        assert "draining" in str(err.value) or "unavailable" in str(err.value)


# ---------------------------------------------------------------------------
# the daemon builds the kernel the client's request names
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
    monkeypatch, tmp_path, rng, name, value
):
    """The resolved codegen configuration travels in the wire spec: a
    daemon whose own environment says otherwise still builds — and keys —
    the client's kernel, and a process opening the daemon's store finds
    that kernel under the client's key."""
    request = _c_request_under(monkeypatch, name, value)
    tensors = {"A": rng.random((5, 3))}
    store = tmp_path / "store"
    with running_daemon(tmp_path, store=str(store)) as (server, sock):
        client = ServiceClient(sock)
        result, reply = client.execute(request, tensors)
        client.close()
        built = server.service.cache.get(request.key)
    assert reply["key"] == request.key and built is not None
    exe = built.bound.executable
    assert built.bound.codegen == request.codegen
    if name == "REPRO_PROFILE":
        assert exe.profiled is True
    else:
        assert "rp_tile" not in exe.source
        default = canonicalize(**SSYRK, options=request.options).compile()
        assert "rp_tile" in default.backend_source
    # what the daemon persisted rehydrates as that same kernel, under the
    # scrubbed environment this process now has
    kernel, origin = KernelService(store=store).get_with_origin(request)
    assert origin == "disk"
    body = lambda source: source.split("\n", 1)[1]  # noqa: E731 (banner names a label)
    assert body(kernel.backend_source) == body(built.backend_source)
    assert kernel.bound.executable.profiled is exe.profiled
    assert np.array_equal(kernel(**tensors), result)


# ---------------------------------------------------------------------------
# protocol-version mismatch: loud, not retried
# ---------------------------------------------------------------------------
def test_newer_daemon_is_refused_naming_the_older_side(
    monkeypatch, tmp_path, metrics
):
    from test_serve_daemon import claim_protocol

    claim_protocol(monkeypatch, protocol.PROTOCOL_VERSION + 1)
    with running_daemon(tmp_path) as (server, sock):
        client = ServiceClient(sock, retries=3, backoff=0.01)
        with pytest.raises(RemoteUnavailable, match="v3, this client v2: the client is older"):
            client.health()
        client.close()
    assert metrics("service.remote.retries") == 0  # retrying cannot help


def test_v1_daemon_is_refused_naming_the_older_side(tmp_path):
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
        client = ServiceClient(sock_path, retries=1, backoff=0.01)
        with pytest.raises(RemoteUnavailable) as err:
            client.health()
        client.close()
    finally:
        listener.shutdown(socket.SHUT_RDWR)  # wakes the blocked accept()
        listener.close()
        thread.join(timeout=5.0)
    assert not thread.is_alive()
    message = str(err.value)
    assert "protocol v2" in message and "v1 peer" in message and "older" in message
