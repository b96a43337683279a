"""``ServiceClient``: bounded retries and loud protocol mismatches."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro import faults
from repro.obs import metrics as obs_metrics
from repro.serve import protocol
from repro.serve.client import RemoteUnavailable, ServiceClient
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
