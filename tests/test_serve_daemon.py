"""Daemon robustness tests: bit-identity over the wire, one compile per
key, backpressure, deadlines, drain, hostile input, and crash-safe restart.

The daemon runs in a background thread with its own event loop (the same
process, so fault injection and health state are shared and observable);
the kill-9 test runs a real ``repro serve`` subprocess.
"""

from __future__ import annotations

import json
import os
import signal
import socket as socket_module
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from repro import faults
from repro.cli import _synth_inputs
from repro.core.config import CompilerOptions
from repro.serve import daemon as serve_daemon
from repro.serve import protocol
from repro.serve.client import RemoteReplyError, RemoteUnavailable, ServiceClient
from repro.serve.daemon import KernelServer, PlanPool, probe_socket
from repro.service.engine import KernelService
from repro.service.keys import canonicalize
from tests.conftest import make_symmetric_matrix, running_daemon

SYMV = dict(
    einsum="y[i] += A[i,j] * x[j]",
    symmetric={"A": True},
    formats={"A": "sparse"},
)

#: a small dense SYMV argument set: a cold ``execute`` of it compiles inside
#: the daemon, under whatever ``service.compile`` faults a test arms
SYMV_TENSORS = {
    "A": np.eye(4) + np.eye(4, k=1) + np.eye(4, k=-1),
    "x": np.arange(4.0),
}

ROOT = Path(__file__).resolve().parent.parent


def execute_msg(rid, request, **extra) -> dict:
    """An ``execute`` frame for *request* over :data:`SYMV_TENSORS`."""
    msg = {
        "op": "execute",
        "id": rid,
        "spec": protocol.spec_from_request(request),
        "tensors": protocol.encode_tensors(SYMV_TENSORS),
    }
    msg.update(extra)
    return msg


def raw_call(sock_path: str, msg: dict, timeout: float = 10.0) -> dict:
    """One frame exchange over a fresh connection, no retry policy."""
    sock = socket_module.socket(socket_module.AF_UNIX, socket_module.SOCK_STREAM)
    sock.settimeout(timeout)
    try:
        sock.connect(sock_path)
        sock.sendall(protocol.encode_frame(msg))
        header = _recv_exact(sock, protocol.HEADER.size)
        return protocol.decode_body(
            _recv_exact(sock, protocol.decode_length(header))
        )
    finally:
        sock.close()


def claim_protocol(monkeypatch, version: int) -> None:
    """Every daemon's ``health`` reply now claims protocol *version* (a
    daemon from another release, as far as a client can tell)."""
    real = KernelServer._health_reply
    monkeypatch.setattr(
        KernelServer,
        "_health_reply",
        lambda self, rid: dict(real(self, rid), protocol=version),
    )


def _recv_exact(sock, n: int) -> bytes:
    chunks = []
    while n:
        chunk = sock.recv(n)
        if not chunk:
            raise ConnectionResetError("peer closed")
        chunks.append(chunk)
        n -= len(chunk)
    return b"".join(chunks)


# ---------------------------------------------------------------------------
# the acceptance criterion: every library kernel, both dtypes, over the
# socket, bit-identical to in-process execution
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_all_kernels_bit_identical_over_socket(tmp_path, dtype):
    from repro.kernels.extensions import EXTENSIONS
    from repro.kernels.library import KERNELS

    specs = dict(KERNELS)
    specs.update(EXTENSIONS)
    local = KernelService()
    with running_daemon(tmp_path, store=str(tmp_path / "store")) as (server, sock):
        client = ServiceClient(sock)
        for name in sorted(specs):
            spec = specs[name]
            request = canonicalize(
                spec.einsum,
                symmetric=dict(spec.symmetric),
                loop_order=spec.loop_order,
                formats=dict(spec.formats),
                options=CompilerOptions(dtype=dtype),
            )
            kernel = local.get_or_compile_request(request)
            tensors = _synth_inputs(kernel, 5)
            expected = kernel(**tensors)
            remote, reply = client.execute(request, tensors)
            assert reply["ok"], name
            assert remote.dtype == expected.dtype, name
            assert np.array_equal(remote, expected), name
        client.close()
    assert server.errors == 0


def test_plan_pool_reuses_warm_plans(tmp_path, rng):
    request = canonicalize(**SYMV)
    kernel = KernelService().get_or_compile_request(request)
    tensors = _synth_inputs(kernel, 6)
    with running_daemon(tmp_path) as (server, sock):
        client = ServiceClient(sock)
        _, r1 = client.execute(request, tensors)
        _, r2 = client.execute(request, tensors)
        client.close()
    assert r1["plan_pooled"] is False
    assert r2["plan_pooled"] is True
    assert server.plans.hits == 1


# ---------------------------------------------------------------------------
# one compile per key, backpressure, deadlines
# ---------------------------------------------------------------------------
def test_concurrent_cold_executes_compile_once(tmp_path):
    """Three clients racing one cold key: the service's single-flight
    compiles it once and every reply carries the same bytes."""
    request = canonicalize(**SYMV)
    with running_daemon(tmp_path) as (server, sock):
        with faults.injecting("service.compile=slow:0.4*1"):
            results = []

            def one():
                client = ServiceClient(sock)
                results.append(client.execute(request, SYMV_TENSORS)[0])
                client.close()

            threads = [threading.Thread(target=one) for _ in range(3)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=15.0)
    assert len(results) == 3
    assert all(r.tobytes() == results[0].tobytes() for r in results)
    np.testing.assert_allclose(results[0], SYMV_TENSORS["A"] @ SYMV_TENSORS["x"])
    assert server.service.stats().compiles == 1


def test_compile_op_is_answered_unknown_op(tmp_path):
    """The daemon runs kernels; it does not hand compiled ones out.  A
    client that asks (protocol v2 used to define ``compile``) is told which
    operations exist, and nothing is compiled."""
    request = canonicalize(**SYMV)
    with running_daemon(tmp_path) as (server, sock):
        reply = raw_call(
            sock,
            {"op": "compile", "id": 1, "spec": protocol.spec_from_request(request)},
        )
    assert reply["ok"] is False and reply["error"] == protocol.UNKNOWN_OP
    assert reply["detail"].endswith("(have: execute, stats, health, shutdown)")
    assert server.service.stats().compiles == 0


def test_saturated_queue_sheds_with_structured_overloaded(tmp_path):
    request = canonicalize(**SYMV)
    with running_daemon(tmp_path, queue_limit=1) as (server, sock):
        with faults.injecting("serve.handler=slow:1.0*1"):
            slow = threading.Thread(
                target=lambda: raw_call(sock, execute_msg(1, request)),
            )
            slow.start()
            # wait until the slow request occupies the only admission slot
            deadline = time.monotonic() + 5.0
            while server._active == 0:
                assert time.monotonic() < deadline, "slow request never admitted"
                time.sleep(0.005)
            shed = raw_call(sock, execute_msg(2, request))
            slow.join(timeout=10.0)
    assert shed["ok"] is False
    assert shed["error"] == protocol.OVERLOADED
    assert shed["error"] in protocol.RETRYABLE_ERRORS
    assert server.shed >= 1
    # control ops are exempt from admission: health must answer even at
    # saturation (operators need to see *into* an overloaded daemon)
    assert server.requests >= 2


def test_request_deadline_expires_with_structured_reply(tmp_path):
    request = canonicalize(**SYMV)
    with running_daemon(tmp_path) as (server, sock):
        with faults.injecting("service.compile=slow:5"):
            reply = raw_call(sock, execute_msg(1, request, deadline_s=0.1))
    assert reply == {
        "ok": False,
        "id": 1,
        "error": protocol.DEADLINE,
        "detail": "request deadline expired",
    }
    assert server.deadline_timeouts == 1


def test_health_stats_and_unknown_op(tmp_path):
    with running_daemon(tmp_path) as (server, sock):
        health = raw_call(sock, {"op": "health", "id": 1})
        stats = raw_call(sock, {"op": "stats", "id": 2})
        bogus = raw_call(sock, {"op": "frobnicate", "id": 3})
    assert health["ok"] and health["status"] == "serving"
    assert health["protocol"] == protocol.PROTOCOL_VERSION
    assert health["pid"] == os.getpid()
    assert stats["ok"] and stats["server"]["queue_limit"] == server.queue_limit
    assert "memory" in stats["stats"]
    assert bogus["error"] == protocol.UNKNOWN_OP


# ---------------------------------------------------------------------------
# graceful drain
# ---------------------------------------------------------------------------
def test_drain_finishes_inflight_and_rejects_new(tmp_path):
    request = canonicalize(**SYMV)
    with running_daemon(tmp_path) as (server, sock):
        with faults.injecting("service.compile=slow:0.5*1"):
            inflight = {}

            def slow():
                inflight["reply"] = raw_call(sock, execute_msg(1, request))

            thread = threading.Thread(target=slow)
            thread.start()
            while server._active == 0 and thread.is_alive():
                time.sleep(0.01)
            shutdown = raw_call(sock, {"op": "shutdown", "id": 2})
            assert shutdown["ok"] and shutdown["status"] == "draining"
            rejected = raw_call(sock, execute_msg(3, request))
            thread.join(timeout=10.0)
    # the in-flight request finished cleanly; the late one was refused
    assert inflight["reply"]["ok"] is True
    assert rejected["error"] == protocol.DRAINING
    assert rejected["error"] in protocol.RETRYABLE_ERRORS
    assert not os.path.exists(sock), "drained daemon must unlink its socket"
    assert not os.path.exists(sock + ".lock"), "drained daemon must drop its lock"


@pytest.mark.parametrize("live", (0, 1))
def test_a_link_made_while_closing_is_closed_not_left_waiting(tmp_path, live):
    """A connection the listener accepted just before ``close()`` began is
    made (``connection_made``) only after ``close()`` cancelled the *live*
    links it saw.  ``close()`` returns once that one is closed too, so its
    client reads EOF instead of waiting out its timeout for a reply."""
    import asyncio

    async def scenario():
        server = KernelServer(str(tmp_path / "d.sock"))
        await server.start()
        loop = asyncio.get_running_loop()
        peers = []

        def link():
            ours, theirs = socket_module.socketpair()
            theirs.setblocking(False)
            peers.append(theirs)
            return loop.connect_accepted_socket(lambda: serve_daemon._Connection(server), ours)

        for _ in range(live):
            await link()  # close() cancels it and waits for it to wind down
        # accepted, not yet made: what the listener's own accept task is
        # when close() begins
        accepting = asyncio.ensure_future(link())
        await server.close()  # in this step: no wait_for task around it
        # no loop pass since close() returned: every peer is already closed
        got = [p.recv(1) for p in peers]
        await accepting
        for p in peers:
            p.close()
        return got, server._links

    done = []
    # its own thread: the loop installs no signal handlers off the main one
    thread = threading.Thread(target=lambda: done.append(asyncio.run(scenario())))
    thread.start()
    thread.join(30.0)
    assert done and done[0] == ([b""] * (live + 1), set())


# ---------------------------------------------------------------------------
# hostile input
# ---------------------------------------------------------------------------
def _hostile_sock(sock_path, timeout=5.0):
    sock = socket_module.socket(socket_module.AF_UNIX, socket_module.SOCK_STREAM)
    sock.settimeout(timeout)
    sock.connect(sock_path)
    return sock


def _daemon_still_serves(sock_path) -> bool:
    reply = raw_call(sock_path, {"op": "health", "id": 99})
    return bool(reply.get("ok"))


def test_oversized_prefix_answered_and_connection_dropped(tmp_path):
    with running_daemon(tmp_path, max_frame=4096) as (server, sock):
        hostile = _hostile_sock(sock)
        try:
            hostile.sendall(protocol.HEADER.pack(0xFFFFFFFF) + b"x" * 64)
            header = _recv_exact(hostile, protocol.HEADER.size)
            reply = protocol.decode_body(
                _recv_exact(hostile, protocol.decode_length(header))
            )
            assert reply["error"] == protocol.BAD_REQUEST
            # after a framing violation the connection must be closed
            assert hostile.recv(1) == b""
        finally:
            hostile.close()
        assert _daemon_still_serves(sock)
        assert server.errors >= 1


def test_garbage_json_answered_bad_request(tmp_path):
    with running_daemon(tmp_path) as (server, sock):
        hostile = _hostile_sock(sock)
        try:
            body = b"\xde\xad\xbe\xef not json"
            hostile.sendall(protocol.HEADER.pack(len(body)) + body)
            header = _recv_exact(hostile, protocol.HEADER.size)
            reply = protocol.decode_body(
                _recv_exact(hostile, protocol.decode_length(header))
            )
            assert reply["error"] == protocol.BAD_REQUEST
        finally:
            hostile.close()
        assert _daemon_still_serves(sock)


def test_v1_peer_is_answered_bad_request_naming_protocol_v2(tmp_path):
    # a v1 client frames bare JSON: it must get an answer it can log (not
    # a hang, not an allocation sized by its first four characters)
    with running_daemon(tmp_path) as (server, sock):
        hostile = _hostile_sock(sock)
        try:
            body = b'{"op":"health","id":1}'
            hostile.sendall(protocol.HEADER.pack(len(body)) + body)
            header = _recv_exact(hostile, protocol.HEADER.size)
            reply = protocol.decode_body(
                _recv_exact(hostile, protocol.decode_length(header))
            )
            assert reply["error"] == protocol.BAD_REQUEST
            assert "protocol v2" in reply["detail"]
            assert hostile.recv(1) == b""
        finally:
            hostile.close()
        assert _daemon_still_serves(sock)


def test_reply_larger_than_the_frame_limit_is_answered_not_dropped(tmp_path):
    # two 512-byte vectors fit an 8 KiB frame; their 32 KiB outer product
    # does not, and the limit is found before the reply is assembled
    request = canonicalize("C[i,j] += x[i] * y[j]")
    tensors = {"x": np.arange(64.0), "y": np.arange(64.0) + 1.0}
    with running_daemon(tmp_path, max_frame=8192) as (server, sock):
        reply = raw_call(
            sock,
            {
                "op": "execute",
                "id": 5,
                "spec": protocol.spec_from_request(request),
                "tensors": protocol.encode_tensors(tensors),
            },
        )
        assert reply == {
            "ok": False,
            "id": 5,
            "error": protocol.INTERNAL,
            "detail": "reply exceeds the frame limit",
        }
        assert _daemon_still_serves(sock)


def test_stats_count_frame_bytes_in_both_directions(tmp_path):
    with running_daemon(tmp_path) as (server, sock):
        link = _hostile_sock(sock)
        try:
            sent = received = 0
            for op in ("health", "stats"):
                frame = protocol.encode_frame({"op": op, "id": 1})
                link.sendall(frame)
                sent += len(frame)
                header = _recv_exact(link, protocol.HEADER.size)
                body = _recv_exact(link, protocol.decode_length(header))
                if op == "health":
                    received += len(header) + len(body)
            stats = protocol.decode_body(body)["server"]
        finally:
            link.close()
    # the stats reply is assembled before it is itself written
    assert (stats["bytes_in"], stats["bytes_out"]) == (sent, received)


def _read_reply(link) -> dict:
    header = _recv_exact(link, protocol.HEADER.size)
    return protocol.decode_body(_recv_exact(link, protocol.decode_length(header)))


def test_a_segment_reaching_into_an_earlier_frames_bytes_is_refused(tmp_path, rng):
    # a link's frames land in one reused buffer: a small frame whose
    # reference points past its own end, into bytes a larger frame left
    # there, must be judged on the bytes it brought
    request = canonicalize(**SYMV)
    a = rng.random((64, 64))
    tensors = {"A": a + a.T, "x": rng.random(64)}
    with running_daemon(tmp_path) as (server, sock):
        link = _hostile_sock(sock)
        try:
            link.sendall(
                protocol.encode_frame(
                    {
                        "op": "execute",
                        "id": 1,
                        "spec": protocol.spec_from_request(request),
                        "tensors": protocol.encode_tensors(tensors),
                    }
                )
            )
            assert _read_reply(link)["ok"]
            stale = {"dtype": "float64", "shape": [64, 64],
                     "data": {protocol.SEGMENT: [0, a.nbytes]}}
            head = json.dumps(
                {"op": "execute", "id": 2,
                 "spec": protocol.spec_from_request(request),
                 "tensors": {"A": stale, "x": stale}}
            ).encode()
            body = protocol.HEADER.pack(len(head)) + head
            link.sendall(protocol.HEADER.pack(len(body)) + body)
            reply = _read_reply(link)
            assert reply["error"] == protocol.BAD_REQUEST
            assert "segment reference" in reply["detail"]
            assert link.recv(1) == b""
        finally:
            link.close()
        assert _daemon_still_serves(sock)


def test_pipelined_executes_are_answered_in_order_and_bit_identical(tmp_path):
    request = canonicalize(**SYMV)
    kernel = KernelService().get_or_compile_request(request)
    # the larger frame first: the second lands over its leftover bytes
    sent = [_synth_inputs(kernel, 9), _synth_inputs(kernel, 6)]
    frames = b"".join(
        protocol.encode_frame(
            {
                "op": "execute",
                "id": rid,
                "spec": protocol.spec_from_request(request),
                "tensors": protocol.encode_tensors(tensors),
            }
        )
        for rid, tensors in enumerate(sent)
    )
    with running_daemon(tmp_path) as (server, sock):
        link = _hostile_sock(sock)
        try:
            link.sendall(frames)  # both before either reply is read
            replies = [_read_reply(link) for _ in sent]
        finally:
            link.close()
    assert [reply["id"] for reply in replies] == [0, 1]
    for reply, tensors in zip(replies, sent):
        got = protocol.decode_tensor(reply["result"])
        expected = np.asarray(kernel(**tensors))
        assert got.dtype == expected.dtype and got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()


def test_a_zero_of_the_other_sign_misses_the_pool(tmp_path):
    request = canonicalize(**SYMV)
    kernel = KernelService().get_or_compile_request(request)
    plus = dict(SYMV_TENSORS, x=np.array([0.0, 1.0, 2.0, 3.0]))
    minus = dict(SYMV_TENSORS, x=np.array([-0.0, 1.0, 2.0, 3.0]))
    assert plus["x"].tobytes() != minus["x"].tobytes()
    sent = [plus, minus, minus, plus]
    with running_daemon(tmp_path) as (server, sock):
        client = ServiceClient(sock)
        got = [client.execute(request, tensors) for tensors in sent]
        client.close()
    assert [reply["plan_pooled"] for _, reply in got] == [False, False, True, True]
    for (result, _), tensors in zip(got, sent):
        assert result.tobytes() == np.asarray(kernel(**tensors)).tobytes()
    assert (server.plans.hits, server.plans.misses) == (2, 2)


def test_an_abandoned_worker_keeps_reading_its_own_frame(tmp_path):
    # a deadline abandons the worker, not its thread: the next frame on
    # the link must land in another buffer than the one it still reads
    request = canonicalize(**SYMV)
    first = dict(SYMV_TENSORS, x=np.array([1.0, 1.0, 1.0, 1.0]))
    second = dict(SYMV_TENSORS, x=np.array([2.0, 2.0, 2.0, 2.0]))
    resume = threading.Event()
    seen = []
    with running_daemon(tmp_path) as (server, sock):
        real = server._execute

        def execute(request, tensors):
            if tensors["x"][0] == 1.0:
                before = tensors["x"].tobytes()
                resume.wait(10.0)
                x = tensors["x"]
                seen.append((x.flags.writeable, x.tobytes() == before))
            return real(request, tensors)

        server._execute = execute
        client = ServiceClient(sock)
        try:
            with pytest.raises(RemoteReplyError) as info:
                client.execute(request, first, deadline=0.2)
            assert info.value.code == protocol.DEADLINE
            # the same layout (deadline_s of one length), so its x lands
            # where the first frame's x was
            result, _ = client.execute(request, second, deadline=9.0)
        finally:
            resume.set()
            client.close()
        deadline = time.monotonic() + 10.0
        while not seen and time.monotonic() < deadline:
            time.sleep(0.01)
    assert seen == [(False, True)]  # read-only, and never overwritten
    kernel = KernelService().get_or_compile_request(request)
    assert result.tobytes() == np.asarray(kernel(**second)).tobytes()


def test_mid_request_disconnect_leaves_daemon_serving(tmp_path):
    with running_daemon(tmp_path) as (server, sock):
        hostile = _hostile_sock(sock)
        hostile.sendall(protocol.HEADER.pack(1000) + b"only-a-fragment")
        hostile.close()
        time.sleep(0.1)
        assert _daemon_still_serves(sock)


def test_slowloris_is_disconnected_by_read_timeout(tmp_path):
    with running_daemon(tmp_path, read_timeout=0.2) as (server, sock):
        hostile = _hostile_sock(sock)
        try:
            # start a frame, then dribble: the daemon must cut us off
            hostile.sendall(protocol.HEADER.pack(1000))
            start = time.monotonic()
            hostile.settimeout(5.0)
            assert hostile.recv(1) == b""  # EOF: daemon dropped the link
            assert time.monotonic() - start < 4.0
        finally:
            hostile.close()
        assert _daemon_still_serves(sock)


def test_bad_spec_answered_bad_request_not_crash(tmp_path):
    with running_daemon(tmp_path) as (server, sock):
        reply = raw_call(
            sock,
            {"op": "execute", "id": 1, "spec": {"einsum": 42},
             "tensors": protocol.encode_tensors(SYMV_TENSORS)},
        )
        assert reply["error"] == protocol.BAD_REQUEST
        reply = raw_call(sock, {"op": "execute", "id": 2, "spec": None})
        assert reply["error"] == protocol.BAD_REQUEST
        assert _daemon_still_serves(sock)


def test_spec_naming_a_deleted_pass_answered_bad_request(tmp_path):
    """A peer whose spec still carries a codegen configuration (one that
    selects loop phases) asks for settings this build no longer has:
    refused, not silently rebuilt without them."""
    from tests.test_serve_protocol import PARENT_CODEGEN

    spec = {
        **protocol.spec_from_request(canonicalize(**SYMV)),
        "options": {"backend": "c"},
        "codegen": PARENT_CODEGEN,
    }
    with running_daemon(tmp_path) as (server, sock):
        reply = raw_call(
            sock,
            {"op": "execute", "id": 1, "spec": spec,
             "tensors": protocol.encode_tensors(SYMV_TENSORS)},
        )
        assert reply["ok"] is False and reply["error"] == protocol.BAD_REQUEST
        assert "spec has unknown keys: codegen" in reply["detail"]
        assert _daemon_still_serves(sock)


def test_mismatched_extent_answered_bad_request_naming_the_index(tmp_path, rng):
    """An ``execute`` whose ``x`` is shorter than ``A``'s extent used to
    come back as numbers (C backend: read past ``x``) or ``internal``
    (Python backend: IndexError); ``prepare`` now refuses it."""
    request = canonicalize(**SYMV)
    tensors = {"A": make_symmetric_matrix(rng, 40), "x": np.ones(5)}
    with running_daemon(tmp_path) as (server, sock):
        reply = raw_call(
            sock,
            {
                "op": "execute",
                "id": 1,
                "spec": protocol.spec_from_request(request),
                "tensors": protocol.encode_tensors(tensors),
            },
        )
        assert reply["ok"] is False and reply["error"] == protocol.BAD_REQUEST
        assert "index 'j' has extent 5 in x[j] but 40 elsewhere" in reply["detail"]
        assert "result" not in reply
        assert _daemon_still_serves(sock)


def test_wire_accept_fault_drops_connection_only(tmp_path):
    with running_daemon(tmp_path) as (server, sock):
        with faults.injecting("wire.accept=fail*1"):
            dropped = _hostile_sock(sock)
            try:
                # the daemon closes at accept; our next read sees EOF
                assert dropped.recv(1) == b""
            finally:
                dropped.close()
            assert _daemon_still_serves(sock)


# ---------------------------------------------------------------------------
# warm restart + crash tolerance
# ---------------------------------------------------------------------------
def test_warm_restart_rehydrates_from_store(tmp_path):
    store_dir = str(tmp_path / "store")
    request = canonicalize(**SYMV)
    with running_daemon(tmp_path, store=store_dir) as (server, sock):
        client = ServiceClient(sock)
        assert client.execute(request, SYMV_TENSORS)[1]["origin"] == "compiled"
        client.close()
    sock2 = str(tmp_path / "second.sock")
    server2 = KernelServer(sock2, store=store_dir)
    warmed, failed = server2.warm_from_store()
    assert (warmed, failed) == (1, 0)
    assert request.key in server2.service.cache
    server2._lock_file.release()  # never started; nothing else to clean


def test_stale_socket_and_lock_reclaimed(tmp_path):
    sock = str(tmp_path / "daemon.sock")
    # a crashed predecessor: dead socket file + lock stamped with a pid
    # that no longer exists
    socket_module.socket(socket_module.AF_UNIX).bind(sock)
    with open(sock + ".lock", "w") as handle:
        handle.write("999999999\n")
    server = KernelServer(sock)
    server._claim_socket()
    try:
        assert not probe_socket(sock)
    finally:
        server._lock_file.release()
    # a *live* holder is respected: claiming against it must fail
    with running_daemon(tmp_path) as (daemon, live_sock):
        rival = KernelServer(live_sock)
        with pytest.raises(RuntimeError, match="another daemon"):
            rival._claim_socket()


@pytest.mark.slow
def test_kill9_mid_compile_then_clean_restart(tmp_path):
    """SIGKILL a daemon mid-compile; the next start must reclaim the
    socket and lock, leave no litter, and serve the request cleanly."""
    store_dir = tmp_path / "store"
    sock = str(tmp_path / "daemon.sock")
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["REPRO_FAULTS"] = "service.compile=slow:30"
    argv = [
        sys.executable,
        "-m",
        "repro.cli",
        "serve",
        "--socket",
        sock,
        "--dir",
        str(store_dir),
    ]
    proc = subprocess.Popen(
        argv, env=env, cwd=str(ROOT),
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
    )
    try:
        deadline = time.monotonic() + 30.0
        while not os.path.exists(sock):
            assert proc.poll() is None, proc.stdout.read().decode()
            assert time.monotonic() < deadline
            time.sleep(0.05)
        request = canonicalize(**SYMV)
        # park a cold execute behind the injected 30s compile stall, then
        # kill -9
        hostile = _hostile_sock(sock)
        hostile.sendall(protocol.encode_frame(execute_msg(1, request)))
        time.sleep(0.5)
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=10.0)
        hostile.close()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10.0)

    # restart over the corpse, no fault spec this time
    env.pop("REPRO_FAULTS")
    proc = subprocess.Popen(
        argv, env=env, cwd=str(ROOT),
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
    )
    try:
        deadline = time.monotonic() + 30.0
        while not probe_socket(sock):
            assert proc.poll() is None, proc.stdout.read().decode()
            assert time.monotonic() < deadline
            time.sleep(0.05)
        request = canonicalize(**SYMV)
        reply = raw_call(sock, execute_msg(1, request))
        assert reply["ok"], reply
        raw_call(sock, {"op": "shutdown", "id": 2})
        proc.wait(timeout=30.0)
        assert proc.returncode == 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10.0)
    # no lock/tmp litter, no corrupt store entries
    litter = [
        p.name
        for p in store_dir.glob("*")
        if p.suffix in (".lock", ".tmp") or p.name.startswith(".")
    ]
    assert litter == [], litter
    assert not os.path.exists(sock)
    assert not os.path.exists(sock + ".lock")
    from repro.service.store import DiskStore

    store = DiskStore(store_dir)
    for key in store.keys():
        assert store.get(key) is not None, "corrupt store entry %s" % key


# ---------------------------------------------------------------------------
# the plan pool in isolation
# ---------------------------------------------------------------------------
class _StubKernel:
    """Stands in for a compiled kernel: its plan is a tag of its inputs."""

    def __init__(self, name):
        self.name = name

    def execution_plan(self, **inputs):
        return (self.name, inputs)


def _x(value) -> dict:
    return {"x": np.full(3, float(value))}


def test_plan_pool_lru_and_busy_semantics():
    pool = PlanPool(capacity=2)
    a, b, c = _x(1), _x(2), _x(3)
    PlanPool.release(pool.admit("k", a, _StubKernel("ka")))
    PlanPool.release(pool.admit("k", b, _StubKernel("kb")))
    entry = pool.acquire("k", a)
    assert entry.kernel.name == "ka"
    # the entry owns a copy of what it was admitted with
    assert not np.shares_memory(entry.inputs["x"], a["x"])
    assert entry.plan == ("ka", entry.inputs)
    # while "a" is busy, a duplicate acquire runs unpooled
    assert pool.acquire("k", a) is None
    PlanPool.release(pool.admit("k", c, _StubKernel("kc")))  # evicts the idle "b"
    assert pool.acquire("k", b) is None
    PlanPool.release(entry)
    assert pool.acquire("k", a) is not None
    assert len(pool) == 2
    assert (pool.hits, pool.misses) == (2, 2)


def test_plan_pool_eviction_skips_busy_entries():
    pool = PlanPool(capacity=2)
    a, b, c, d = _x(1), _x(2), _x(3), _x(4)
    held = pool.admit("k", a, _StubKernel("ka"))  # admitted borrowed
    PlanPool.release(pool.admit("k", b, _StubKernel("kb")))
    # "a" is the least recently used entry but busy: "b" goes instead
    PlanPool.release(pool.admit("k", c, _StubKernel("kc")))
    assert pool.acquire("k", b) is None
    PlanPool.release(held)
    # LRU order: "c" was admitted after "a", then "a" is borrowed again
    PlanPool.release(pool.acquire("k", a))
    PlanPool.release(pool.admit("k", d, _StubKernel("kd")))  # evicts "c"
    assert pool.acquire("k", c) is None
    assert [pool.acquire("k", t).kernel.name for t in (a, d)] == ["ka", "kd"]


def test_plan_pool_matches_key_names_dtypes_and_shapes_exactly():
    pool = PlanPool(capacity=8)
    PlanPool.release(pool.admit("k", _x(0), _StubKernel("k")))
    for key, tensors in [
        ("other", _x(0)),
        ("k", {"y": np.zeros(3)}),
        ("k", {"x": np.zeros(3, dtype=np.float32)}),
        ("k", {"x": np.zeros(4)}),
        ("k", {"x": np.array([0.0, -0.0, 0.0])}),  # one zero's sign
    ]:
        assert pool.acquire(key, tensors) is None, (key, tensors)
    assert pool.acquire("k", _x(0)) is not None


def test_plan_pool_capacity_zero_disables():
    pool = PlanPool(capacity=0)
    a = _x(1)
    entry = pool.admit("k", a, _StubKernel("k"))
    assert entry.inputs["x"] is a["x"]  # never pooled, so never copied
    PlanPool.release(entry)
    assert pool.acquire("k", a) is None
    assert len(pool) == 0


def test_plan_pool_tells_a_new_vector_apart_without_walking_the_matrix(
    monkeypatch,
):
    # one matrix, a new vector per call: every pooled entry shares the
    # matrix, so a miss must be decided on the vector alone
    pool = PlanPool(capacity=8)
    A = np.ones((256, 256))
    for v in range(8):
        tensors = {"A": A, "x": np.full(256, float(v))}
        PlanPool.release(pool.admit("k", tensors, _StubKernel("k")))
    walked = []
    same_bytes = serve_daemon._same_bytes
    monkeypatch.setattr(
        serve_daemon,
        "_same_bytes",
        lambda a, b: walked.append(a.nbytes) or same_bytes(a, b),
    )
    assert pool.acquire("k", {"A": A, "x": np.full(256, 8.0)}) is None
    assert walked == [256 * 8] * 8


def test_plan_pool_copies_a_miss_into_an_evicted_entrys_storage():
    pool = PlanPool(capacity=2)
    A = np.ones((256, 256))
    first = pool.admit("k", {"A": A, "x": _x(1)["x"]}, _StubKernel("k"))
    kept = first.inputs["A"]
    PlanPool.release(first)
    PlanPool.release(pool.admit("k", {"A": A, "x": _x(2)["x"]}, _StubKernel("k")))
    tracemalloc.start()
    try:
        third = pool.admit("k", {"A": A, "x": _x(3)["x"]}, _StubKernel("k"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert third.inputs["A"] is kept  # the evicted first entry's copy
    assert peak < A.nbytes // 4, peak
    assert np.array_equal(third.inputs["x"], _x(3)["x"])
    PlanPool.release(third)
    # the evicted entry stays borrowed: no lookup reaches it again
    assert pool.acquire("k", {"A": A, "x": _x(1)["x"]}) is None
    assert first.busy.locked()


def test_plan_pool_never_lends_one_entry_twice():
    # more threads than cores, switching every microsecond: an entry is
    # borrowed by one thread at a time, matches the bytes it was asked
    # for, and every lookup is counted once
    pool = PlanPool(capacity=3)
    inputs = [_x(v) for v in range(5)]
    holders: dict = {}
    guard = threading.Lock()
    errors = []

    def worker(seed):
        for step in range(300):
            tensors = inputs[(seed * 7 + step) % len(inputs)]
            entry = pool.acquire("k", tensors)
            if entry is None:
                entry = pool.admit("k", tensors, _StubKernel("k"))
            with guard:
                if id(entry) in holders:
                    errors.append("entry lent twice")
                holders[id(entry)] = seed
            if entry.inputs["x"].tobytes() != tensors["x"].tobytes():
                errors.append("entry holds other bytes")
            with guard:
                del holders[id(entry)]
            PlanPool.release(entry)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    assert errors == []
    assert pool.hits + pool.misses == 8 * 300
    assert len(pool) <= 3
