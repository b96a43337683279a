"""Wire-cost guards for the daemon protocol — counts, never timings.

What made ``daemon_roundtrip`` 99 % serialization was tensor bytes
travelling as text (base64 inside JSON) and being copied at every layer.
These tests pin the replacement by what can be counted exactly: bytes of
JSON head per request, bytes of frame per byte of tensor, bytes allocated
while encoding / decoding, calls into ``base64`` — and the one copy the
daemon must still make (the result, before its plan goes back to the
pool).  A reintroduced text encoding fails here without a threshold on
anyone's clock.
"""

from __future__ import annotations

import base64
import tracemalloc

import numpy as np
import pytest

from repro.cli import _synth_inputs
from repro.serve import client as serve_client
from repro.serve import daemon as serve_daemon
from repro.serve import protocol
from repro.serve.client import ServiceClient
from repro.serve.daemon import KernelServer, _execute_digest
from repro.service.engine import KernelService
from repro.service.keys import canonicalize

from test_serve_daemon import SYMV, running_daemon

H = protocol.HEADER.size
MIB = 1 << 20


@pytest.fixture
def request_1mib(rng):
    """An ``execute`` message whose matrix is exactly 1 MiB."""
    request = canonicalize(**SYMV)
    tensors = {"A": rng.random((512, 256)), "x": rng.random(256)}
    assert tensors["A"].nbytes == MIB
    return {"op": "execute", "id": 1, "spec": protocol.spec_from_request(request)}, tensors


def allocated(fn):
    """``(result, peak bytes allocated while running fn)``."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_head_stays_small_and_frame_does_not_inflate(request_1mib):
    msg, tensors = request_1mib
    msg["tensors"] = protocol.encode_tensors(tensors)
    frame = protocol.encode_frame(msg)
    head_len = int.from_bytes(frame[H : 2 * H], "big")
    assert head_len < 2048, head_len  # what json escapes and parses
    payload = sum(arr.nbytes for arr in tensors.values())
    assert len(frame) - payload < 4096, len(frame) - payload  # base64: +33 %
    # the tensor bytes are on the wire verbatim, 64-byte aligned in the body
    at = frame.index(tensors["A"].tobytes())
    assert (at - H) % protocol.ALIGN == 0


def test_encoding_makes_one_copy_and_never_goes_through_text(
    request_1mib, monkeypatch
):
    msg, tensors = request_1mib
    calls = []
    for name in ("b64encode", "b64decode", "encodebytes", "decodebytes"):
        monkeypatch.setattr(
            base64, name, lambda *a, _name=name, **k: calls.append(_name)
        )
    for module in (protocol, serve_client, serve_daemon):
        assert not hasattr(module, "base64"), module.__name__

    encoded, peak = allocated(lambda: protocol.encode_tensors(tensors))
    assert peak < 16 * 1024, peak  # views of the arrays: no tobytes()
    assert np.shares_memory(
        np.frombuffer(encoded["A"]["data"], dtype=np.uint8), tensors["A"]
    )
    msg["tensors"] = encoded
    frame, peak = allocated(lambda: protocol.encode_frame(msg))
    assert MIB <= peak < MIB + 64 * 1024, peak  # the join, nothing else

    body = bytearray(frame[H:])  # the client's recv_into buffer
    doc, peak = allocated(
        lambda: protocol.decode_tensors(protocol.decode_body(body)["tensors"])
    )
    assert peak < 16 * 1024, peak  # slices of the frame: no copy back
    assert doc["A"].tobytes() == tensors["A"].tobytes()
    assert calls == []


def test_result_is_copied_out_before_the_plan_returns_to_the_pool(tmp_path):
    request = canonicalize(**SYMV)
    kernel = KernelService().get_or_compile_request(request)
    tensors = _synth_inputs(kernel, 6)
    expected = kernel(**tensors).copy()
    server = KernelServer(str(tmp_path / "never-started.sock"))
    try:
        first = server._execute(request, tensors)
        second = server._execute(request, tensors)
        assert (first["plan_pooled"], second["plan_pooled"]) == (False, True)
        a = protocol.decode_tensor(first["result"])
        b = protocol.decode_tensor(second["result"])
        # the next borrower scribbles over the plan's reusable buffer
        # while both replies still wait to be framed
        entry = server.plans.acquire(_execute_digest(request.key, tensors))
        out = entry[1]()
        assert not np.shares_memory(a, out) and not np.shares_memory(b, out)
        assert not np.shares_memory(a, b)
        out[...] = -1.0
        server.plans.release(entry)
        assert np.array_equal(a, expected) and np.array_equal(b, expected)
    finally:
        server._pool.shutdown(wait=False)


def test_pooled_plans_answer_each_request_with_its_own_result(tmp_path):
    request = canonicalize(**SYMV)
    kernel = KernelService().get_or_compile_request(request)
    one = _synth_inputs(kernel, 6)
    two = {name: arr * 3.0 + 1.0 for name, arr in one.items()}  # same shapes
    two["A"] = np.maximum(two["A"], two["A"].T)
    expected = {id(t): kernel(**t).copy() for t in (one, two)}
    with running_daemon(tmp_path) as (server, sock):
        client = ServiceClient(sock)
        results = []
        for tensors in (one, one, two, two, one):
            result, reply = client.execute(request, tensors)
            results.append((tensors, result, reply["plan_pooled"]))
        client.close()
    assert [pooled for _, _, pooled in results] == [False, True, False, True, True]
    for tensors, result, _ in results:  # checked after every later reply
        assert np.array_equal(result, expected[id(tensors)])
    assert server.errors == 0
