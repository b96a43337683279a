"""Wire-protocol unit tests: the v2 frame layout (JSON head + aligned raw
segments), the zero-copy tensor codec, the spec codec, and the
hostile-input rules (oversized prefixes, forged heads and references,
forged dtypes) — every rejection decided from the header/head alone."""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import CompilerOptions
from repro.serve import protocol
from repro.serve.protocol import ProtocolError
from repro.service.keys import canonicalize

H = protocol.HEADER.size


def wire(doc: dict):
    """Encode *doc*, check the length prefix, and decode the body out of
    a fresh bytearray (what the client's ``recv_into`` buffer is)."""
    frame = protocol.encode_frame(doc)
    assert protocol.decode_length(frame[:H]) == len(frame) - H
    body = bytearray(frame[H:])
    return protocol.decode_body(body), body


def forge(head, segments: bytes = b"", head_len=None) -> bytes:
    """A body with an arbitrary head (any JSON value, or raw bytes) and
    segment area; ``head_len`` may lie."""
    raw = head if isinstance(head, bytes) else json.dumps(head).encode()
    pad = -(H + len(raw)) % protocol.ALIGN if segments else 0
    declared = len(raw) if head_len is None else head_len
    return protocol.HEADER.pack(declared) + raw + bytes(pad) + segments


def seg(offset, nbytes) -> dict:
    return {protocol.SEGMENT: [offset, nbytes]}


# ---------------------------------------------------------------------------
# framing
# ---------------------------------------------------------------------------
def test_frame_round_trip():
    doc = {"op": "health", "id": 7, "nested": {"a": [1, 2, 3]}}
    back, body = wire(doc)
    assert back == doc
    # no bytes-like value, no segment area: the body is head_len + head
    assert len(body) == H + int.from_bytes(body[:H], "big")


def test_frame_layout_head_then_aligned_segments():
    blobs = [b"\x01" * 5, b"", bytearray(b"\x02" * 70), memoryview(b"\x03" * 3)]
    frame = protocol.encode_frame({"op": "x", "blobs": blobs, "n": 1})
    body = frame[H:]
    head_len = int.from_bytes(body[:H], "big")
    head = json.loads(body[H : H + head_len])
    base = -(-(H + head_len) // protocol.ALIGN) * protocol.ALIGN
    assert head["n"] == 1 and b"\x01" not in body[: H + head_len]
    for blob, ref in zip(blobs, head["blobs"]):
        offset, nbytes = ref[protocol.SEGMENT]
        assert (base + offset) % protocol.ALIGN == 0 and nbytes == len(blob)
        assert body[base + offset : base + offset + nbytes] == bytes(blob)
    assert len(body) == base + 192 + 3  # 5 @0, 0 @64, 70 @64, 3 @192
    back = protocol.decode_body(body)
    assert [bytes(b) for b in back["blobs"]] == [bytes(b) for b in blobs]
    assert all(isinstance(b, memoryview) for b in back["blobs"])


def test_oversized_length_prefix_rejected_before_allocation():
    # a hostile 4-GiB length prefix must be refused from the header alone
    header = protocol.HEADER.pack(0xFFFFFFFF)
    with pytest.raises(ProtocolError, match="exceeds"):
        protocol.decode_length(header, max_frame=1 << 20)


def test_truncated_header_rejected():
    with pytest.raises(ProtocolError, match="truncated"):
        protocol.decode_length(b"\x00\x01")


def test_encode_frame_checks_the_summed_size_before_any_join():
    import tracemalloc

    with pytest.raises(ProtocolError, match="exceeds"):
        protocol.encode_frame({"blob": "x" * 2048}, max_frame=1024)
    # three 4 MiB tensors each fit an 8 MiB frame; their sum does not,
    # and finding that out allocates nothing tensor-sized
    tensors = protocol.encode_tensors({n: np.zeros(1 << 19) for n in "abc"})
    tracemalloc.start()
    try:
        with pytest.raises(ProtocolError, match="exceeds the %d-byte" % (8 << 20)):
            protocol.encode_frame({"tensors": tensors}, max_frame=8 << 20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024, peak


def test_encode_frame_rejects_unserializable_values():
    # only bytes / bytearray / memoryview are lifted; an ndarray that
    # skipped encode_tensor (or a numpy scalar) is a caller bug
    for value in (np.zeros(3), np.float32(1.0), {1, 2}):
        with pytest.raises(TypeError, match="not JSON serializable"):
            protocol.encode_frame({"v": value})


@pytest.mark.parametrize(
    "body",
    [
        b"",
        b"\x00\x00",  # shorter than head_len itself
        forge(b"not json at all"),
        forge([1, 2, 3]),
        forge("just a string"),
        forge(b"\xff\xfe"),
        forge({"op": "health"}, head_len=1000),  # head_len > body
        b'{"op":"health","id":1}',  # a v1 peer: bare JSON
        b"\xde\xad\xbe\xef not json",
    ],
)
def test_bad_bodies_rejected(body):
    with pytest.raises(ProtocolError):
        protocol.decode_body(body)


def test_v1_body_is_refused_naming_protocol_v2():
    with pytest.raises(ProtocolError, match="protocol v2.*v1 peer"):
        protocol.decode_body(b'{"op":"health","id":1}')
    with pytest.raises(ProtocolError, match="protocol v2"):
        protocol.decode_body(forge({"op": "health"}, head_len=1 << 31))


@pytest.mark.parametrize(
    "ref",
    [
        [-64, 8],  # negative offset
        [0, -8],  # negative length
        [0.0, 8],  # non-int
        ["0", 8],
        [True, 8],  # bool is not an offset
        [0, 8, 0],
        [0],
        "0:8",
        None,
        [0, 65],  # one byte past the end
        [64, 1],  # starts at the end
        [1 << 62, 1 << 62],
    ],
)
def test_forged_segment_references_rejected(ref):
    body = forge({"op": "x", "blob": {protocol.SEGMENT: ref}}, bytes(64))
    with pytest.raises(ProtocolError, match="segment reference"):
        protocol.decode_body(body)


def test_references_are_judged_without_touching_segment_bytes():
    # the segment area a reference points into was never sent: the
    # verdict can only have come from the head
    with pytest.raises(ProtocolError, match="segment reference"):
        protocol.decode_body(forge({"blob": seg(0, 1 << 20)}))
    # ... and a well-formed reference is a slice, not a copy
    body = bytearray(forge({"blob": seg(64, 4)}, bytes(64) + b"abcd"))
    blob = protocol.decode_body(body)["blob"]
    body[-4:] = b"wxyz"
    assert bytes(blob) == b"wxyz"


#: the segment area of the property test below.
ROOM = 256

#: references into it: overlapping and unaligned by construction, with
#: the edges (empty, ending at the last byte, one byte past it) forced in
_refs = st.one_of(
    st.tuples(st.integers(0, ROOM + 1), st.integers(0, ROOM + 1)),
    st.sampled_from(
        [(0, 0), (ROOM, 0), (ROOM, 1), (ROOM - 1, 1), (ROOM - 1, 2),
         (0, ROOM), (0, ROOM + 1), (1, ROOM)]
    ),
)


@given(refs=st.lists(_refs, min_size=1, max_size=6), slack=st.integers(0, 300))
@settings(max_examples=300, deadline=None)
def test_segment_references_stay_inside_the_received_body(refs, slack):
    """``decode_body`` either returns views within the bytes received or
    raises ``ProtocolError`` — also when the body sits at the front of a
    larger buffer whose tail still holds an earlier frame's bytes."""
    area = bytes(i % 251 for i in range(ROOM))
    body = forge({"blobs": [seg(o, n) for o, n in refs]}, area)
    buffer = bytearray(body) + b"\xff" * slack
    base = len(body) - ROOM
    try:
        blobs = protocol.decode_body(memoryview(buffer)[: len(body)])["blobs"]
    except ProtocolError as exc:
        assert "segment reference" in str(exc)
        assert any(o + n > ROOM for o, n in refs)
        return
    assert all(o + n <= ROOM for o, n in refs)
    start = np.frombuffer(buffer, dtype=np.uint8).ctypes.data
    for (o, n), blob in zip(refs, blobs):
        assert isinstance(blob, memoryview) and blob.nbytes == n
        assert bytes(blob) == area[o : o + n]
        if n:
            at = np.frombuffer(blob, dtype=np.uint8).ctypes.data - start
            assert at == base + o and at + n <= len(body)


# ---------------------------------------------------------------------------
# tensor codec
# ---------------------------------------------------------------------------
def _inputs(rng):
    square = rng.random((6, 6))
    readonly = rng.random((4, 3))
    readonly.setflags(write=False)
    return {
        "float64": rng.random((5, 7)),
        "float32": rng.random((5, 7)).astype("float32"),
        "int64": rng.integers(-(2**62), 2**62, (3, 4)),
        "bool": rng.random((4, 4)) > 0.5,
        "zero_d": np.array(2.5),
        "empty": np.zeros((0,)),
        "empty_2d": np.zeros((0, 5), dtype="float32"),
        "f_ordered": np.asfortranarray(square),
        "strided": square[::2, ::3],
        "readonly": readonly,
    }


def test_tensor_round_trip_bit_identical_zero_copy_and_aligned(rng):
    tensors = _inputs(rng)
    doc, body = wire({"op": "x", "tensors": protocol.encode_tensors(tensors)})
    back = protocol.decode_tensors(doc["tensors"])
    whole = np.frombuffer(body, dtype=np.uint8)
    assert list(back) == list(tensors)
    for name, arr in tensors.items():
        got = back[name]
        assert got.dtype == arr.dtype and got.shape == arr.shape, name
        assert got.tobytes() == arr.tobytes(), name  # exact: raw bytes
        assert got.flags.aligned and got.flags.c_contiguous, name
        if arr.size:
            assert np.shares_memory(got, whole), name  # a view of the body
            assert got.ctypes.data % 8 == 0, name
    back["float64"][0, 0] = -1.0  # the client's buffer is writable


def test_encode_tensor_copies_only_non_contiguous_inputs(rng):
    tensors = _inputs(rng)
    for name, arr in tensors.items():
        data = protocol.encode_tensor(arr)["data"]
        assert isinstance(data, memoryview) and data.nbytes == arr.nbytes
        if arr.size:
            copied = name in ("f_ordered", "strided")
            view = np.frombuffer(data, dtype=np.uint8)
            assert np.shares_memory(view, arr) is not copied, name


def test_misaligned_body_takes_the_copy_fallback(rng):
    arr = rng.random((3, 5))
    frame = protocol.encode_frame({"t": protocol.encode_tensor(arr)})
    shifted = bytearray(1) + frame[H:]  # every segment now at 1 mod 8
    body = memoryview(shifted)[1:]
    got = protocol.decode_tensor(protocol.decode_body(body)["t"])
    assert got.flags.aligned and got.tobytes() == arr.tobytes()
    assert not np.shares_memory(got, np.frombuffer(shifted, dtype=np.uint8))


def test_decode_tensors_accepts_encode_tensors_directly(rng):
    # the in-process pairing the benchmark's codec probe uses (no frame)
    tensors = {"A": rng.random((4, 4)), "x": rng.random(4)}
    back = protocol.decode_tensors(protocol.encode_tensors(tensors))
    assert all(np.array_equal(back[k], tensors[k]) for k in tensors)


@pytest.mark.parametrize(
    "doc",
    [
        "not a dict",
        {"dtype": "object", "shape": [1], "data": seg(0, 8)},  # pickles
        {"dtype": "datetime64[s]", "shape": [1], "data": seg(0, 8)},
        {"dtype": "U4", "shape": [1], "data": seg(0, 16)},
        {"dtype": "no-such-dtype", "shape": [1], "data": seg(0, 8)},
        {"shape": [1], "data": seg(0, 8)},
        {"dtype": "float64", "shape": "bad", "data": seg(0, 8)},
        {"dtype": "float64", "shape": [-1], "data": seg(0, 8)},
        {"dtype": "float64", "shape": [1.0], "data": seg(0, 8)},
        {"dtype": "float64", "shape": [2], "data": seg(0, 8)},  # too short
        {"dtype": "float64", "shape": [1], "data": seg(0, 16)},  # too long
        {"dtype": "float64", "shape": [], "data": seg(0, 0)},  # 0-d needs 8
        {"dtype": "float64", "shape": [1], "data": "AAAAAAAAAAA="},  # v1 text
        {"dtype": "float64", "shape": [1], "data": [0, 0, 0, 0, 0, 0, 0, 0]},
        {"dtype": "float64", "shape": [1]},
    ],
)
def test_hostile_tensors_rejected(doc):
    # through the frame decoder, as the daemon sees them: a 64-byte
    # segment area so that every reference itself is in range
    body = forge({"t": doc}, bytes(64))
    with pytest.raises(ProtocolError):
        protocol.decode_tensor(protocol.decode_body(body)["t"])


def test_tensors_mapping_validates_names(rng):
    good = protocol.encode_tensors({"A": rng.random((2, 2))})
    assert set(protocol.decode_tensors(good)) == {"A"}
    with pytest.raises(ProtocolError, match="name"):
        protocol.decode_tensors({"not an identifier!": good["A"]})
    with pytest.raises(ProtocolError):
        protocol.decode_tensors(["A"])


# ---------------------------------------------------------------------------
# compile-spec codec
# ---------------------------------------------------------------------------
def test_spec_round_trip_preserves_key():
    request = canonicalize(
        "y[i] += A[i,j] * x[j]",
        symmetric={"A": True},
        formats={"A": "sparse"},
        options=CompilerOptions(dtype="float32"),
    )
    spec = protocol.spec_from_request(request)
    back = protocol.request_from_spec(spec)
    assert back.key == request.key
    assert back == request


def test_spec_round_trip_naive_and_levels():
    request = canonicalize(
        "y[i] += A[i,j] * x[j]",
        formats={"A": "sparse"},
        sparse_levels={"A": ["dense", "compressed"]},
        naive=True,
    )
    back = protocol.request_from_spec(protocol.spec_from_request(request))
    assert back.key == request.key


@pytest.mark.parametrize(
    "doc",
    [
        None,
        "y[i] += x[i]",
        {},
        {"einsum": ""},
        {"einsum": 42},
        {"einsum": "y[i] += x[i]", "options": "bad"},
        {"einsum": "y[i] += x[i]", "loop_order": [1, 2]},
        # a truthy non-bool switch would build the lookup-table kernel
        # under a key of its own
        {
            "einsum": "C[i, j] += A[i, k, l] * B[k, j] * B[l, j]",
            "symmetric": {"A": True},
            "options": {"lookup_table": "no"},
        },
        # an older peer that still sent pass switches
        {"einsum": "y[i] += A[i, j] * x[j]", "options": {"cse": False}},
        # misspelled keys: dropped, they would build the SySTeC kernel
        # under the SySTeC key, and float64
        {"einsum": "y[i] += A[i, j] * x[j]", "naiv": True},
        {"einsum": "y[i] += A[i, j] * x[j]", "optoins": {"dtype": "float32"}},
        # an older peer that still sent its resolved profile flag
        {"einsum": "y[i] += A[i, j] * x[j]", "codegen": {"profile": True}},
    ],
)
def test_hostile_specs_rejected(doc):
    with pytest.raises(ValueError):
        protocol.request_from_spec(doc)


#: what a peer of the version that still compiled in per-nest timing sends
GOOD_CODEGEN = {"profile": True}
#: what a peer of the version that still selected loop phases sends
PARENT_CODEGEN = {"profile": False, "passes": ["fuse", "tile", "simd"], "tile_rows": 0}
C_SPEC = {
    "einsum": "y[i] += A[i,j] * x[j]",
    "symmetric": {"A": True},
    "options": {"backend": "c"},
}


def test_a_spec_has_exactly_the_keys_spec_from_request_emits():
    """A spec round-trips to the same key whatever backend it names, and
    carries exactly :data:`protocol.SPEC_KEYS` — nothing the environment
    resolved travels with it."""
    for backend in ("c", "python"):
        request = protocol.request_from_spec(
            {**C_SPEC, "options": {"backend": backend}}
        )
        spec = protocol.spec_from_request(request)
        assert sorted(spec) == sorted(protocol.SPEC_KEYS)
        assert protocol.request_from_spec(spec).key == request.key


@pytest.mark.parametrize(
    "bad",
    [
        "fuse+simd",
        {},
        # a peer of the version that still printed an atomic OpenMP body
        {**GOOD_CODEGEN, "omp_strategy": "atomic"},
        {**GOOD_CODEGEN, "profile": 1},
        # a peer of the version that still selected loop phases
        PARENT_CODEGEN,
    ],
)
def test_hostile_codegen_rejected(bad):
    """Nothing configures generated C, so a spec that still carries a
    codegen configuration — well-formed or not, from any older peer — is
    refused, never built with it ignored."""
    with pytest.raises(ValueError, match="unknown keys: codegen"):
        protocol.request_from_spec({**C_SPEC, "codegen": bad})


def test_error_reply_shape():
    reply = protocol.error_reply(3, protocol.OVERLOADED, "queue full")
    assert reply == {
        "ok": False,
        "id": 3,
        "error": "overloaded",
        "detail": "queue full",
    }
    assert protocol.OVERLOADED in protocol.RETRYABLE_ERRORS
    assert protocol.DRAINING in protocol.RETRYABLE_ERRORS
    assert protocol.DEADLINE not in protocol.RETRYABLE_ERRORS
