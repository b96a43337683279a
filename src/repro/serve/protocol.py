"""The kernel-service wire protocol (v2): a small JSON head, raw segments.

One frame, either direction (integers are big-endian u32)::

    length | head_len | JSON head | pad | segment 0 | pad | segment 1 ...
           '------------------- body (length bytes) -------------------'

The head is a UTF-8 JSON object in which every bytes-like value of the
message (a tensor's ``data``) is
replaced by ``{"$seg": [offset, nbytes]}``; the bytes themselves follow
as raw segments.  The segment area starts at the first 64-byte boundary
of the body after the head and offsets are multiples of 64 within it, so
the JSON that is escaped and parsed stays a few hundred bytes whatever
the tensor size, and a decoded tensor is an aligned zero-copy view of
the received body.

Frames are bounded by ``$REPRO_SERVE_MAX_FRAME``: an oversized length
prefix is answered with a structured ``bad-request`` error and a closed
connection rather than an attempted allocation — a hostile 4-GiB prefix
must cost the daemon nothing — and ``head_len`` and every reference are
checked against the bytes actually received before anything is sliced.
A body not laid out this way (a v1 peer sends bare JSON) is refused with
a message naming protocol v2; ``health`` replies carry
``PROTOCOL_VERSION`` and the client compares it on connect.

Requests are ``{"op": ..., "id": ...,  ...}`` with operations
``execute`` / ``stats`` / ``health`` / ``shutdown``;
replies are ``{"ok": true, ...}`` or ``{"ok": false, "error": <code>,
"detail": ...}``.  Error codes are part of the protocol:

* ``overloaded`` — the admission queue is full; retry after backoff.
* ``draining`` — the daemon is shutting down; retry elsewhere.
* ``deadline`` — the request's deadline expired inside the daemon.
* ``bad-request`` / ``unknown-op`` / ``internal`` — not retryable.

Tensors cross the wire as their raw C-order bytes, dtype- and
shape-tagged — no textual round-trip, so remote results are
*bit-identical* to in-process execution by construction.

This module is deliberately dependency-light (numpy + stdlib) and shared
verbatim by the daemon (:mod:`repro.serve.daemon`) and the client
(:mod:`repro.serve.client`): there is exactly one definition of the
framing, the tensor codec and the compile-spec codec, so the two ends
cannot drift.
"""

from __future__ import annotations

import json
import struct
from typing import Dict, Mapping, Optional, Tuple

import numpy as np

from repro.core.config import knob

#: frame header: one big-endian u32 payload length.
HEADER = struct.Struct(">I")

#: bumped when the frame layout or reply shapes change incompatibly;
#: ``health`` replies carry it so mismatched peers fail loudly.
PROTOCOL_VERSION = 2

#: the head's stand-in for a lifted bytes-like value is ``{SEGMENT:
#: [offset, nbytes]}``; segments start on multiples of ALIGN in the body.
SEGMENT = "$seg"
ALIGN = 64

# ---------------------------------------------------------------------------
# structured error codes
# ---------------------------------------------------------------------------
OVERLOADED = "overloaded"
DRAINING = "draining"
DEADLINE = "deadline"
BAD_REQUEST = "bad-request"
UNKNOWN_OP = "unknown-op"
INTERNAL = "internal"

#: errors a client may retry (with backoff) before falling back.
RETRYABLE_ERRORS = frozenset({OVERLOADED, DRAINING})

#: operations the protocol defines.
OPERATIONS = ("execute", "stats", "health", "shutdown")


class ProtocolError(ValueError):
    """A frame that violates the wire protocol (oversized, torn, or not
    a JSON object) — the connection that produced it is untrustworthy."""


def error_reply(
    request_id, code: str, detail: Optional[str] = None
) -> dict:
    reply = {"ok": False, "error": code}
    if request_id is not None:
        reply["id"] = request_id
    if detail:
        reply["detail"] = str(detail)[:2000]
    return reply


# ---------------------------------------------------------------------------
# framing
# ---------------------------------------------------------------------------
def _aligned(n: int) -> int:
    return -(-n // ALIGN) * ALIGN


def encode_frame(doc: Mapping, max_frame: Optional[int] = None) -> bytes:
    """Serialize one message into a length-prefixed frame.

    Bytes-like values are lifted into segments as ``json.dumps`` meets
    them; the summed size is checked against the limit before the one
    join that copies them.
    """
    limit = knob("REPRO_SERVE_MAX_FRAME") if max_frame is None else max_frame
    segments = []  # (offset in the segment area, byte view)
    end = 0

    def lift(obj):
        nonlocal end
        if not isinstance(obj, (bytes, bytearray, memoryview)):
            raise TypeError("%s is not JSON serializable" % type(obj).__name__)
        view = memoryview(obj)
        offset = _aligned(end)
        segments.append((offset, view))
        end = offset + view.nbytes
        return {SEGMENT: [offset, view.nbytes]}

    head = json.dumps(doc, separators=(",", ":"), default=lift).encode("utf-8")
    at = HEADER.size + len(head)
    base = _aligned(at) if segments else at
    if base + end > limit:
        raise ProtocolError(
            "frame of %d bytes exceeds the %d-byte limit "
            "(raise $REPRO_SERVE_MAX_FRAME for larger tensors)"
            % (base + end, limit)
        )
    parts = [HEADER.pack(base + end), HEADER.pack(len(head)), head]
    for offset, view in segments:
        parts += (bytes(base + offset - at), view)
        at = base + offset + view.nbytes
    return b"".join(parts)


def decode_length(header: bytes, max_frame: Optional[int] = None) -> int:
    """Validate a frame header; returns the body length."""
    limit = knob("REPRO_SERVE_MAX_FRAME") if max_frame is None else max_frame
    if len(header) != HEADER.size:
        raise ProtocolError("truncated frame header (%d bytes)" % len(header))
    (length,) = HEADER.unpack(header)
    if length > limit:
        raise ProtocolError(
            "frame length prefix %d exceeds the %d-byte limit"
            % (length, limit)
        )
    return length


def decode_body(body) -> dict:
    """Parse a frame body; the head must be a JSON object.

    Each segment reference comes back as a ``memoryview`` slice of
    *body* — validated against the received length, never copied.
    """
    view = memoryview(body)
    head_len = int.from_bytes(view[: HEADER.size], "big")
    if HEADER.size + head_len > view.nbytes:
        raise ProtocolError(
            "not a protocol v%d frame: a %d-byte head does not fit the "
            "%d-byte body (a v1 peer sends bare JSON; it is the older side)"
            % (PROTOCOL_VERSION, head_len, view.nbytes)
        )
    base = _aligned(HEADER.size + head_len)
    room = view.nbytes - base

    def lower(obj: dict):
        if len(obj) != 1 or SEGMENT not in obj:
            return obj
        ref = obj[SEGMENT]
        if not (
            isinstance(ref, list)
            and len(ref) == 2
            and all(type(v) is int and v >= 0 for v in ref)
            and sum(ref) <= room
        ):
            raise ProtocolError("bad segment reference %r" % (ref,))
        return view[base + ref[0] : base + sum(ref)]

    try:
        head = str(view[HEADER.size : HEADER.size + head_len], "utf-8")
        doc = json.loads(head, object_hook=lower)
    except ProtocolError:
        raise
    except (UnicodeDecodeError, ValueError) as exc:
        raise ProtocolError("frame head is not valid JSON: %s" % exc)
    if not isinstance(doc, dict):
        raise ProtocolError(
            "frame head must be a JSON object, got %s" % type(doc).__name__
        )
    return doc


# ---------------------------------------------------------------------------
# tensor codec
# ---------------------------------------------------------------------------
def encode_tensor(arr: np.ndarray) -> dict:
    """A numpy array as ``{"dtype", "shape", "data"}`` where ``data`` is
    a byte view of the array itself (:func:`encode_frame` lifts it into a
    segment).  Only a non-C-contiguous input is copied, once; the shape
    travels separately, so 0-d and empty arrays round-trip as they are.
    """
    arr = np.asarray(arr)
    if not arr.flags.c_contiguous:
        arr = arr.copy(order="C")
    return {
        "dtype": str(arr.dtype),
        "shape": list(arr.shape),
        "data": memoryview(arr.reshape(-1).view(np.uint8)),
    }


def decode_tensor(doc) -> np.ndarray:
    """Rebuild an array; every field is validated against hostile input.

    Only numeric dtypes are accepted (a wire peer must never pick
    ``object`` and smuggle pickles), the shape must be non-negative ints,
    and the segment length must match ``prod(shape) * itemsize`` exactly.
    The result is a view of the segment (writable iff the received
    buffer is), copied only when the buffer is misaligned for the dtype.
    """
    if not isinstance(doc, dict):
        raise ProtocolError("tensor must be an object")
    try:
        dtype = np.dtype(str(doc["dtype"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError("bad tensor dtype: %s" % exc)
    if dtype.kind not in "fiub":
        raise ProtocolError(
            "tensor dtype %s is not numeric" % dtype
        )
    shape = doc.get("shape")
    if not isinstance(shape, list) or not all(
        isinstance(s, int) and s >= 0 for s in shape
    ):
        raise ProtocolError("tensor shape must be a list of ints >= 0")
    data = doc.get("data")
    if not isinstance(data, memoryview):
        raise ProtocolError("tensor data must be an out-of-band segment")
    count = 1
    for s in shape:
        count *= s
    if data.nbytes != count * dtype.itemsize:
        raise ProtocolError(
            "tensor payload is %d bytes, %s%s needs %d"
            % (data.nbytes, dtype, tuple(shape), count * dtype.itemsize)
        )
    arr = np.frombuffer(data, dtype=dtype).reshape(shape)
    return arr if arr.flags.aligned else arr.copy()


def encode_tensors(tensors: Mapping[str, np.ndarray]) -> Dict[str, dict]:
    return {name: encode_tensor(arr) for name, arr in tensors.items()}


def decode_tensors(doc) -> Dict[str, np.ndarray]:
    if not isinstance(doc, dict):
        raise ProtocolError("tensors must be an object of name -> tensor")
    out = {}
    for name, tensor in doc.items():
        if not isinstance(name, str) or not name.isidentifier():
            raise ProtocolError("bad tensor name %r" % (name,))
        out[name] = decode_tensor(tensor)
    return out


# ---------------------------------------------------------------------------
# compile-spec codec
# ---------------------------------------------------------------------------
def spec_from_request(request) -> dict:
    """A :class:`repro.service.keys.CompileRequest` as a wire spec.

    The spec is the *user-facing* compile surface (einsum string,
    symmetric partition, loop order, formats, options dict) plus the
    request's resolved codegen configuration: the daemon re-canonicalizes
    the former through the same :func:`canonicalize` path the client used
    and takes the latter as given, so it builds — and keys — the kernel
    the *client's* environment asked for, not its own.
    """
    spec = {
        "einsum": str(request.assignment),
        "symmetric": {
            name: [list(part) for part in parts]
            for name, parts in request.symmetric_modes
        },
        "loop_order": list(request.loop_order),
        "formats": dict(request.formats),
        "options": request.options.to_dict(),
        "naive": bool(request.naive),
        "sparse_levels": {
            name: list(levels) for name, levels in request.sparse_levels
        },
    }
    if request.codegen is not None:
        spec["codegen"] = request.codegen.to_dict()
    return spec


def request_from_spec(doc):
    """Canonicalize a wire spec back into a ``CompileRequest``.

    Raises ``ValueError`` (including :class:`ProtocolError`) on anything
    malformed — the daemon maps that onto a ``bad-request`` reply.  A
    spec without ``codegen`` (a hand-written one) is resolved under the
    daemon's own environment.
    """
    from repro.codegen.backends.base import CodegenConfig
    from repro.core.config import CompilerOptions
    from repro.service.keys import canonicalize

    if not isinstance(doc, dict):
        raise ProtocolError("spec must be an object")
    einsum = doc.get("einsum")
    if not isinstance(einsum, str) or not einsum.strip():
        raise ProtocolError("spec.einsum must be a non-empty string")
    options_doc = doc.get("options") or {}
    if not isinstance(options_doc, dict):
        raise ProtocolError("spec.options must be an object")
    options = CompilerOptions.from_dict(options_doc)
    loop_order = doc.get("loop_order") or None
    if loop_order is not None and not (
        isinstance(loop_order, list)
        and all(isinstance(i, str) for i in loop_order)
    ):
        raise ProtocolError("spec.loop_order must be a list of index names")
    codegen = doc.get("codegen")
    if codegen is not None:
        codegen = CodegenConfig.from_dict(codegen)
    return canonicalize(
        einsum,
        symmetric=doc.get("symmetric") or None,
        loop_order=tuple(loop_order) if loop_order else None,
        formats=doc.get("formats") or None,
        options=options,
        naive=bool(doc.get("naive", False)),
        sparse_levels=doc.get("sparse_levels") or None,
        codegen=codegen,
    )
