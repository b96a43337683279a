"""The strict and diagonal views of a large symmetric matrix or 3-mode
tensor, in one pass.

Where the numpy route makes about fifteen passes over the payload, a C
routine here reads each entry once and writes the bytes of both views of
diagonal splitting (paper §4.2.9): ``rp_split`` for a matrix stored
``(dense, sparse)``, ``rp_split3`` for a 3-mode tensor, one symmetric
group, stored ``(dense, sparse, sparse)`` (MTTKRP-3D's CSF), each in the
identity storage order.  At the first entry of a half out of storage
order or bounds, or a non-canonical entry of a ``canonical=True``
payload, it gives up: the numpy route sorts, or raises its
``ValueError``.  Every other layout (a 4-mode tensor, a permuted storage
order) takes numpy.  A process builds both routines, one object, on its
first large split, whatever its backend.
"""

from __future__ import annotations

import ctypes
import threading

import numpy as np

from repro.obs import metrics as obs_metrics
from repro.tensor.coo import INDEX_DTYPES, index_dtype
from repro.tensor.fiber import DENSE, SPARSE, FiberTensor

#: the smallest payload the native pass takes: a process with only smaller
#: ones (a daemon's, ``cold_compile``'s: ≤ 9 k entries) never runs the
#: routines' one ``cc`` (stem ``tensor_split``, ~100 ms).  Tests lower it.
MIN_ENTRIES = 2**16

#: 0: both views written; 1: gave up (out of order or bounds, or not canonical
#: under ``check``).  Values are copied as bits; a row's ``pos`` slot is its last
#: count (the caller fills empty rows); ``rp_index`` is the C printer's type.
#: In three modes a new ``(i, j)`` opens a level-1 head (``idx[1]`` and its leaf
#: segment's start in ``pos[2]``); ``out`` holds each half's heads and leaves.
SOURCE = r"""
int64_t rp_split(int64_t nnz, int64_t n, int64_t check, const rp_index *row, const rp_index *col,
                 const uint64_t *val, rp_index *spos, rp_index *sidx, uint64_t *sval,
                 rp_index *dpos, rp_index *didx, uint64_t *dval, int64_t *out) {
    int64_t ns = 0, nd = 0, skey = 0, dkey = 0;
    for (int64_t e = 0; e < nnz; e++) {
        int64_t i = row[e], j = col[e];
        if (i > j) {
            if (j < 0 || i >= n || (i << 32 | j) < skey) return 1;
            skey = i << 32 | j;
            sidx[ns] = (rp_index)j, sval[ns++] = val[e], spos[i + 1] = (rp_index)ns;
        } else if (i == j) {
            if (i < dkey || i >= n) return 1;
            dkey = i;
            didx[nd] = (rp_index)j, dval[nd++] = val[e], dpos[i + 1] = (rp_index)nd;
        } else if (check) return 1;
    }
    out[0] = ns, out[1] = nd;
    return 0;
}

#define RP_PUT(h) {                                                                              \
    int64_t ij = i << 32 | j;                                                                    \
    if (ij < h##ij || (ij == h##ij && k < h##k)) return 1;                                       \
    if (ij != h##ij) h##idx1[h##nh] = (rp_index)j, h##pos2[h##nh++] = (rp_index)h##nl,           \
                     h##pos1[i + 1] = (rp_index)h##nh;                                           \
    h##ij = ij, h##k = k, h##idx2[h##nl] = (rp_index)k, h##val[h##nl++] = val[e]; }
int64_t rp_split3(int64_t nnz, int64_t n, int64_t check, const rp_index *c0, const rp_index *c1,
                  const rp_index *c2, const uint64_t *val, rp_index *spos1, rp_index *sidx1,
                  rp_index *spos2, rp_index *sidx2, uint64_t *sval, rp_index *dpos1, rp_index *didx1,
                  rp_index *dpos2, rp_index *didx2, uint64_t *dval, int64_t *out) {
    int64_t snh = 0, snl = 0, sij = -1, sk = 0, dnh = 0, dnl = 0, dij = -1, dk = 0;
    for (int64_t e = 0; e < nnz; e++) {
        int64_t i = c0[e], j = c1[e], k = c2[e];
        if (i < j || j < k) {
            if (check) return 1;
        } else if (k < 0 || i >= n) return 1;
        else if (i > j && j > k) RP_PUT(s)
        else RP_PUT(d)
    }
    spos2[snh] = (rp_index)snl, dpos2[dnh] = (rp_index)dnl;
    out[0] = snh, out[1] = snl, out[2] = dnh, out[3] = dnl;
    return 0;
}
"""

_lock, _loaded = threading.Lock(), {}  # the routines per toolchain (None: no build or load)


def _routine():
    from repro.codegen.backends import c, cexec, ctoolchain

    tc = ctoolchain.probe()
    with _lock:
        if tc is not None and tc not in _loaded:
            source = "\n".join(("#include <stdint.h>",) + c.INDEX_DECLARATION) + SOURCE
            build = lambda force: ctoolchain.compile_shared(source, stem="tensor_split", force=force)  # noqa: E731
            try:
                try:
                    lib = cexec.dlopen(build(False))
                except OSError:  # an object that does not load is rebuilt once, as a kernel's is
                    lib = cexec.dlopen(build(True))
                fns = {2: lib.rp_split, 3: lib.rp_split3}
                for ndim, fn in fns.items():  # rows, values, both halves' arrays, counts
                    fn.restype = ctypes.c_int64
                    fn.argtypes = [ctypes.c_int64] * 3 + [ctypes.c_void_p] * 5 * ndim
            except (ctoolchain.ToolchainError, OSError):
                fns = None
            _loaded[tc] = fns
        return _loaded.get(tc)


def split(coo, parts, order, levels, check: bool):
    """The ``strict`` and ``diagonal`` views of *coo* by name, or ``None``
    when the numpy route builds them, counted by the reason."""
    ndim, layout = coo.ndim, (DENSE, SPARSE, SPARSE)[: coo.ndim]
    one_group = [len(p) for p in parts] == [ndim]  # one symmetric group covers every mode
    if ndim not in (2, 3) or not one_group or order != tuple(range(ndim)) or levels != layout:
        reason = "layout"
    elif coo.nnz < MIN_ENTRIES:
        reason = "small"
    elif index_dtype(coo.shape, coo.nnz) != INDEX_DTYPES[0]:
        reason = "wide"
    elif coo.coords.dtype != INDEX_DTYPES[0] or coo.vals.dtype != np.float64:
        reason = "dtype"
    else:
        fns = _routine()
        if fns and (views := _run(fns[ndim], coo, check, layout)):
            obs_metrics.inc("tensor.split.native")
            return views
        reason = "unsorted" if fns else "no_toolchain"
    obs_metrics.inc("tensor.split.numpy." + reason)
    return None


def _run(fn, coo, check: bool, levels):
    """One call into halves with room for every entry.  A matrix's two
    arrays per half are then shrunk in place (copied out, they cost ~1 ms
    more a split); a 3-mode tensor's four are copied out at size, largest
    first (shrunk in place, they read 1–2 MiB more peak memory on
    ``kernel_steady``, under a fixed glibc mmap threshold too)."""
    n, nnz, ndim, sparse = coo.shape[0], coo.nnz, coo.ndim, range(1, coo.ndim)
    rows, vals = np.ascontiguousarray(coo.coords), np.ascontiguousarray(coo.vals)
    room = (nnz,) if ndim == 2 else (nnz, nnz + 1, nnz)  # idx[1] (, pos[2], idx[2])
    halves = [[np.zeros(n + 1, rows.dtype), *(np.empty(r, rows.dtype) for r in room), np.empty_like(vals)]
              for _ in "sd"]
    out = np.zeros(2 * ndim - 2, np.int64)
    if fn(nnz, n, check, *(a.ctypes.data for a in (*rows, vals, *halves[0], *halves[1], out))):
        return None
    views = {}
    for name, half, counts in zip(("strict", "diagonal"), halves, out.reshape(2, -1).tolist()):
        np.maximum.accumulate(half[0], out=half[0])
        if ndim == 2:
            for array in half[1:]:
                array.resize(counts[0], refcheck=False)
        else:  # largest first, each room freed before the next copy
            heads, leaves = counts
            for at, size in ((4, leaves), (3, leaves), (2, heads + 1), (1, heads)):
                half[at] = half[at][:size].copy()
        pos, idx = dict(zip(sparse, half[:-1:2])), dict(zip(sparse, half[1:-1:2]))
        views[name] = FiberTensor.from_arrays(coo.shape, levels, pos, idx, half[-1])
    return views
