"""The strict and diagonal views of a large symmetric matrix, in one pass.

Where the numpy route makes about fifteen passes over the payload, the C
routine here reads each entry once and writes the bytes of both views of
diagonal splitting (paper §4.2.9).  At the first entry of a half out of
storage order, or a non-canonical entry of a ``canonical=True`` payload,
it gives up: the numpy route sorts, or raises its ``ValueError``.  A
process builds the routine on its first large split, whatever its backend.
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
#: routine's one ``cc`` (stem ``tensor_split``, ~63 ms).  Tests lower it.
MIN_ENTRIES = 2**16

#: 0: both views written; 1: gave up (out of order or bounds, or not canonical
#: under ``check``).  Values are copied as bits; a row's ``pos`` slot is its last
#: count (the caller fills empty rows); ``rp_index`` is the C printer's type.
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
"""

_lock, _loaded = threading.Lock(), {}  # the routine per toolchain (None: no build or load)


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
                fn = lib.rp_split
                fn.restype, fn.argtypes = ctypes.c_int64, [ctypes.c_int64] * 3 + [ctypes.c_void_p] * 10
            except (ctoolchain.ToolchainError, OSError):
                fn = None
            _loaded[tc] = fn
        return _loaded.get(tc)


def split(coo, parts, order, levels, check: bool):
    """The ``strict`` and ``diagonal`` views of *coo* by name, or ``None``
    when the numpy route builds them, counted by the reason."""
    if coo.ndim != 2 or len(parts) != 1 or order != (0, 1) or levels != (DENSE, SPARSE):
        reason = "layout"
    elif coo.nnz < MIN_ENTRIES:
        reason = "small"
    elif index_dtype(coo.shape, coo.nnz) != INDEX_DTYPES[0]:
        reason = "wide"
    elif coo.coords.dtype != INDEX_DTYPES[0] or coo.vals.dtype != np.float64:
        reason = "dtype"
    else:
        fn = _routine()
        if fn and (views := _run(fn, coo, check)):
            obs_metrics.inc("tensor.split.native")
            return views
        reason = "unsorted" if fn else "no_toolchain"
    obs_metrics.inc("tensor.split.numpy." + reason)
    return None


def _run(fn, coo, check: bool):
    """One call into halves with room for every entry, shrunk in place after."""
    (n, _), nnz = coo.shape, coo.nnz
    rows, vals = np.ascontiguousarray(coo.coords), np.ascontiguousarray(coo.vals)
    halves = [(np.zeros(n + 1, rows.dtype), np.empty_like(rows[1]), np.empty_like(vals)) for _ in "sd"]
    out = np.zeros(2, np.int64)
    if fn(nnz, n, check, *(a.ctypes.data for a in (*rows, vals, *halves[0], *halves[1], out))):
        return None
    for (pos, idx, picked), count in zip(halves, out.tolist()):
        np.maximum.accumulate(pos, out=pos)
        idx.resize(count, refcheck=False)
        picked.resize(count, refcheck=False)
    views = (FiberTensor.from_arrays(coo.shape, (DENSE, SPARSE), {1: p}, {1: i}, v) for p, i, v in halves)
    return dict(zip(("strict", "diagonal"), views))
