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
first large split, whatever its backend.  With AVX-512 a routine takes
16 entries a step while none is diagonal; its scalar loop does the rest.
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
#: routines' one ``cc`` (stem ``tensor_split``, ~190 ms).  Tests lower it.
MIN_ENTRIES = 2**16

#: 0: both views written; 1: gave up (out of order or bounds, or not canonical
#: under ``check``).  Values are copied as bits; a row's ``pos`` slot is its last
#: count, then a running max fills empty rows; ``rp_index`` is the C printer's
#: type.  In three modes a new ``(i, j)`` opens a level-1 head (``idx[1]`` and its
#: leaf segment's start in ``pos[2]``); ``out`` holds each half's heads and leaves.
#: A block of 16 entries, none diagonal, is one AVX-512 step: its strict lanes are
#: compressed to the front and checked against the lane before (lane 0 against
#: the half's last key); full-width stores write ``idx``/``vals`` (a half's count
#: is at most the block's first entry, so its 16 slots lie in the ``nnz`` of room).
SOURCE = r"""
__attribute__((noinline)) static void rp_fill(rp_index *pos, int64_t n) { /* the running max */
    for (int64_t r = 1, top = 0; r <= n; r++) top = pos[r] > top ? pos[r] : top, pos[r] = (rp_index)top;
}

#if defined(__AVX512F__) && !defined(__clang__) /* gcc's builtins: clang unverified */
#define RP_AVX512 1
_Static_assert(sizeof(rp_index) == 4, "a block holds 16 indices");
typedef rp_index rp_v16 __attribute__((vector_size(64)));
typedef rp_index rp_u16 __attribute__((vector_size(64), aligned(1), may_alias));
typedef long long rp_u8 __attribute__((vector_size(64), aligned(1), may_alias));
#define RP_LANE ((rp_v16){0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
#define RP_BLOCK (!(e & 15) && e + 16 <= nnz)
#define RP_LOAD(a) (*(const rp_u16 *)((a) + e))
#define RP_ALL(x) ((rp_v16){} + (rp_index)(x))
#define RP_CMP(a, p, b, m) __builtin_ia32_cmpd512_mask(a, b, p, m) /* p: 0 ==, 1 <, 4 !=, 5 >=, 6 > */
#define RP_PACK(v, m) __builtin_ia32_compresssi512_mask(v, v, m)
#define RP_PREV(v, x) __builtin_ia32_alignd512_mask(v, RP_ALL(x), 15, v, 0xffff) /* x, v[0..14] */
/* the last lane of each run of equal v in the lanes of live (a low mask): distinct v if sorted */
#define RP_ENDS(v, live) (RP_CMP(v, 4, __builtin_ia32_alignd512_mask(v, v, 1, v, 0xffff), (live) >> 1) \
                          | ((live) ^ (live) >> 1))
#define RP_LAST(m) (e + 31 - __builtin_clz(m)) /* the entry of m's last lane */
#define RP_VALS(to, m) { const rp_u8 *from = (const rp_u8 *)(val + e);                              \
    *(rp_u8 *)(to) = __builtin_ia32_compressdi512_mask(from[0], from[0], (m) & 255);             \
    *(rp_u8 *)((to) + __builtin_popcount((m) & 255)) = __builtin_ia32_compressdi512_mask(from[1], from[1], (m) >> 8); }
#endif

int64_t rp_split(int64_t nnz, int64_t n, int64_t check, const rp_index *row, const rp_index *col,
                 const uint64_t *val, rp_index *spos, rp_index *sidx, uint64_t *sval,
                 rp_index *dpos, rp_index *didx, uint64_t *dval, int64_t *out) {
    int64_t ns = 0, nd = 0, skey = 0, dkey = 0;
    for (int64_t e = 0; e < nnz; e++) {
#ifdef RP_AVX512
        if (RP_BLOCK) { /* 16 entries, none diagonal: the strict half's checks and stores */
            rp_v16 vi = RP_LOAD(row), vj = RP_LOAD(col);
            unsigned ms = RP_CMP(vi, 6, vj, 0xffff), c = __builtin_popcount(ms), live = (1u << c) - 1;
            if (!RP_CMP(vi, 0, vj, 0xffff)) {
                rp_v16 bi = RP_PACK(vi, ms), bj = RP_PACK(vj, ms), pi = RP_PREV(bi, skey >> 32);
                if ((check && ms != 0xffff) || RP_CMP(vj, 1, RP_ALL(0), ms) || RP_CMP(vi, 5, RP_ALL(n), ms)
                    || RP_CMP(bi, 1, pi, live) | (RP_CMP(bi, 0, pi, live) & RP_CMP(bj, 1, RP_PREV(bj, skey), live)))
                    return 1;
                *(rp_u16 *)(sidx + ns) = bj;
                RP_VALS(sval + ns, ms)
                __builtin_ia32_scattersiv16si(spos + 1, RP_ENDS(bi, live), bi, RP_ALL(ns + 1) + RP_LANE, 4);
                if (c) skey = (int64_t)row[RP_LAST(ms)] << 32 | col[RP_LAST(ms)];
                ns += c, e += 15;
                continue;
            }
        }
#endif
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
    rp_fill(spos, n), rp_fill(dpos, n);
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
#ifdef RP_AVX512
        if (RP_BLOCK) { /* 16 entries, none diagonal: the strict half's checks and stores */
            rp_v16 vi = RP_LOAD(c0), vj = RP_LOAD(c1), vk = RP_LOAD(c2);
            unsigned mc = ~(RP_CMP(vi, 1, vj, 0xffff) | RP_CMP(vj, 1, vk, 0xffff)) & 0xffff;
            unsigned ms = RP_CMP(vi, 6, vj, mc) & RP_CMP(vj, 6, vk, mc), c = __builtin_popcount(ms);
            if (ms == mc) {
                rp_v16 bi = RP_PACK(vi, ms), bj = RP_PACK(vj, ms), bk = RP_PACK(vk, ms);
                rp_v16 pi = RP_PREV(bi, sij >> 32), pj = RP_PREV(bj, sij);
                unsigned live = (1u << c) - 1, same_i = RP_CMP(bi, 0, pi, live);
                unsigned same = same_i & RP_CMP(bj, 0, pj, live), heads = live & ~same;
                if ((check && mc != 0xffff) || RP_CMP(vk, 1, RP_ALL(0), mc) || RP_CMP(vi, 5, RP_ALL(n), mc)
                    || RP_CMP(bi, 1, pi, live) | (same_i & RP_CMP(bj, 1, pj, live))
                           | (same & RP_CMP(bk, 1, RP_PREV(bk, sk), live)))
                    return 1;
                *(rp_u16 *)(sidx1 + snh) = RP_PACK(bj, heads);
                *(rp_u16 *)(spos2 + snh) = RP_PACK(RP_ALL(snl) + RP_LANE, heads);
                *(rp_u16 *)(sidx2 + snl) = bk;
                RP_VALS(sval + snl, ms)
                rp_index rows[16];  /* bi's lanes, to index */
                *(rp_u16 *)rows = bi;
                for (unsigned r = RP_ENDS(bi, live); r; r &= r - 1) /* the heads up to r's lane */
                    spos1[rows[__builtin_ctz(r)] + 1] = (rp_index)(snh + __builtin_popcount(heads & (r ^ (r - 1))));
                if (c) sij = (int64_t)c0[RP_LAST(ms)] << 32 | c1[RP_LAST(ms)], sk = c2[RP_LAST(ms)];
                snh += __builtin_popcount(heads), snl += c, e += 15;
                continue;
            }
        }
#endif
        int64_t i = c0[e], j = c1[e], k = c2[e];
        if (i < j || j < k) {
            if (check) return 1;
        } else if (k < 0 || i >= n) return 1;
        else if (i > j && j > k) RP_PUT(s)
        else RP_PUT(d)
    }
    rp_fill(spos1, n), rp_fill(dpos1, n);
    spos2[snh] = (rp_index)snl, dpos2[dnh] = (rp_index)dnl;
    out[0] = snh, out[1] = snl, out[2] = dnh, out[3] = dnl;
    return 0;
}
"""

_lock, _loaded = threading.Lock(), {}  # the routines per toolchain (None: no build or load)


def source() -> str:
    """The C text of both routines, after the printer's index declaration."""
    from repro.codegen.backends import c
    return "\n".join(("#include <stdint.h>",) + c.INDEX_DECLARATION) + SOURCE


def bind(lib):
    """The routines of a loaded object *lib*, by mode count."""
    fns = {2: lib.rp_split, 3: lib.rp_split3}
    for ndim, fn in fns.items():  # rows, values, both halves' arrays, counts
        fn.restype = ctypes.c_int64
        fn.argtypes = [ctypes.c_int64] * 3 + [ctypes.c_void_p] * 5 * ndim
    return fns


def _routine():
    from repro.codegen.backends import cexec, ctoolchain

    tc = ctoolchain.probe()
    with _lock:
        if tc is not None and tc not in _loaded:
            build = lambda force: ctoolchain.compile_shared(source(), stem="tensor_split", force=force)  # noqa: E731
            try:
                try:
                    lib = cexec.dlopen(build(False))
                except OSError:  # an object that does not load is rebuilt once, as a kernel's is
                    lib = cexec.dlopen(build(True))
                fns = bind(lib)
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
    """One call into halves with room for every entry; the routine writes
    each half's ``pos`` whole.  A matrix's two arrays per half are then
    shrunk in place (copied out, they cost ~1 ms more a split); a 3-mode
    tensor's four are copied out at size, largest first (shrunk in place,
    they read 1–2 MiB more peak memory on ``kernel_steady``, under a fixed
    glibc mmap threshold too)."""
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
