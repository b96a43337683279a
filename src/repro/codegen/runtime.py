"""Runtime support shared by generated kernels, baselines and tests."""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

import numpy as np

from repro.frontend.einsum import REDUCE_IDENTITY

#: numpy ufunc implementing each reduction operator.
REDUCE_UFUNC = {
    "+": np.add,
    "min": np.minimum,
    "max": np.maximum,
}

#: pipeline dtype name (see :data:`repro.core.config.DTYPE_CHOICES`) ->
#: concrete numpy dtype.
_NP_DTYPES = {
    "float64": np.dtype(np.float64),
    "float32": np.dtype(np.float32),
}


def np_dtype(name: str) -> np.dtype:
    """The numpy dtype for a pipeline dtype name (``float64``/``float32``)."""
    try:
        return _NP_DTYPES[name]
    except KeyError:
        raise ValueError(
            "unknown dtype %r (choices: %s)" % (name, ", ".join(_NP_DTYPES))
        )


def make_output(
    shape: Sequence[int], reduce_op: str, dtype=np.float64
) -> np.ndarray:
    """Allocate an output tensor filled with the reduction identity
    (:data:`REDUCE_IDENTITY`; ``np.zeros`` for ``+``, whose pages the
    kernel's own clear is the first to touch)."""
    if reduce_op == "+":
        return np.zeros(tuple(shape), dtype=dtype)
    return np.full(tuple(shape), REDUCE_IDENTITY[reduce_op], dtype=dtype)


def apply_reduce(reduce_op: str, target: np.ndarray, key, value) -> None:
    """``target[key] reduce_op= value`` for scalars or slices."""
    if reduce_op == "+":
        target[key] += value
    elif reduce_op == "min":
        target[key] = np.minimum(target[key], value)
    elif reduce_op == "max":
        target[key] = np.maximum(target[key], value)
    else:
        raise ValueError("unknown reduce op %r" % (reduce_op,))


#: rows of the mirrored side :func:`replicate_output` copies per block:
#: a 64-row strip of a 1200-wide float64 matrix is 600 KiB, so the strip it
#: reads transposed stays in L2 while its rows are written.
_MIRROR_ROWS = 64


def replicate_output(
    arr: np.ndarray, mode_parts: Sequence[Sequence[int]]
) -> np.ndarray:
    """Copy the canonical triangle of *arr* to the non-canonical triangles.

    The generated kernels write the entries whose coordinates are
    non-increasing within each symmetric mode group; this post-pass (4.2.2,
    run in a separate loop nest exactly as the paper prescribes) gathers
    every entry from its canonical source.  Returns a new array.

    One 2-mode group (SSYRK's output) is mirrored in blocks of
    :data:`_MIRROR_ROWS` rows of mode ``a``: left of the diagonal block a
    row strip is copied as it is, right of it from the transposed column
    strip below, and the diagonal block is the transposed copy with its
    lower triangle written over.  Every entry is written once or, on the
    diagonal block, twice, and the strided reads of the transpose stay
    within one strip instead of sweeping the whole array per row.  Only
    copies, so the result is bit for bit the gather below.
    """
    nontrivial = [sorted(p) for p in mode_parts if len(p) >= 2]
    if not nontrivial:
        return arr
    if len(nontrivial) == 1 and len(nontrivial[0]) == 2:
        a, b = nontrivial[0]
        out = np.empty(arr.shape, dtype=arr.dtype)
        # the pair leads, every other mode trails: src[i, j] (i >= j) is
        # canonical, and dst[i, j] = src[max(i, j), min(i, j)]
        src, dst = np.moveaxis(arr, (a, b), (0, 1)), np.moveaxis(out, (a, b), (0, 1))
        n, step = src.shape[0], _MIRROR_ROWS
        tri = np.tri(step, dtype=bool).reshape((step, step) + (1,) * (arr.ndim - 2))
        for r0 in range(0, n, step):
            r1 = min(r0 + step, n)
            dst[r0:r1, :r0] = src[r0:r1, :r0]
            dst[r0:r1, r1:] = src[r1:, r0:r1].swapaxes(0, 1)
            block = dst[r0:r1, r0:r1]
            block[...] = src[r0:r1, r0:r1].swapaxes(0, 1)
            np.copyto(block, src[r0:r1, r0:r1], where=tri[: r1 - r0, : r1 - r0])
        return out
    index = list(np.ogrid[tuple(slice(n) for n in arr.shape)])
    for group in nontrivial:
        # descending == canonical; the sort broadcasts the open grids of
        # the group against each other only, never to the full shape
        grids = np.broadcast_arrays(*(index[m] for m in group))
        stacked = -np.sort(-np.stack(grids), axis=0)
        for t, m in enumerate(group):
            index[m] = stacked[t]
    return arr[tuple(index)]
