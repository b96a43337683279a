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
    (:data:`REDUCE_IDENTITY`, which an
    :class:`~repro.codegen.executor.ExecutionPlan` resets its own buffer
    to in place at the top of every call)."""
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


def replicate_output(
    arr: np.ndarray, mode_parts: Sequence[Sequence[int]]
) -> np.ndarray:
    """Copy the canonical triangle of *arr* to the non-canonical triangles.

    The generated kernels write the entries whose coordinates are
    non-increasing within each symmetric mode group; this post-pass (4.2.2,
    run in a separate loop nest exactly as the paper prescribes) gathers
    every entry from its canonical source.  Returns a new array.
    """
    nontrivial = [sorted(p) for p in mode_parts if len(p) >= 2]
    if not nontrivial:
        return arr
    if len(nontrivial) == 1 and len(nontrivial[0]) == 2:
        a, b = nontrivial[0]
        # the mirrored copy, then the canonical triangle (index[a] >=
        # index[b], np.tri's small-int mask) written over it in place: one
        # C-contiguous result, no select temporary.  Always a copy: the
        # swap of a transposed input is a C-contiguous view of it.
        out = np.array(np.swapaxes(arr, a, b), order="C")
        shape = [1] * arr.ndim
        shape[a], shape[b] = arr.shape[a], arr.shape[b]
        np.copyto(out, arr, where=np.tri(shape[a], shape[b], dtype=bool).reshape(shape))
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
