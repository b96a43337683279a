"""Runtime support shared by generated kernels, baselines and tests: the
dtype table, output allocation, reduction updates, and the gather that
finishes a symmetric output outside generated code (the oracle's)."""

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


def replicate_output(
    arr: np.ndarray, mode_parts: Sequence[Sequence[int]]
) -> np.ndarray:
    """Copy the canonical triangle of *arr* to the non-canonical triangles.

    The generated kernels write the entries whose coordinates are
    non-increasing within each symmetric mode group, and fill the rest in
    a separate loop nest, as paper §4.2.2 prescribes: the ``finish`` entry
    point of the same program (:class:`~repro.codegen.loopir.MirrorOut`).
    This gather of every entry from its canonical source is the
    independent implementation the reference oracle and
    :class:`~repro.tensor.symmetric_view.SymmetricView` use.  Returns a
    new array.
    """
    nontrivial = [sorted(p) for p in mode_parts if len(p) >= 2]
    if not nontrivial:
        return arr
    index = list(np.ogrid[tuple(slice(n) for n in arr.shape)])
    for group in nontrivial:
        # descending == canonical; the sort broadcasts the open grids of
        # the group against each other only, never to the full shape
        grids = np.broadcast_arrays(*(index[m] for m in group))
        stacked = -np.sort(-np.stack(grids), axis=0)
        for t, m in enumerate(group):
            index[m] = stacked[t]
    return arr[tuple(index)]
