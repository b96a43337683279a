"""Coordinate (COO) representation — the interchange format.

Every sparse tensor enters and leaves the system as a :class:`COO`:
an ``(ndim, nnz)`` integer coordinate array plus a value array.  The
coordinates are as narrow as the data allows (:func:`index_dtype`, the
one index-width rule every layer down to the C kernel's pointers
follows).  Formats
(:mod:`repro.tensor.fiber`) are built from its coordinate rows in storage
order; symmetry packing (:mod:`repro.tensor.symmetry_ops`) filters and
expands COO coordinates.
"""

from __future__ import annotations

import math
from typing import Iterable, Optional, Sequence, Tuple

import numpy as np

from repro.obs import metrics as obs_metrics


#: value dtypes a COO payload may carry (anything else is coerced to
#: float64, the historical behaviour).
SUPPORTED_DTYPES = (np.dtype(np.float64), np.dtype(np.float32))

_INT64_MAX = np.iinfo(np.int64).max

#: the two index widths, narrow first: every coordinate, ``pos`` and
#: ``idx`` array is one of them.
INDEX_DTYPES = (np.dtype(np.int32), np.dtype(np.int64))

#: an index array is narrow when every extent and every count it is built
#: from stays below this.  A constant, not a knob: tests lower it so small
#: inputs take the wide path.
INDEX_LIMIT = 2**31


def index_dtype(shape: Sequence[int], nnz: int = 0) -> np.dtype:
    """The index width of a tensor of *shape* holding *nnz* entries:
    int32 when every extent and *nnz* fit below :data:`INDEX_LIMIT`,
    otherwise int64 (scipy.sparse's ``get_index_dtype`` rule).  Values
    computed *from* indices (a linearised key, a flattened slot) are
    widened by asking for the width of their own bound."""
    return INDEX_DTYPES[int(max(nnz, *shape, 0) >= INDEX_LIMIT)]


def _coerce_vals(vals: np.ndarray, dtype=None) -> np.ndarray:
    """Values in a supported float dtype: an explicit ``dtype`` wins,
    float32/float64 inputs are preserved, everything else (ints, bools,
    float16...) is promoted to float64."""
    vals = np.asarray(vals)
    if dtype is not None:
        target = np.dtype(dtype)
        if target not in SUPPORTED_DTYPES:
            raise ValueError(
                "unsupported value dtype %s (supported: float64, float32)"
                % target
            )
        return vals.astype(target, copy=False)
    if vals.dtype in SUPPORTED_DTYPES:
        return vals
    return vals.astype(np.float64)


class COO:
    """An n-dimensional sparse tensor in coordinate form.

    Duplicate coordinates are combined by addition at construction.  The
    value dtype (float64 by default, float32 preserved end to end) follows
    the ``vals`` array unless ``dtype`` forces one.
    """

    def __init__(
        self,
        coords: np.ndarray,
        vals: np.ndarray,
        shape: Sequence[int],
        *,
        sum_duplicates: bool = True,
        dtype=None,
    ):
        coords = np.asarray(coords)
        if coords.dtype not in INDEX_DTYPES:
            coords = coords.astype(np.int64)
        if coords.ndim == 1:
            coords = coords.reshape(1, -1)
        vals = _coerce_vals(vals, dtype)
        if coords.shape[0] != len(shape):
            raise ValueError(
                "coords has %d modes but shape has %d" % (coords.shape[0], len(shape))
            )
        if coords.shape[1] != vals.shape[0]:
            raise ValueError("coords and vals disagree on nnz")
        if coords.size and (
            coords.min(initial=0) < 0
            or (coords.max(axis=1, initial=0) >= np.asarray(shape)).any()
        ):
            raise ValueError("coordinates out of bounds for shape %s" % (shape,))
        self.shape = tuple(int(n) for n in shape)
        # narrowed only now: an out-of-bounds coordinate is never wrapped
        coords = coords.astype(index_dtype(self.shape, coords.shape[1]), copy=False)
        if sum_duplicates and coords.shape[1]:
            coords, vals = _sum_duplicates(coords, vals, self.shape)
        self.coords = coords
        self.vals = vals
        # never set on a user-built COO (its arrays may be mutated in
        # place): sortedness is re-checked, O(nnz), by every sorted_lex
        self._sorted = False

    @classmethod
    def _derived(cls, coords, vals, shape, sorted: bool = False) -> "COO":
        """Trusted constructor for a COO derived from a validated one.

        A subset or a mode permutation of in-bounds coordinates cannot go
        out of bounds, so nothing is coerced or re-validated.  *sorted*
        records that the entries are known to be in lexicographic order.
        """
        out = cls.__new__(cls)
        out.coords, out.vals, out.shape, out._sorted = coords, vals, shape, sorted
        return out

    # ------------------------------------------------------------------
    @property
    def ndim(self) -> int:
        return len(self.shape)

    @property
    def nnz(self) -> int:
        return int(self.vals.shape[0])

    @property
    def dtype(self) -> np.dtype:
        """The value dtype (float64 or float32)."""
        return self.vals.dtype

    @staticmethod
    def empty(shape: Sequence[int], dtype=np.float64) -> "COO":
        return COO(
            np.zeros((len(shape), 0), dtype=np.int64),
            np.zeros(0, dtype=dtype),
            shape,
        )

    @staticmethod
    def from_dense(arr: np.ndarray, fill: float = 0.0) -> "COO":
        arr = _coerce_vals(arr)
        # compare against the fill *in the array's own dtype*: a float64
        # fill literal must not promote a float32 comparison (and zeros
        # that only exist after rounding to float32 must be dropped)
        mask = arr != arr.dtype.type(fill)
        coords = np.array(np.nonzero(mask), dtype=index_dtype(arr.shape, arr.size))
        return COO(coords, arr[mask], arr.shape, sum_duplicates=False)

    def to_dense(self, fill: float = 0.0) -> np.ndarray:
        # the fill adopts the payload dtype — a float32 tensor densifies
        # to a float32 array, not a silently-promoted float64 one
        out = np.full(self.shape, fill, dtype=self.vals.dtype)
        if self.nnz:
            if self.ndim == 0:
                out[()] = self.vals[0]
            else:
                out[tuple(self.coords)] = self.vals
        return out

    def astype(self, dtype) -> "COO":
        """This tensor with values cast to *dtype* (self when already there)."""
        if np.dtype(dtype) == self.vals.dtype:
            return self
        return COO._derived(
            self.coords, _coerce_vals(self.vals.astype(dtype)), self.shape, self._sorted
        )

    # ------------------------------------------------------------------
    def permute(self, order: Sequence[int]) -> "COO":
        """Reorder modes (a transpose): mode ``t`` of the result is mode
        ``order[t]`` of self."""
        order = tuple(order)
        if sorted(order) != list(range(self.ndim)):
            raise ValueError("order %s is not a permutation" % (order,))
        identity = order == tuple(range(self.ndim))
        return COO._derived(
            self.coords if identity else self.coords[list(order)],
            self.vals,
            tuple(self.shape[m] for m in order),
            identity and self._sorted,
        )

    def filter(self, mask: np.ndarray) -> "COO":
        """The entries selected by the boolean *mask*, in their original
        order (one index pass, then contiguous gathers: several times
        faster than indexing each array by the mask)."""
        keep = np.flatnonzero(mask)
        return COO._derived(
            self.coords.take(keep, axis=1), self.vals.take(keep), self.shape, self._sorted
        )

    def sorted_lex(self) -> "COO":
        """Sort entries lexicographically by coordinate, mode 0 outermost
        (self when already in order)."""
        order = None if self._sorted else _lex_order(self.coords, self.shape)
        if order is None:
            obs_metrics.inc("tensor.sort.skipped")
            return self
        return COO._derived(
            self.coords.take(order, axis=1), self.vals.take(order), self.shape, sorted=True
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, COO):
            return NotImplemented
        a, b = self.sorted_lex(), other.sorted_lex()
        return (
            a.shape == b.shape
            and np.array_equal(a.coords, b.coords)
            and np.array_equal(a.vals, b.vals)
        )

    def __repr__(self) -> str:
        return "COO(shape=%s, nnz=%d)" % (self.shape, self.nnz)


def _lex_order(coords: Sequence[np.ndarray], shape: Sequence[int]) -> Optional[np.ndarray]:
    """The stable permutation that sorts the columns of *coords* (an
    ``(ndim, nnz)`` array or one row per mode) lexicographically, mode 0
    outermost, or None when they already are.

    Coordinates are linearised by hand to one key (``c0*n1 + c1 ...``:
    they are in bounds already, so nothing is re-checked) as wide as the
    shape's product needs — narrow coordinates are widened first, never
    multiplied in their own width — checked for order in O(nnz) and
    otherwise sorted once;
    both this and ``np.lexsort`` are stable over the same order, so the
    permutation equals ``np.lexsort(coords[::-1])``.  A shape whose
    product overflows int64 cannot be linearised and takes the
    ``np.lexsort`` route.
    """
    if len(coords) and len(coords[0]) > 1:
        slots = math.prod(shape)
        if slots > _INT64_MAX:
            obs_metrics.inc("tensor.sort.lexsort_fallback")
            return np.lexsort(coords[::-1])
        key = coords[0].astype(index_dtype((slots,)), copy=False)
        for row, extent in zip(coords[1:], shape[1:]):
            key = key * extent + row
        if not (key[1:] >= key[:-1]).all():
            obs_metrics.inc("tensor.sort.linear")
            return np.argsort(key, kind="stable")
    return None


def _sum_duplicates(
    coords: np.ndarray, vals: np.ndarray, shape: Sequence[int]
) -> Tuple[np.ndarray, np.ndarray]:
    if coords.shape[0] == 0:
        # 0-dimensional tensor: every entry shares the empty coordinate.
        return coords[:, :1], np.array([vals.sum()])
    order = _lex_order(coords, shape)
    if order is not None:
        coords = coords.take(order, axis=1)
        vals = vals.take(order)
    if coords.shape[1] == 0:
        return coords, vals
    diff = np.any(coords[:, 1:] != coords[:, :-1], axis=0)
    boundaries = np.concatenate(([True], diff))
    group = np.cumsum(boundaries) - 1
    summed = np.zeros(group[-1] + 1, dtype=vals.dtype)
    np.add.at(summed, group, vals)
    return coords[:, boundaries], summed
