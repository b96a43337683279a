"""Fibertree (level-based) sparse tensor formats.

A :class:`FiberTensor` realizes a COO tensor as a hierarchy of levels, one
per mode, each either

* ``"dense"`` — the level owns every coordinate ``0..n-1``; positions are
  computed, nothing is stored; or
* ``"sparse"`` — the level stores a ``pos`` array (one slice per parent
  position) and an ``idx`` array of coordinates, as in CSR/CSF.

Dense levels must form a (possibly empty) prefix — exactly the shapes the
paper's formats use: CSR/CSC are ``(dense, sparse)``, the 3-D CSF of
Section 2.2 is ``(dense, sparse, sparse)``, and an all-``sparse`` tuple
gives the COO-like fully compressed tree.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from repro.obs import metrics as obs_metrics
from repro.tensor.coo import COO, _lex_order, index_dtype

DENSE = "dense"
SPARSE = "sparse"


class FiberTensor:
    """A concrete fibertree realization of a sparse tensor.

    Attributes
    ----------
    shape : tuple of int
        Per-level dimension sizes, in storage order.
    levels : tuple of str
        ``"dense"`` / ``"sparse"`` per level (dense prefix only).
    pos, idx : dict mapping level -> index array
        Structure arrays for each sparse level, all in the width
        :func:`~repro.tensor.coo.index_dtype` gives the tree's shape and
        nnz.
    vals : float array (the COO payload's dtype: float64 or float32)
        Leaf values in storage order.
    presorted : bool
        Whether the COO arrived in storage order (the build paid no sort).
    """

    def __init__(self, coo: COO, levels: Sequence[str]):
        self._build(tuple(coo.coords), coo.vals, coo.shape, levels, coo._sorted, owned=False)

    @classmethod
    def from_rows(
        cls,
        rows: Sequence[np.ndarray],
        vals: np.ndarray,
        shape: Sequence[int],
        levels: Sequence[str],
        *,
        known_sorted: bool,
        owned: bool,
    ) -> "FiberTensor":
        """Build from one in-bounds coordinate row per storage level.

        *known_sorted* vouches that the rows are in storage order (the
        check is skipped); *owned* hands over arrays nobody else holds —
        a gather's output — which the tree then keeps without copying.
        """
        out = cls.__new__(cls)
        out._build(rows, vals, shape, levels, known_sorted, owned)
        return out

    @classmethod
    def from_arrays(cls, shape, levels, pos, idx, vals) -> "FiberTensor":
        """A tree built in storage order elsewhere (:mod:`repro.tensor.native`)."""
        out = cls.__new__(cls)
        out.shape, out.levels, out.pos, out.idx, out.vals = shape, levels, pos, idx, vals
        out.presorted = True
        obs_metrics.inc("tensor.sort.skipped")
        return out

    # ------------------------------------------------------------------
    def _build(self, rows, vals, shape, levels, known_sorted: bool, owned: bool) -> None:
        levels = tuple(levels)
        ndim = len(shape)
        if len(levels) != ndim:
            raise ValueError("need one level kind per mode")
        seen_sparse = False
        for kind in levels:
            if kind not in (DENSE, SPARSE):
                raise ValueError("unknown level kind %r" % (kind,))
            if kind == DENSE and seen_sparse:
                raise ValueError("dense levels must form a prefix")
            if kind == SPARSE:
                seen_sparse = True
        self.levels = levels
        self.shape = tuple(shape)
        self.pos: Dict[int, np.ndarray] = {}
        self.idx: Dict[int, np.ndarray] = {}

        order = None if known_sorted else _lex_order(rows, shape)
        self.presorted = order is None
        if order is None:
            obs_metrics.inc("tensor.sort.skipped")
        else:
            rows = [row.take(order) for row in rows]
            vals = vals.take(order)
            owned = True
        # the tree keeps only arrays nobody else holds: a caller's rows
        # (its COO may be mutated later) are copied, gathered ones are not
        self.vals = vals if owned else vals.copy()
        nnz = len(vals)
        width = index_dtype(shape, nnz)

        dense_prefix = 0
        while dense_prefix < ndim and levels[dense_prefix] == DENSE:
            dense_prefix += 1
        # parent slot of each entry at the first sparse level: the flattened
        # dense-prefix coordinate.
        n_parents = 1
        for mode in range(dense_prefix):
            n_parents *= shape[mode]
        parent = None  # one parent (the root) for an all-sparse tree
        for mode in range(dense_prefix):
            if parent is None:
                parent = rows[mode]
            else:  # widened first: the slot is bounded by n_parents
                parent = parent.astype(index_dtype((n_parents,)), copy=False)
                parent = parent * shape[mode] + rows[mode]

        for level in range(dense_prefix, ndim):
            level_coords = rows[level]
            if level == ndim - 1:
                # leaf level: idx holds every entry, pos segments by parent.
                self.pos[level] = _segment_pos(parent, n_parents, nnz, width)
                self.idx[level] = level_coords.astype(width, copy=not owned)
            else:
                # interior sparse level: one idx entry per distinct
                # (parent, coordinate) pair.
                head = np.empty(nnz, dtype=bool)
                head[:1] = True
                np.not_equal(level_coords[1:], level_coords[:-1], out=head[1:])
                if parent is not None:
                    head[1:] |= parent[1:] != parent[:-1]
                heads = np.flatnonzero(head)
                self.pos[level] = _segment_pos(
                    None if parent is None else parent[heads], n_parents, len(heads), width
                )
                self.idx[level] = level_coords[heads].astype(width, copy=False)
                parent = np.cumsum(head, dtype=width) - 1
                n_parents = len(heads)

    # ------------------------------------------------------------------
    @property
    def nnz(self) -> int:
        return int(self.vals.shape[0])

    def arrays(self) -> Dict[str, np.ndarray]:
        """Flat name -> array mapping used by generated code
        (``pos0``, ``idx0``, ``pos1``, ..., ``vals``)."""
        out: Dict[str, np.ndarray] = {}
        for level in sorted(self.pos):
            out["pos%d" % level] = self.pos[level]
            out["idx%d" % level] = self.idx[level]
        out["vals"] = self.vals
        return out

    def to_coo(self) -> COO:
        """Reconstruct the COO form (storage order)."""
        ndim = len(self.levels)
        nnz = self.nnz
        coords = np.zeros((ndim, nnz), dtype=np.int64)
        self._fill_coords(coords)
        return COO(coords, self.vals.copy(), self.shape, sum_duplicates=False)

    def _fill_coords(self, coords: np.ndarray) -> None:
        ndim = len(self.levels)
        dense_prefix = 0
        while dense_prefix < ndim and self.levels[dense_prefix] == DENSE:
            dense_prefix += 1
        nnz = self.nnz
        if nnz == 0:
            return

        # walk levels bottom-up: expand each level's idx down to leaf slots.
        # leaf entries e have level-(ndim-1) coordinate idx[ndim-1][e]; the
        # parent position of leaf entry e is found by searching pos arrays.
        coords[ndim - 1] = self.idx[ndim - 1]
        parent_of = _parents_from_pos(self.pos[ndim - 1], nnz)
        for level in range(ndim - 2, dense_prefix - 1, -1):
            coords[level] = self.idx[level][parent_of]
            parent_of = _parents_from_pos(self.pos[level], len(self.idx[level]))[
                parent_of
            ]
        # dense prefix: decode the flattened slot id.
        slot = parent_of
        for level in range(dense_prefix - 1, -1, -1):
            coords[level] = slot % self.shape[level]
            slot = slot // self.shape[level]

    def __repr__(self) -> str:
        return "FiberTensor(levels=%s, shape=%s, nnz=%d)" % (
            self.levels,
            self.shape,
            self.nnz,
        )


def _segment_pos(
    parents: Optional[np.ndarray], n_parents: int, n_children: int, width: np.dtype
) -> np.ndarray:
    """Build a ``pos`` array of index dtype *width*: ``pos[p]..pos[p+1]``
    spans the children of parent position ``p`` (parents must be sorted;
    None is the one root of an all-sparse tree).

    ``pos`` is read off the run boundaries of *parents*, never counted:
    the children of the run of parent ``p`` start at ``pos[p]``, and a
    childless parent repeats the next run's start.  When every parent has
    a child (each sparse level below the first one) the run starts are
    ``pos`` itself.
    """
    if parents is None or not n_children:
        pos = np.zeros(n_parents + 1, dtype=width)
        pos[1:] = n_children
        return pos
    last = np.flatnonzero(parents[1:] != parents[:-1])  # a run's last child
    starts = np.empty(len(last) + 2, dtype=width)
    starts[0], starts[-1] = 0, n_children
    np.add(last, 1, out=starts[1:-1], casting="unsafe")
    if len(last) + 1 == n_parents:
        return starts
    # start r is pos[p] for every p in (parent of run r-1, parent of run r]
    bounds = np.empty(len(last) + 3, dtype=np.intp)
    bounds[0], bounds[-2], bounds[-1] = -1, parents[-1], n_parents
    bounds[1:-2] = parents[last]
    return np.repeat(starts, np.diff(bounds))


def _parents_from_pos(pos: np.ndarray, n_children: int) -> np.ndarray:
    """Inverse of :func:`_segment_pos`: the parent of each child position."""
    if n_children == 0:
        return np.zeros(0, dtype=np.int64)
    return np.searchsorted(pos, np.arange(n_children), side="right") - 1
