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

from typing import Dict, Sequence, Tuple

import numpy as np

from repro.tensor.coo import COO

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
    pos, idx : dict mapping level -> int64 array
        Structure arrays for each sparse level.
    vals : float array (the COO payload's dtype: float64 or float32)
        Leaf values in storage order.
    presorted : bool
        Whether the COO arrived in storage order (the build paid no sort).
    """

    def __init__(self, coo: COO, levels: Sequence[str]):
        levels = tuple(levels)
        if len(levels) != coo.ndim:
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
        self.shape = coo.shape
        self.pos: Dict[int, np.ndarray] = {}
        self.idx: Dict[int, np.ndarray] = {}
        ordered = coo.sorted_lex()
        self.presorted = ordered is coo
        self._build(ordered)

    # ------------------------------------------------------------------
    def _build(self, coo: COO) -> None:
        ndim = coo.ndim
        dense_prefix = 0
        while dense_prefix < ndim and self.levels[dense_prefix] == DENSE:
            dense_prefix += 1

        coords = coo.coords
        self.vals = coo.vals.copy()
        nnz = coo.nnz

        # parent slot of each entry at the first sparse level: the flattened
        # dense-prefix coordinate.
        n_slots = 1
        for mode in range(dense_prefix):
            n_slots *= coo.shape[mode]
        slots = np.zeros(nnz, dtype=np.int64)
        for mode in range(dense_prefix):
            slots = slots * coo.shape[mode] + coords[mode]

        parent = slots
        n_parents = n_slots
        for level in range(dense_prefix, ndim):
            level_coords = coords[level]
            if level == ndim - 1:
                # leaf level: idx holds every entry, pos segments by parent.
                self.pos[level] = _segment_pos(parent, n_parents, nnz)
                self.idx[level] = level_coords.copy()
            else:
                # interior sparse level: one idx entry per distinct
                # (parent, coordinate) pair.
                if nnz:
                    head = np.concatenate(
                        (
                            [True],
                            (parent[1:] != parent[:-1])
                            | (level_coords[1:] != level_coords[:-1]),
                        )
                    )
                else:
                    head = np.zeros(0, dtype=bool)
                fiber_ids = np.cumsum(head) - 1 if nnz else np.zeros(0, dtype=np.int64)
                heads = np.nonzero(head)[0]
                self.pos[level] = _segment_pos(
                    parent[heads] if nnz else np.zeros(0, dtype=np.int64),
                    n_parents,
                    len(heads),
                )
                self.idx[level] = level_coords[heads] if nnz else np.zeros(0, dtype=np.int64)
                parent = fiber_ids
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


def _segment_pos(parents: np.ndarray, n_parents: int, n_children: int) -> np.ndarray:
    """Build a ``pos`` array: ``pos[p]..pos[p+1]`` spans the children of
    parent position ``p`` (parents must be sorted)."""
    counts = np.bincount(parents, minlength=n_parents) if n_children else np.zeros(
        n_parents, dtype=np.int64
    )
    pos = np.zeros(n_parents + 1, dtype=np.int64)
    np.cumsum(counts, out=pos[1:])
    return pos


def _parents_from_pos(pos: np.ndarray, n_children: int) -> np.ndarray:
    """Inverse of :func:`_segment_pos`: the parent of each child position."""
    if n_children == 0:
        return np.zeros(0, dtype=np.int64)
    return np.searchsorted(pos, np.arange(n_children), side="right") - 1
