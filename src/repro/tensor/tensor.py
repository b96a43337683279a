"""The user-facing logical :class:`Tensor`.

A ``Tensor`` owns a COO payload plus an optional symmetry declaration, and
manufactures (and caches) the concrete views the compiled kernels consume:
fibertree realizations of the full tensor, its canonical triangle or a
diagonal split, in any storage order — each gathered straight from the
payload — and the full expansion the naive baselines read.  A sorted
float64 matrix or 3-mode payload of ``native.MIN_ENTRIES`` entries or more,
one symmetric group over every mode, is split in the identity storage order
in one C pass (:mod:`repro.tensor.native`) into the numpy route's bytes.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.tensor import native
from repro.tensor.coo import COO
from repro.tensor.fiber import DENSE, SPARSE, FiberTensor
from repro.tensor.symmetry_ops import (
    canonical_coords_mask,
    expand_symmetric,
    split_masks,
)


class Tensor:
    """A logical sparse tensor, optionally declared symmetric.

    ``symmetric_modes`` is a tuple of tuples of mode numbers (the partition
    of modes carrying symmetry).  The payload may be stored canonically
    (only the canonical triangle) — constructors record which.
    """

    def __init__(
        self,
        coo: COO,
        symmetric_modes: Tuple[Tuple[int, ...], ...] = (),
        *,
        canonical: bool = False,
    ):
        self.coo = coo
        self.symmetric_modes = tuple(tuple(p) for p in symmetric_modes)
        _check_symmetric_modes(self.symmetric_modes, coo.shape)
        self.canonical = canonical
        self._view_cache: Dict[Tuple, FiberTensor] = {}
        self._full: Optional[COO] = None

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @staticmethod
    def from_dense(
        arr: np.ndarray, symmetric_modes: Tuple[Tuple[int, ...], ...] = ()
    ) -> "Tensor":
        return Tensor(COO.from_dense(arr), symmetric_modes)

    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.coo.shape

    @property
    def ndim(self) -> int:
        return self.coo.ndim

    @property
    def nnz(self) -> int:
        return self.coo.nnz

    @property
    def dtype(self) -> np.dtype:
        """The payload value dtype (float64 or float32)."""
        return self.coo.dtype

    @property
    def nontrivial_parts(self) -> Tuple[Tuple[int, ...], ...]:
        return tuple(p for p in self.symmetric_modes if len(p) >= 2)

    def astype(self, dtype) -> "Tensor":
        """This tensor with values cast to *dtype*.

        Returns ``self`` (with its warm view caches) when already there;
        otherwise a fresh :class:`Tensor` carrying the same symmetry
        declaration and canonical flag.
        """
        if np.dtype(dtype) == self.dtype:
            return self
        return Tensor(
            self.coo.astype(dtype),
            self.symmetric_modes,
            canonical=self.canonical,
        )

    def to_dense(self) -> np.ndarray:
        """Dense array of the *full* tensor (expanding a canonical payload)."""
        return self._full_coo().to_dense()

    def _full_coo(self) -> COO:
        """The full tensor (a canonical payload expanded, once)."""
        if self._full is None:
            if self.canonical and self.nontrivial_parts:
                self._full = expand_symmetric(self.coo, self.nontrivial_parts)
            else:
                self._full = self.coo
        return self._full

    # ------------------------------------------------------------------
    # fibertree views
    # ------------------------------------------------------------------
    def view(
        self,
        mode_order: Sequence[int],
        levels: Sequence[str],
        tensor_filter: str = "full",
    ) -> FiberTensor:
        """A (cached) fibertree realization of one kernel-plan filter —
        ``full``, ``all`` (the canonical triangle), ``strict`` or
        ``diagonal`` — with its modes in storage order *mode_order*."""
        key = (tuple(mode_order), tuple(levels), tensor_filter)
        if key not in self._view_cache:
            self._build_views(*key)
        return self._view_cache[key]

    def _build_views(self, order: Tuple[int, ...], levels: Tuple[str, ...], tensor_filter: str) -> None:
        """One mask walk, then one gather per half straight into storage
        order; ``strict`` and ``diagonal`` are built together, so nothing
        but finished views is cached."""
        if sorted(order) != list(range(self.ndim)):
            raise ValueError("order %s is not a permutation" % (order,))
        source, parts = self.coo, self.nontrivial_parts
        if tensor_filter == "full":
            source, masks = self._full_coo(), {"full": None}
        elif tensor_filter == "all":
            packed = self.canonical or not parts
            masks = {"all": None if packed else canonical_coords_mask(source, parts)}
        elif tensor_filter in ("strict", "diagonal"):
            if views := native.split(source, parts, order, levels, self.canonical):
                self._view_cache.update({(order, levels, name): view for name, view in views.items()})
                return
            strict, diagonal = split_masks(source.coords, parts, check=self.canonical)
            masks = {"strict": strict, "diagonal": diagonal}
        else:
            raise ValueError("unknown tensor filter %r" % (tensor_filter,))
        coords, vals = source.coords, source.vals
        shape = tuple(source.shape[m] for m in order)
        known_sorted = source._sorted and order == tuple(range(self.ndim))
        for name, mask in masks.items():
            if mask is None:
                rows, picked = [coords[m] for m in order], vals
            else:
                keep = np.flatnonzero(mask)
                rows, picked = [coords[m].take(keep) for m in order], vals.take(keep)
            self._view_cache[order, levels, name] = FiberTensor.from_rows(
                rows, picked, shape, levels, known_sorted=known_sorted, owned=mask is not None
            )

    def __repr__(self) -> str:
        sym = " symmetric=%s" % (self.symmetric_modes,) if self.symmetric_modes else ""
        packed = " canonical" if self.canonical else ""
        return "Tensor(shape=%s, nnz=%d%s%s)" % (self.shape, self.nnz, sym, packed)


def _check_symmetric_modes(parts, shape) -> None:
    """A symmetry declaration must name each mode of the tensor at most
    once and only group modes of equal extent."""
    seen = set()
    for part in parts:
        for mode in part:
            if not isinstance(mode, (int, np.integer)) or not 0 <= mode < len(shape):
                raise ValueError(
                    "symmetric mode %r out of range for a %d-mode tensor"
                    % (mode, len(shape))
                )
            if mode in seen:
                raise ValueError("mode %d appears twice in symmetric_modes" % mode)
            seen.add(mode)
        if len({shape[mode] for mode in part}) > 1:
            raise ValueError(
                "symmetric modes %s have unequal extents %s"
                % (part, tuple(shape[mode] for mode in part))
            )


def default_levels(ndim: int) -> Tuple[str, ...]:
    """The paper's CSF-style default: dense outermost level, sparse below
    (CSC/CSR for matrices, Dense(Sparse(Sparse(...))) in higher dims)."""
    if ndim == 0:
        return ()
    return (DENSE,) + (SPARSE,) * (ndim - 1)
