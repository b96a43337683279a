"""The user-facing logical :class:`Tensor`.

A ``Tensor`` owns a COO payload plus an optional symmetry declaration, and
manufactures (and caches) the concrete views the compiled kernels consume:
permuted fibertree realizations, canonical packings, diagonal splits, and
full expansions for the naive baselines.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.tensor.coo import COO
from repro.tensor.fiber import DENSE, SPARSE, FiberTensor
from repro.tensor.symmetry_ops import (
    expand_symmetric,
    pack_canonical,
    split_diagonal,
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
        self._coo_cache: Dict[str, COO] = {}

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

    # ------------------------------------------------------------------
    # symmetry filters
    # ------------------------------------------------------------------
    def _full_coo(self) -> COO:
        if "full" not in self._coo_cache:
            if self.canonical and self.nontrivial_parts:
                self._coo_cache["full"] = expand_symmetric(
                    self.coo, self.nontrivial_parts
                )
            else:
                self._coo_cache["full"] = self.coo
        return self._coo_cache["full"]

    def _canonical_coo(self) -> COO:
        if "canonical" not in self._coo_cache:
            if self.canonical or not self.nontrivial_parts:
                self._coo_cache["canonical"] = self.coo
            else:
                self._coo_cache["canonical"] = pack_canonical(
                    self.coo, self.nontrivial_parts
                )
        return self._coo_cache["canonical"]

    def _filtered_coo(self, tensor_filter: str) -> COO:
        """COO for a kernel-plan filter: full / all(canonical) / strict /
        diagonal."""
        if tensor_filter == "full":
            return self._full_coo()
        if tensor_filter == "all":
            return self._canonical_coo()
        if tensor_filter in ("strict", "diagonal"):
            key = "strict_diag"
            if key not in self._coo_cache:
                # straight from the payload: the split's masks drop the
                # non-canonical triangle themselves, so a full payload is
                # never packed into an intermediate COO first
                self._coo_cache[key] = split_diagonal(
                    self.coo, self.nontrivial_parts, check=self.canonical
                )
            strict, diag = self._coo_cache[key]
            return strict if tensor_filter == "strict" else diag
        raise ValueError("unknown tensor filter %r" % (tensor_filter,))

    # ------------------------------------------------------------------
    # fibertree views
    # ------------------------------------------------------------------
    def view(
        self,
        mode_order: Sequence[int],
        levels: Sequence[str],
        tensor_filter: str = "full",
    ) -> FiberTensor:
        """A (cached) fibertree realization: filter the payload, permute
        modes into storage order, build the level hierarchy."""
        key = (tuple(mode_order), tuple(levels), tensor_filter)
        if key not in self._view_cache:
            coo = self._filtered_coo(tensor_filter).permute(mode_order)
            self._view_cache[key] = FiberTensor(coo, levels)
        return self._view_cache[key]

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
