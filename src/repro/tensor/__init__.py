"""Finch-style fibertree tensor substrate.

Implements the storage side of the paper's Section 2.2: tensors as
hierarchies of per-mode *levels* (``Dense`` / ``Sparse`` over an ``Element``
leaf), so that ``CSR == Dense(Sparse(Element(0)))`` and the 3-D CSF format
is ``Dense(Sparse(Sparse(Element(0))))``.  The code generator iterates these
structures concordantly through their ``pos``/``idx`` arrays.

Also provides the symmetry-aware data preparation the compiler relies on:
canonical-triangle packing, diagonal splitting, and expansion of a packed
tensor back to its full (replicated) form for the naive baselines.

Everything here is on the path from a caller's argument to a kernel's
``pos``/``idx``/``val`` arrays: :mod:`~repro.tensor.coo` (the payload),
:mod:`~repro.tensor.tensor` (payload + declared symmetry + memoized
views), :mod:`~repro.tensor.fiber` (the levels),
:mod:`~repro.tensor.symmetry_ops` (pack / split / expand) and
:mod:`~repro.tensor.symmetric_view` (an unreplicated symmetric output).
"""

from repro.tensor.coo import COO
from repro.tensor.fiber import FiberTensor
from repro.tensor.tensor import Tensor
from repro.tensor.symmetry_ops import (
    canonical_coords_mask,
    expand_symmetric,
    pack_canonical,
    split_diagonal,
    symmetrize_matrix,
)

__all__ = [
    "COO",
    "FiberTensor",
    "Tensor",
    "canonical_coords_mask",
    "expand_symmetric",
    "pack_canonical",
    "split_diagonal",
    "symmetrize_matrix",
]
