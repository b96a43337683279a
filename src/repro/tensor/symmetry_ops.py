"""Symmetry-aware data preparation.

These run *outside* the timed kernels (the paper likewise excludes data
rearrangement from its timings):

* :func:`pack_canonical` — keep only the canonical triangle of a symmetric
  tensor (this is the "Optimizes Redundant Storage" column of Table 1);
* :func:`split_diagonal` — partition canonical coordinates into the strict
  triangle and the generalized diagonals for diagonal splitting (4.2.9);
* :func:`expand_symmetric` — replicate a canonical tensor back to its full
  form (the input the *naive* baselines consume);
* :func:`symmetrize_matrix` — ``A + A^T``, how the evaluation symmetrizes
  the asymmetric matrices of the Vuduc suite.
"""

from __future__ import annotations

from itertools import combinations, permutations, product
from typing import Iterable, List, Sequence, Tuple

import numpy as np

from repro.tensor.coo import COO


def canonical_coords_mask(
    coo: COO, parts: Sequence[Sequence[int]], *, strict: bool = False
) -> np.ndarray:
    """Mask of entries whose coordinates are canonical.

    Within each symmetric group of modes (each part of size >= 2), the
    coordinates must be non-increasing in mode order — matching the
    generated kernels, whose outer loops carry the larger indices.  With
    ``strict=True`` they must be strictly decreasing (no diagonal).
    """
    compare = np.greater if strict else np.greater_equal
    return _pairs_mask(coo.coords, _symmetric_pairs(parts), compare)


def _symmetric_pairs(parts: Sequence[Sequence[int]]) -> List[Tuple[int, int]]:
    """The adjacent ``(a, b)`` mode pairs of every symmetric group, in
    mode order: a coordinate is canonical when each pair compares."""
    pairs: List[Tuple[int, int]] = []
    for part in parts:
        modes = sorted(part)
        pairs.extend(zip(modes, modes[1:]))
    return pairs


def _pairs_mask(coords: np.ndarray, pairs, compare) -> np.ndarray:
    """``compare(coords[a], coords[b])`` ANDed over *pairs*: one comparison
    per pair, folded in place into the first one's result (all ones when
    there is no pair)."""
    if not pairs:
        return np.ones(coords.shape[1], dtype=bool)
    (a, b), rest = pairs[0], pairs[1:]
    mask = compare(coords[a], coords[b])
    scratch = np.empty_like(mask) if rest else None
    for a, b in rest:
        mask &= compare(coords[a], coords[b], out=scratch)
    return mask


def pack_canonical(coo: COO, parts: Sequence[Sequence[int]]) -> COO:
    """Keep only the canonical triangle of a symmetric tensor."""
    return coo.filter(canonical_coords_mask(coo, parts))


def split_masks(
    coords: np.ndarray, parts: Sequence[Sequence[int]], *, check: bool = False
) -> Tuple[np.ndarray, np.ndarray]:
    """Masks of the (strict triangle, diagonals) halves of *coords*.

    A coordinate is diagonal when any symmetric group has two equal
    coordinates (Definition 2.4).  Each half costs one comparison per
    symmetric pair, folded in place: for one pair (every matrix kernel)
    the halves are ``a > b`` and ``a == b``; for more, the diagonal is the
    canonical mask (every ``a >= b``) XOR the strict one, which implies
    it.  Non-canonical coordinates land in neither half — a full payload
    is packed and split by the same masks — unless ``check=True``
    declares the input canonical, which makes the first one a
    ``ValueError``.
    """
    pairs = _symmetric_pairs(parts)
    strict = _pairs_mask(coords, pairs, np.greater)
    if len(pairs) == 1:
        (a, b), = pairs
        diagonal = np.equal(coords[a], coords[b])
        canonical = strict | diagonal if check else None
    else:
        canonical, diagonal = _pairs_mask(coords, pairs, np.greater_equal), None
    if check and not canonical.all():
        first = int(np.argmin(canonical))
        raise ValueError(
            "payload declared canonical but coordinate %s (entry %d) is not "
            "non-increasing within symmetric modes %s"
            % (tuple(int(c) for c in coords[:, first]), first, tuple(map(tuple, parts)))
        )
    if diagonal is None:
        diagonal = np.bitwise_xor(canonical, strict, out=canonical)
    return strict, diagonal


def split_diagonal(
    coo: COO, parts: Sequence[Sequence[int]], *, check: bool = False
) -> Tuple[COO, COO]:
    """Split canonical coordinates into (strict triangle, diagonals) — the
    two halves of :func:`split_masks`."""
    strict, diagonal = split_masks(coo.coords, parts, check=check)
    return coo.filter(strict), coo.filter(diagonal)


def expand_symmetric(coo: COO, parts: Sequence[Sequence[int]]) -> COO:
    """Replicate a canonical tensor to its full symmetric form.

    Every entry is emitted once per *distinct* permutation of its
    coordinates within each symmetric mode group (diagonal entries are not
    duplicated).  The result is what a non-symmetry-aware kernel iterates.

    A permutation that reorders two equal coordinates of an entry repeats
    a copy an earlier permutation (in ``itertools.permutations`` order)
    already made, so it skips that entry: distinct input coordinates
    expand to distinct ones and the final sort meets no tie.  Whatever is
    skipped is a later copy of a (coordinate, value) pair that is kept,
    so the first occurrence of every coordinate is the one it always was.
    """
    nontrivial = [sorted(p) for p in parts if len(p) >= 2]
    if not nontrivial or coo.nnz == 0:
        return coo
    coords_list = [coo.coords]
    vals_list = [coo.vals]
    for order, inversions in _group_permutations(coo.ndim, nontrivial):
        keep = np.flatnonzero(_pairs_mask(coo.coords, inversions, np.not_equal))
        coords_list.append(coo.coords.take(keep, axis=1)[order])
        vals_list.append(coo.vals.take(keep))
    coords = np.concatenate(coords_list, axis=1)
    vals = np.concatenate(vals_list)
    return _drop_duplicates(COO._derived(coords, vals, coo.shape))


def _group_permutations(ndim: int, groups):
    """Every non-identity permutation of modes within the symmetric
    *groups*, in ``itertools`` order, as ``(order, inversions)``: mode
    ``t`` of a replica is mode ``order[t]`` of its source, and the
    inversions are the mode pairs ``a < b`` whose order it reverses."""
    for choice in product(*(permutations(g) for g in groups)):
        order, dst = list(range(ndim)), {}
        for group, perm in zip(groups, choice):
            for src, to in zip(group, perm):
                order[to], dst[src] = src, to
        inversions = [
            (a, b) for g in groups for a, b in combinations(g, 2) if dst[a] > dst[b]
        ]
        if inversions:
            yield order, inversions


def _drop_duplicates(coo: COO) -> COO:
    """Keep the first occurrence of each coordinate (values are equal by
    symmetry, so *any* occurrence works)."""
    if coo.nnz == 0:
        return coo
    ordered = coo.sorted_lex()
    coords = ordered.coords
    keep = np.concatenate(
        ([True], np.any(coords[:, 1:] != coords[:, :-1], axis=0))
    )
    return ordered.filter(keep)


def symmetrize_matrix(coo: COO) -> COO:
    """``(A + A^T)`` for a square matrix COO — the evaluation's recipe for
    symmetrizing the asymmetric matrices of the Vuduc suite."""
    if coo.ndim != 2 or coo.shape[0] != coo.shape[1]:
        raise ValueError("symmetrize_matrix needs a square matrix")
    coords = np.concatenate([coo.coords, coo.coords[::-1]], axis=1)
    vals = np.concatenate([coo.vals, coo.vals])
    return COO(coords, vals, coo.shape)
