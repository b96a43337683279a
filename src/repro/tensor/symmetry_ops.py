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

from itertools import permutations
from typing import Iterable, Sequence, Tuple

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
    mask = np.ones(coo.nnz, dtype=bool)
    for part in parts:
        modes = sorted(part)
        for a, b in zip(modes, modes[1:]):
            if strict:
                mask &= coo.coords[a] > coo.coords[b]
            else:
                mask &= coo.coords[a] >= coo.coords[b]
    return mask


def pack_canonical(coo: COO, parts: Sequence[Sequence[int]]) -> COO:
    """Keep only the canonical triangle of a symmetric tensor."""
    return coo.filter(canonical_coords_mask(coo, parts))


def split_masks(
    coords: np.ndarray, parts: Sequence[Sequence[int]], *, check: bool = False
) -> Tuple[np.ndarray, np.ndarray]:
    """Masks of the (strict triangle, diagonals) halves of *coords*.

    One walk over the symmetric pairs computes the canonical and the
    strict mask together.  A coordinate is diagonal when any symmetric
    group has two equal coordinates (Definition 2.4).  Non-canonical
    coordinates land in neither half — a full payload is packed and split
    by the same masks — unless ``check=True`` declares the input
    canonical, which makes the first one a ``ValueError``.
    """
    canonical = strict = np.ones(coords.shape[1], dtype=bool)
    for part in parts:
        modes = sorted(part)
        for a, b in zip(modes, modes[1:]):
            canonical = canonical & (coords[a] >= coords[b])
            strict = strict & (coords[a] > coords[b])
    if check and not canonical.all():
        first = int(np.argmin(canonical))
        raise ValueError(
            "payload declared canonical but coordinate %s (entry %d) is not "
            "non-increasing within symmetric modes %s"
            % (tuple(int(c) for c in coords[:, first]), first, tuple(map(tuple, parts)))
        )
    return strict, canonical & ~strict


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
    """
    nontrivial = [sorted(p) for p in parts if len(p) >= 2]
    if not nontrivial or coo.nnz == 0:
        return coo
    coords_list = [coo.coords]
    vals_list = [coo.vals]
    base = coo.coords
    replicas = _distinct_group_permutations(base, nontrivial)
    for perm_coords in replicas:
        coords_list.append(perm_coords[0])
        vals_list.append(coo.vals[perm_coords[1]])
    coords = np.concatenate(coords_list, axis=1)
    vals = np.concatenate(vals_list)
    return _drop_duplicates(COO._derived(coords, vals, coo.shape))


def _distinct_group_permutations(coords: np.ndarray, groups):
    """All non-identity mode permutations within the symmetric groups,
    applied to every entry; duplicates are filtered later."""
    ndim = coords.shape[0]
    results = []
    perms_per_group = [list(permutations(g)) for g in groups]

    def rec(group_no, mapping):
        if group_no == len(groups):
            if mapping != {m: m for m in mapping}:
                order = list(range(ndim))
                for src, dst in mapping.items():
                    order[dst] = src
                permuted = coords[order]
                results.append((permuted, np.arange(coords.shape[1])))
            return
        group = groups[group_no]
        for perm in perms_per_group[group_no]:
            new_mapping = dict(mapping)
            for src, dst in zip(group, perm):
                new_mapping[src] = dst
            rec(group_no + 1, new_mapping)

    rec(0, {})
    return results


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
