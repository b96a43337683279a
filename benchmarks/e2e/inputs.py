"""Seeded input generation and the reference check.

Inputs come from ``--seed`` alone (same seed, byte-identical arrays) and are
built with numpy only: the program under test receives finished tensors and
never sees the seed.  The reference check densifies the same arrays here
and compares against ``KernelSpec.reference`` (plain numpy), which shares
no code with the compiler.
"""

from __future__ import annotations

import hashlib
import itertools
import zlib
from typing import Dict, Mapping, Tuple

import numpy as np

#: tensor order of the symmetric operand ``A``; SSYRK's ``A`` is a plain
#: (non-symmetric) sparse matrix.
ORDER = {"ssymv": 2, "syprd": 2, "ssyrk": 2, "ttm": 3, "mttkrp3d": 3, "mttkrp4d": 4}


def _rng(seed: int, label: str) -> np.random.Generator:
    return np.random.default_rng([int(seed), zlib.crc32(label.encode("ascii"))])


def _sorted_distinct(keys: np.ndarray) -> np.ndarray:
    """Indices of the first occurrence of each distinct key, ordered by key
    (a stable sort and a mask: ``np.unique`` hashes, ten times slower here)."""
    order = np.argsort(keys, kind="stable")
    ordered = keys[order]
    return order[np.r_[True, ordered[1:] != ordered[:-1]]]


def _distinct_columns(coords: np.ndarray, shape, nnz: int, rng) -> np.ndarray:
    """At most *nnz* distinct columns, in lexicographic order (through linear
    keys: ``np.unique`` over an axis is slower still)."""
    keys = np.ravel_multi_index(tuple(coords), shape)
    keys = keys[_sorted_distinct(keys)]
    if keys.shape[0] > nnz:
        keys = np.sort(rng.choice(keys, size=nnz, replace=False))
    return np.stack(np.unravel_index(keys, shape)).astype(np.int64)


def canonical_coords(rng, n: int, order: int, nnz: int) -> np.ndarray:
    """About *nnz* distinct canonical (non-increasing) coordinates, sorted."""
    draws = rng.integers(0, n, size=(order, int(nnz * 1.3) + 16))
    return _distinct_columns(-np.sort(-draws, axis=0), (n,) * order, nnz, rng)


def expand_full(coords: np.ndarray, vals: np.ndarray, shape) -> Tuple[np.ndarray, np.ndarray]:
    """Every distinct permutation of each canonical entry (both triangles)."""
    perms = list(itertools.permutations(range(coords.shape[0])))
    keys = np.concatenate(
        [np.ravel_multi_index(tuple(coords[list(p)]), shape) for p in perms]
    )
    first = _sorted_distinct(keys)
    full = np.stack(np.unravel_index(keys[first], shape)).astype(np.int64)
    return full, np.tile(vals, len(perms))[first]


def _arrays(symmetric: bool, order: int, size: Mapping[str, int], seed: int, label: str) -> Dict[str, np.ndarray]:
    rng = _rng(seed, "%s/%d/%d/%s" % (label, symmetric, order, sorted(size.items())))
    n = size["n"]
    if symmetric:
        shape = (n,) * order
        coords = canonical_coords(rng, n, order, size["nnz"])
    else:
        shape = (n, size["cols"])
        draws = np.stack([rng.integers(0, s, size=int(size["nnz"] * 1.3) + 16) for s in shape])
        coords = _distinct_columns(draws, shape, size["nnz"], rng)
    out = {
        "coords": coords,
        "vals": rng.random(coords.shape[1]) + 0.1,
        "shape": np.asarray(shape, dtype=np.int64),
    }
    if "rank" in size:
        out["B"] = rng.random((n, size["rank"])) + 0.1
    elif symmetric:
        out["x"] = rng.random(n) + 0.1
    return out


def generate(sizes: Mapping[str, Mapping[str, int]], seed: int, label: str) -> Dict[str, Dict[str, np.ndarray]]:
    """The raw arrays of every kernel's argument set.

    ``coords``/``vals`` hold the canonical triangle of ``A`` (for SSYRK: all
    of the plain sparse ``A``); ``shape`` its shape; the dense operands ride
    under their argument names.  Kernels of equal order and size share one
    array set (SSYMV and SYPRD read the same matrix).
    """
    made: Dict[tuple, Dict[str, np.ndarray]] = {}
    out = {}
    for kernel, size in sizes.items():
        sig = (kernel != "ssyrk", ORDER[kernel], tuple(sorted(size.items())))
        if sig not in made:
            made[sig] = _arrays(sig[0], sig[1], size, seed, label)
        out[kernel] = made[sig]
    return out


def dense_operands(arrays: Mapping[str, np.ndarray]) -> Dict[str, np.ndarray]:
    return {k: v for k, v in arrays.items() if k not in ("coords", "vals", "shape")}


def full_payload(kernel: str, arrays: Mapping[str, np.ndarray]) -> Tuple[np.ndarray, np.ndarray]:
    """Coordinates and values of the *full* tensor (a non-canonical payload)."""
    if kernel == "ssyrk":
        return arrays["coords"], arrays["vals"]
    shape = tuple(int(s) for s in arrays["shape"])
    return expand_full(arrays["coords"], arrays["vals"], shape)


def dense_A(kernel: str, arrays: Mapping[str, np.ndarray]) -> np.ndarray:
    coords, vals = full_payload(kernel, arrays)
    dense = np.zeros(tuple(int(s) for s in arrays["shape"]))
    dense[tuple(coords)] = vals
    return dense


def digest(inputs: Mapping[str, Mapping[str, np.ndarray]]) -> str:
    """Content hash of a generated input set (the smoke test's byte-identity)."""
    h = hashlib.sha256()
    for kernel in sorted(inputs):
        for name in sorted(inputs[kernel]):
            arr = np.ascontiguousarray(inputs[kernel][name])
            h.update(("%s/%s:%s:%s" % (kernel, name, arr.dtype, arr.shape)).encode("ascii"))
            h.update(arr.tobytes())
    return h.hexdigest()
