"""Random symmetric sparse tensors (Section 5.2's TTM/MTTKRP inputs).

The paper generates "uniformly distributed symmetric random sparse tensors
of varying sizes and sparsities via an Erdős–Rényi distribution".  We sample
canonical coordinates directly (every multiset of indices is a Bernoulli
trial), which yields exactly that distribution while storing only the
canonical triangle — the compiler's packed input — and lets the naive
baselines expand to the full tensor on demand.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.tensor.coo import COO, _lex_order
from repro.tensor.tensor import Tensor


def erdos_renyi_symmetric(
    n: int,
    order: int,
    density: float,
    seed: Optional[int] = None,
    dtype=np.float64,
) -> Tensor:
    """A fully symmetric ``order``-way tensor of side ``n``.

    ``density`` is the probability that any given canonical coordinate
    (multiset of indices) is nonzero.  The payload is stored canonically
    (coordinates non-increasing), matching what the symmetric kernels
    iterate; ``Tensor`` expands it for the naive kernels.  ``dtype``
    selects the value precision (same seed, same pattern: the float32
    payload is the float64 one rounded).
    """
    if not 0.0 <= density <= 1.0:
        raise ValueError("density must be in [0, 1]")
    rng = np.random.default_rng(seed)
    # sample canonical (non-increasing) coordinates by rejection-free
    # enumeration in blocks: draw random coordinates, sort each, dedup.
    target = density * _n_canonical(n, order)
    draws = max(16, int(target * 3) + 8)
    coords = rng.integers(0, n, size=(order, draws))
    coords = -np.sort(-coords, axis=0)  # non-increasing per column
    # dedup columns
    order_ix = _lex_order(coords, (n,) * order)
    if order_ix is not None:
        coords = coords[:, order_ix]
    keep = np.concatenate(
        ([True], np.any(coords[:, 1:] != coords[:, :-1], axis=0))
    )
    coords = coords[:, keep]
    # thin to the target count
    n_keep = min(coords.shape[1], max(1, int(round(target))))
    chosen = rng.choice(coords.shape[1], size=n_keep, replace=False)
    coords = coords[:, np.sort(chosen)]
    vals = (rng.random(coords.shape[1]) + 0.1).astype(dtype, copy=False)
    coo = COO(coords, vals, (n,) * order, sum_duplicates=False)
    return Tensor(
        coo, symmetric_modes=(tuple(range(order)),), canonical=True
    )


def _n_canonical(n: int, order: int) -> float:
    """Number of canonical coordinates: C(n + order - 1, order)."""
    from math import comb

    return float(comb(n + order - 1, order))


def random_dense(
    shape: Tuple[int, ...], seed: Optional[int] = None, dtype=np.float64
) -> np.ndarray:
    """A dense factor matrix / vector with entries in [0.1, 1.1)."""
    rng = np.random.default_rng(seed)
    return (rng.random(shape) + 0.1).astype(dtype, copy=False)


def symmetric_matrix(
    n: int, density: float, seed: Optional[int] = None, dtype=np.float64
) -> Tensor:
    """A random symmetric sparse matrix (2-D convenience wrapper)."""
    return erdos_renyi_symmetric(n, 2, density, seed, dtype=dtype)
