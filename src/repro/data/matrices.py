"""The Table 2 matrix collection (Vuduc et al.), synthesized offline.

The paper benchmarks SSYMV / Bellman-Ford / SYPRD / SSYRK on 30 matrices
from the SuiteSparse collection (downloaded from sparse.tamu.edu in the
artifact).  We have no network access, so each matrix is synthesized with
its published dimension and nonzero count plus a structure profile chosen
to mimic the original's provenance (circuit and chemistry matrices are
strongly banded, FEM matrices are blocked, optimization matrices are more
random).  The kernels only observe a sparsity pattern; dimension + nnz +
locality structure are what drive the iterator and bandwidth behaviour the
experiments measure.  ``scale`` shrinks dimension and nnz proportionally so
that interpreted kernels finish quickly (the paper's artifact reduces its
dataset sizes for the same reason).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Tuple

import numpy as np

from repro.tensor.coo import COO
from repro.tensor.symmetry_ops import symmetrize_matrix
from repro.tensor.tensor import Tensor

#: (name, dimension, nnz, profile) for every matrix in Table 2.
#: profiles: "banded" (circuit/chemistry), "block" (FEM), "random" (LP etc).
MATRIX_TABLE: Tuple[Tuple[str, int, int, str], ...] = (
    ("bayer02", 13935, 63679, "banded"),
    ("bayer10", 13436, 94926, "banded"),
    ("bcsstk35", 30237, 1450163, "block"),
    ("coater2", 9540, 207308, "block"),
    ("crystk02", 13965, 968583, "block"),
    ("crystk03", 24696, 1751178, "block"),
    ("ct20stif", 52329, 2698463, "block"),
    ("ex11", 16614, 1096948, "block"),
    ("finan512", 74752, 596992, "random"),
    ("gemat11", 4929, 33185, "random"),
    ("goodwin", 7320, 324784, "block"),
    ("lhr10", 10672, 232633, "banded"),
    ("lnsp3937", 3937, 25407, "banded"),
    ("memplus", 17758, 126150, "random"),
    ("nasasrb", 54870, 2677324, "block"),
    ("olafu", 16146, 1015156, "block"),
    ("onetone2", 36057, 227628, "banded"),
    ("orani678", 2529, 90185, "random"),
    ("raefsky3", 21200, 1488768, "block"),
    ("raefsky4", 19779, 1328611, "block"),
    ("rdist1", 4134, 94408, "banded"),
    ("rim", 22560, 1014951, "block"),
    ("saylr4", 3564, 22316, "banded"),
    ("sherman3", 5005, 20033, "banded"),
    ("sherman5", 3312, 20793, "banded"),
    ("shyy161", 76480, 329762, "banded"),
    ("venkat01", 62424, 1717792, "block"),
    ("vibrobox", 12328, 342828, "random"),
    ("wang3", 26064, 177168, "banded"),
    ("wang4", 26068, 177196, "banded"),
)


@dataclass(frozen=True)
class MatrixInfo:
    name: str
    dimension: int
    nnz: int
    profile: str


def table() -> Tuple[MatrixInfo, ...]:
    """Table 2 as structured records."""
    return tuple(MatrixInfo(*row) for row in MATRIX_TABLE)


def _banded_pattern(rng, n: int, nnz: int) -> Tuple[np.ndarray, np.ndarray]:
    """Entries concentrated near the diagonal (circuit/PDE stencils)."""
    bandwidth = max(2, int(nnz / max(n, 1)) * 2)
    rows = rng.integers(0, n, size=nnz)
    offsets = np.rint(rng.normal(0.0, bandwidth, size=nnz)).astype(np.int64)
    cols = np.clip(rows + offsets, 0, n - 1)
    return rows, cols


def _block_pattern(rng, n: int, nnz: int) -> Tuple[np.ndarray, np.ndarray]:
    """Small dense blocks along the diagonal plus a random overlay (FEM)."""
    block = 6
    n_blocks = max(1, n // block)
    main = int(nnz * 0.8)
    b = rng.integers(0, n_blocks, size=main)
    rows = np.minimum(b * block + rng.integers(0, block, size=main), n - 1)
    cols = np.minimum(b * block + rng.integers(0, block, size=main), n - 1)
    extra = nnz - main
    rows = np.concatenate([rows, rng.integers(0, n, size=extra)])
    cols = np.concatenate([cols, rng.integers(0, n, size=extra)])
    return rows, cols


def _random_pattern(rng, n: int, nnz: int) -> Tuple[np.ndarray, np.ndarray]:
    rows = rng.integers(0, n, size=nnz)
    cols = rng.integers(0, n, size=nnz)
    return rows, cols


_PROFILES = {
    "banded": _banded_pattern,
    "block": _block_pattern,
    "random": _random_pattern,
}


def load_matrix(
    name: str, scale: float = 1.0, seed: Optional[int] = None
) -> Tensor:
    """Synthesize the named Table 2 matrix, symmetrized with ``A + A^T``.

    ``scale`` < 1 shrinks both the dimension and the nonzero count by that
    factor, preserving the density and structure profile.
    """
    info = {m.name: m for m in table()}.get(name)
    if info is None:
        raise KeyError("unknown matrix %r" % (name,))
    n = max(8, int(info.dimension * scale))
    nnz = max(n, int(info.nnz * scale))
    rng = np.random.default_rng(
        seed if seed is not None else zlib.crc32(name.encode())
    )
    rows, cols = _PROFILES[info.profile](rng, n, nnz)
    vals = rng.random(rows.shape[0]) + 0.1
    coo = COO(np.stack([rows, cols]), vals, (n, n))
    sym = symmetrize_matrix(coo)
    return Tensor(sym, symmetric_modes=((0, 1),))


def suite(
    scale: float = 1.0, names: Optional[Tuple[str, ...]] = None
) -> Iterator[Tuple[MatrixInfo, Tensor]]:
    """Iterate (info, symmetrized matrix) over the collection."""
    for info in table():
        if names is not None and info.name not in names:
            continue
        yield info, load_matrix(info.name, scale=scale)
