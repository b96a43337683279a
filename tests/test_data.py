"""Tests for the evaluation datasets (Table 2 suite, ER symmetric tensors)."""

import os
import subprocess
import sys

import numpy as np
import pytest

from repro.data.matrices import MATRIX_TABLE, load_matrix, suite, table
from repro.data.random_tensors import (
    erdos_renyi_symmetric,
    random_dense,
    symmetric_matrix,
)


def test_table_has_all_30_matrices():
    assert len(MATRIX_TABLE) == 30
    names = {row[0] for row in MATRIX_TABLE}
    assert {"bayer02", "ct20stif", "wang4", "memplus"} <= names


def test_table_matches_paper_rows():
    info = {m.name: m for m in table()}
    assert info["bcsstk35"].dimension == 30237
    assert info["bcsstk35"].nnz == 1450163
    assert info["saylr4"].dimension == 3564
    assert info["saylr4"].nnz == 22316


def test_load_matrix_is_symmetric():
    t = load_matrix("sherman5", scale=0.2)
    A = t.to_dense()
    np.testing.assert_allclose(A, A.T)


def test_load_matrix_scale_controls_size():
    small = load_matrix("gemat11", scale=0.05)
    big = load_matrix("gemat11", scale=0.2)
    assert small.shape[0] < big.shape[0]
    assert small.nnz < big.nnz


def test_load_matrix_deterministic():
    a = load_matrix("rdist1", scale=0.1).to_dense()
    b = load_matrix("rdist1", scale=0.1).to_dense()
    np.testing.assert_array_equal(a, b)


#: prints one matrix's coordinates and values, as bytes, in a fresh process
_LOAD_SAYLR4 = (
    "from repro.data.matrices import load_matrix\n"
    "t = load_matrix('saylr4', scale=0.05)\n"
    "print(t.coo.coords.tobytes().hex(), t.coo.vals.tobytes().hex())\n"
)


def test_load_matrix_is_the_same_under_any_hash_seed():
    """Was: seeded by ``hash(name)``, which ``PYTHONHASHSEED`` randomizes per
    process, so two runs of one figure timed different matrices."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    outputs = [
        subprocess.run(
            [sys.executable, "-c", _LOAD_SAYLR4],
            env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": hash_seed},
            capture_output=True, text=True, check=True,
        ).stdout
        for hash_seed in ("1", "2")
    ]
    assert outputs[0] and outputs[0] == outputs[1]


def test_load_matrix_unknown_name():
    with pytest.raises(KeyError):
        load_matrix("does-not-exist")


def test_suite_filters_names():
    rows = list(suite(scale=0.02, names=("saylr4", "sherman5")))
    assert [info.name for info, _ in rows] == ["saylr4", "sherman5"]


@pytest.mark.parametrize("order", [2, 3, 4])
def test_erdos_renyi_symmetric_tensor(order):
    t = erdos_renyi_symmetric(6, order, 0.3, seed=7)
    assert t.canonical
    dense = t.to_dense()
    # fully symmetric: invariant under a transposition
    perm = list(range(order))
    perm[0], perm[-1] = perm[-1], perm[0]
    np.testing.assert_allclose(dense, np.transpose(dense, perm))


def test_erdos_renyi_density_monotone():
    sparse = erdos_renyi_symmetric(10, 3, 0.05, seed=1)
    dense = erdos_renyi_symmetric(10, 3, 0.5, seed=1)
    assert sparse.nnz < dense.nnz


def test_erdos_renyi_invalid_density():
    with pytest.raises(ValueError):
        erdos_renyi_symmetric(5, 3, 1.5)


def test_erdos_renyi_canonical_coords():
    t = erdos_renyi_symmetric(8, 3, 0.3, seed=2)
    c = t.coo.coords
    assert np.all(c[0] >= c[1]) and np.all(c[1] >= c[2])


def test_random_dense_range():
    arr = random_dense((5, 3), seed=0)
    assert arr.shape == (5, 3)
    assert arr.min() >= 0.1


def test_symmetric_matrix_wrapper():
    t = symmetric_matrix(8, 0.4, seed=5)
    A = t.to_dense()
    np.testing.assert_allclose(A, A.T)
