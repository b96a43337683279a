"""Shared test fixtures and generators."""

from __future__ import annotations

import itertools

import numpy as np
import pytest


def make_symmetric_matrix(rng, n, density=0.5):
    """A dense symmetric matrix with a random sparsity pattern."""
    A = rng.random((n, n)) * (rng.random((n, n)) < density)
    return np.triu(A) + np.triu(A, 1).T


def make_symmetric_tensor(rng, n, order, density=0.3):
    """A dense fully symmetric tensor with a sparse pattern."""
    T = rng.random((n,) * order) * (rng.random((n,) * order) < density)
    S = np.zeros_like(T)
    for p in itertools.permutations(range(order)):
        S = np.maximum(S, np.transpose(T, p))
    return S


def replace_node(tree, old, new):
    """A JSON tree (nested lists) with every subtree equal to *old*
    swapped for *new* — how tests forge a persisted loop program."""
    if tree == old:
        return new
    if isinstance(tree, list):
        return [replace_node(t, old, new) for t in tree]
    return tree


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(autouse=True)
def fresh_warn_memo():
    """Bad-knob diagnostics are once per (name, value) per *process*; a
    test that expects one must not depend on which tests ran before it."""
    from repro.core import config

    config._warned_values.clear()
    yield
    config._warned_values.clear()
