"""Shared builders for the test suite."""

import os
from pathlib import Path

import numpy as np
import pytest

from ddispatch.design import DesignFamily, FamilyStructure
from ddispatch.markov import StochasticMatrix

# child interpreters (``python -m ddispatch``) import the same source tree
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [_SRC, os.environ.get("PYTHONPATH")]))


def random_chain(rng, d, min_entry=0.0):
    """Random fully supported chain: Dirichlet rows, hence irreducible."""
    rows = rng.dirichlet(np.ones(d), size=d)
    if min_entry > 0.0:
        rows = rows + min_entry
        rows = rows / rows.sum(axis=1, keepdims=True)
    return StochasticMatrix(rows)


def sparse_random_chain(rng, d, extra_edges=2):
    """Random chain with a guaranteed cycle plus a few extra edges per row."""
    m = np.zeros((d, d))
    for i in range(d):
        m[i, (i + 1) % d] = rng.uniform(0.2, 1.0)
        for j in rng.integers(0, d, size=extra_edges):
            m[i, j] += rng.uniform(0.1, 1.0)
    m = m / m.sum(axis=1, keepdims=True)
    return StochasticMatrix(m)


def cycle_chain(d):
    """Deterministic d-cycle with a lazy last state.

    States 0..d-2 step forward with probability one; the last state stays or
    restarts with probability one half each. Irreducible and aperiodic, but
    its time-reversal product kernel is reducible.
    """
    m = np.zeros((d, d))
    for i in range(d - 1):
        m[i, i + 1] = 1.0
    m[d - 1, d - 1] = 0.5
    m[d - 1, 0] = 0.5
    return StochasticMatrix(m)


def composed(family, gamma):
    """``family``'s grid as jump kernels that a load applies at rate gamma,
    the family ``design --route compose`` writes for the same grid."""
    return DesignFamily(family.space, family.base, family.kind,
                        FamilyStructure("composed", gamma=gamma),
                        family.zeta_grid, family.h_grid)


def two_state(a, b):
    """Two-state chain with leave probabilities a and b."""
    return StochasticMatrix(np.array([[1.0 - a, a], [b, 1.0 - b]]))


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)
