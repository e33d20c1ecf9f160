"""Strongly connected components and the structure report, against
independent oracles: the boolean transitive closure and Wielandt's bound."""

import numpy as np
import pytest

from ddispatch.markov import (
    StochasticMatrix,
    _adjacency,
    _classify,
    check_irreducible_aperiodic,
)

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


@st.composite
def masks(draw, nonempty_rows=False):
    """Sparse random digraphs: self-loops, isolated nodes, many components."""
    d = draw(st.integers(1, 14))
    node = st.integers(0, d - 1)
    m = np.zeros((d, d), dtype=bool)
    for i, j in draw(st.lists(st.tuples(node, node), max_size=3 * d)):
        m[i, j] = True
    if nonempty_rows:
        m[np.arange(d), draw(st.lists(node, min_size=d, max_size=d))] = True
    return m


def _bool_matmul(a, b):
    return (a.astype(np.int64) @ b.astype(np.int64)) > 0


def _reach(m):
    """Reflexive transitive closure by repeated squaring."""
    r = m | np.eye(m.shape[0], dtype=bool)
    while True:
        nxt = _bool_matmul(r, r)
        if np.array_equal(nxt, r):
            return r
        r = nxt


def _closure_partition(m):
    r = _reach(m)
    both = r & r.T
    return {frozenset(np.flatnonzero(row).tolist()) for row in both}


def _primitive(a):
    """A^k > 0 entrywise for k = (n - 1)^2 + 1 (Wielandt's bound)."""
    n = a.shape[0]
    k = (n - 1) ** 2 + 1
    power = np.eye(n, dtype=bool)
    base = a
    while k:
        if k & 1:
            power = _bool_matmul(power, base)
        base = _bool_matmul(base, base)
        k >>= 1
    return bool(power.all())


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(masks())
def test_components_match_transitive_closure(m):
    label, _ = _classify(_adjacency(m))
    assert len(label) == m.shape[0]
    groups = {frozenset(x for x in range(len(label)) if label[x] == c) for c in label}
    assert groups == _closure_partition(m)


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(masks())
def test_adjacency_matches_row_nonzeros(m):
    assert _adjacency(m) == [np.flatnonzero(row).tolist() for row in m]


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(masks(nonempty_rows=True))
def test_structure_report_matches_closure_and_primitivity(m):
    blocks = _closure_partition(m)
    aperiodic = True
    for block in blocks:
        idx = sorted(block)
        inner = m[np.ix_(idx, idx)]
        if inner.any() and not _primitive(inner):
            aperiodic = False
    p = StochasticMatrix(m / m.sum(axis=1, keepdims=True))
    report = check_irreducible_aperiodic(p)
    assert report.irreducible == (len(blocks) == 1)
    assert report.aperiodic == aperiodic


def test_long_cycle_does_not_recurse():
    d = 3000
    m = np.zeros((d, d), dtype=bool)
    m[np.arange(d), (np.arange(d) + 1) % d] = True
    assert len(set(_classify(_adjacency(m))[0])) == 1
