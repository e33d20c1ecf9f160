"""Finite-state Markov chain algebra on dense matrices.

Small, exact building blocks used everywhere else in the package: validated
row-stochastic matrices, probability vectors, invariant distributions via a
direct linear solve, fundamental matrices, time-reversal adjoints, Poisson's
equation, and the relative entropy rate between chains sharing a support.
Values are immutable after construction and safe to share between threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import connected_components

from .errors import (
    NotIrreducible,
    SingularSystem,
    SupportViolation,
    ValidationError,
    ZeroMass,
)

ROW_SUM_TOL = 1e-12
PMF_TOL = 1e-12
INVARIANT_TOL = 1e-12
FUNDAMENTAL_TOL = 1e-10
POISSON_TOL = 1e-10


def _frozen(values, dtype=float) -> np.ndarray:
    out = np.array(values, dtype=dtype)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class StochasticMatrix:
    """Row-stochastic matrix.

    Square instances are transition kernels on a state space of size ``dim``.
    Rectangular instances are conditional distributions over a second index
    set (used for factored kernels). Entries must be nonnegative and each row
    must sum to one within ``ROW_SUM_TOL``.
    """

    entries: np.ndarray

    def __post_init__(self):
        entries = np.asarray(self.entries, dtype=float)
        if entries.ndim != 2 or entries.shape[0] < 1 or entries.shape[1] < 1:
            raise ValidationError(f"expected a 2-d matrix, got shape {entries.shape}")
        if not np.all(np.isfinite(entries)):
            raise ValidationError("matrix entries must be finite")
        if entries.min(initial=0.0) < 0.0:
            raise ValidationError(f"negative entry {entries.min():.3e} in stochastic matrix")
        row_err = np.abs(entries.sum(axis=1) - 1.0).max()
        if row_err > ROW_SUM_TOL:
            raise ValidationError(f"row sums deviate from 1 by {row_err:.3e}")
        object.__setattr__(self, "entries", _frozen(entries))
        object.__setattr__(self, "_support", _frozen(entries > 0.0, dtype=bool))

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    @property
    def shape(self):
        return self.entries.shape

    @property
    def is_square(self) -> bool:
        return self.entries.shape[0] == self.entries.shape[1]

    @property
    def support(self) -> np.ndarray:
        """Boolean mask of strictly positive entries."""
        return self._support


@dataclass(frozen=True, eq=False)
class Pmf:
    """Probability vector over state indices."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1 or w.size < 1:
            raise ValidationError(f"expected a 1-d weight vector, got shape {w.shape}")
        if not np.all(np.isfinite(w)):
            raise ValidationError("pmf weights must be finite")
        if w.min() < -PMF_TOL:
            raise ValidationError(f"negative weight {w.min():.3e} in pmf")
        if abs(w.sum() - 1.0) > PMF_TOL:
            raise ValidationError(f"pmf sums to {w.sum()!r}, expected 1")
        object.__setattr__(self, "weights", _frozen(w))

    @property
    def dim(self) -> int:
        return self.weights.size

    def mean(self, f) -> float:
        """Expectation of a state function under this pmf."""
        return float(self.weights @ as_values(f))


@dataclass(frozen=True, eq=False)
class StateFunction:
    """Real-valued function on the state space, with a units tag."""

    values: np.ndarray
    units: str = ""

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1 or v.size < 1:
            raise ValidationError(f"expected a 1-d value vector, got shape {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValidationError("state function values must be finite")
        object.__setattr__(self, "values", _frozen(v))

    @property
    def dim(self) -> int:
        return self.values.size


def as_values(f, dim: int | None = None) -> np.ndarray:
    """Accept a StateFunction, Pmf, or array-like and return a float vector."""
    if isinstance(f, StateFunction):
        out = f.values
    elif isinstance(f, Pmf):
        out = f.weights
    else:
        out = np.asarray(f, dtype=float)
    if dim is not None and out.shape != (dim,):
        raise ValidationError(f"expected {dim} state values, got shape {out.shape}")
    return out


class StructureReport(NamedTuple):
    irreducible: bool
    aperiodic: bool


def _require_square(p: StochasticMatrix, what: str):
    if not p.is_square:
        raise ValidationError(f"{what} needs a square kernel, got shape {p.shape}")


def _component_period(mask: np.ndarray, nodes: np.ndarray) -> int:
    """Gcd of cycle lengths inside one strongly connected component.

    Breadth-first levels from an arbitrary root; every edge u -> v inside the
    component satisfies level[v] <= level[u] + 1, and the gcd of the slacks
    level[u] + 1 - level[v] over all internal edges equals the period.
    """
    inside = np.zeros(mask.shape[0], dtype=bool)
    inside[nodes] = True
    level = {int(nodes[0]): 0}
    frontier = [int(nodes[0])]
    while frontier:
        nxt = []
        for u in frontier:
            for v in np.nonzero(mask[u])[0]:
                v = int(v)
                if inside[v] and v not in level:
                    level[v] = level[u] + 1
                    nxt.append(v)
        frontier = nxt
    g = 0
    for u in nodes:
        u = int(u)
        for v in np.nonzero(mask[u])[0]:
            v = int(v)
            if inside[v]:
                g = math.gcd(g, level[u] + 1 - level[v])
    return g


def check_irreducible_aperiodic(p: StochasticMatrix) -> StructureReport:
    """Classify the support graph of a kernel.

    Irreducible means one strongly connected component. Aperiodic means every
    component that contains a cycle has period one; for an irreducible chain
    this is the usual notion of aperiodicity.
    """
    _require_square(p, "structure check")
    mask = p.support
    n_comp, labels = connected_components(
        sparse.csr_matrix(mask), directed=True, connection="strong"
    )
    irreducible = bool(n_comp == 1)
    aperiodic = True
    for c in range(n_comp):
        nodes = np.nonzero(labels == c)[0]
        if nodes.size == 1 and not mask[nodes[0], nodes[0]]:
            continue  # transient singleton, no cycle through it
        if _component_period(mask, nodes) != 1:
            aperiodic = False
            break
    return StructureReport(irreducible=irreducible, aperiodic=aperiodic)


def _refined_solve(a: np.ndarray, b: np.ndarray, what: str) -> np.ndarray:
    """Dense solve of a x = b; one refinement step brings the residual near eps."""
    try:
        x = np.linalg.solve(a, b)
        return x + np.linalg.solve(a, b - a @ x)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(f"{what} solve failed: {exc}") from exc


def _invariant_raw(p: np.ndarray) -> np.ndarray:
    """Solve pi P = pi, sum(pi) = 1 by replacing one balance equation."""
    d = p.shape[0]
    a = p.T - np.eye(d)
    a[-1, :] = 1.0
    b = np.zeros(d)
    b[-1] = 1.0
    w = _refined_solve(a, b, "invariant")
    s = w.sum()
    if s <= 0 or not np.isfinite(s):
        raise SingularSystem("invariant solve produced a non-normalizable vector")
    return w / s


def _checked_invariant_raw(p: np.ndarray, where: str = "") -> np.ndarray:
    """Invariant weights, residual and sign checked (``where`` tags errors)."""
    w = _invariant_raw(p)
    residual = np.abs(w @ p - w).sum()
    if residual > INVARIANT_TOL:
        raise SingularSystem(
            f"invariant residual {residual:.3e} exceeds {INVARIANT_TOL:.1e}{where}")
    if w.min() < -PMF_TOL:
        raise SingularSystem(f"invariant solve produced weight {w.min():.3e} < 0{where}")
    w = np.maximum(w, 0.0)
    return w / w.sum()


def invariant_pmf(p: StochasticMatrix) -> Pmf:
    """Unique invariant pmf of an irreducible chain, by direct solve.

    Power iteration is deliberately not used here; the linear solve gives the
    stationary vector to machine precision in one shot.
    """
    _require_square(p, "invariant pmf")
    if not check_irreducible_aperiodic(p).irreducible:
        raise NotIrreducible("invariant pmf needs an irreducible chain")
    return Pmf(_checked_invariant_raw(p.entries))


def fundamental_matrix(p: StochasticMatrix, pi: Pmf) -> np.ndarray:
    """Inverse of (I - P + 1 pi), the resolvent at the invariant pmf.

    Both one-sided products with (I - P + 1 pi) are checked against the
    identity within ``FUNDAMENTAL_TOL``.
    """
    _require_square(p, "fundamental matrix")
    d = p.dim
    m = np.eye(d) - p.entries + np.outer(np.ones(d), pi.weights)
    try:
        z = np.linalg.inv(m)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(f"fundamental matrix solve failed: {exc}") from exc
    err = max(np.abs(z @ m - np.eye(d)).max(), np.abs(m @ z - np.eye(d)).max())
    if err > FUNDAMENTAL_TOL:
        raise SingularSystem(f"fundamental matrix residual {err:.3e}")
    return z


def adjoint(p: StochasticMatrix, pi: Pmf) -> StochasticMatrix:
    """Time reversal of ``p`` under its invariant pmf.

    Rows are renormalized to absorb the solve dust in ``pi``; with the exact
    invariant pmf the renormalization is a no-op.
    """
    _require_square(p, "adjoint")
    return StochasticMatrix(_reversal_raw(p.entries, pi.weights))


def _reversal_raw(p: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Time reversal w(y) P(y, x) / w(x) with rows renormalized."""
    if w.min() <= 0.0:
        raise ZeroMass("invariant pmf has a zero entry; time reversal undefined")
    rev = (w[None, :] * p.T) / w[:, None]
    return rev / rev.sum(axis=1, keepdims=True)


def adjoint_product(p: StochasticMatrix, pi: Pmf) -> StochasticMatrix:
    """Two-step smoothing kernel: time reversal of ``p`` composed with ``p``."""
    return compose(adjoint(p, pi), p)


def compose(a: StochasticMatrix, b: StochasticMatrix) -> StochasticMatrix:
    """Matrix product of two kernels (row-stochastic by construction)."""
    if a.shape[1] != b.shape[0]:
        raise ValidationError(f"cannot compose shapes {a.shape} and {b.shape}")
    return StochasticMatrix(a.entries @ b.entries)


def geometric_mix(s: StochasticMatrix, gamma: float) -> StochasticMatrix:
    """Lazy chain (1 - gamma) I + gamma S."""
    _require_square(s, "geometric mix")
    if not (0.0 < gamma <= 1.0):
        raise ValidationError(f"gamma must lie in (0, 1], got {gamma!r}")
    return StochasticMatrix((1.0 - gamma) * np.eye(s.dim) + gamma * s.entries)


def _poisson_raw(p: np.ndarray, pi: np.ndarray, f: np.ndarray, anchor: int) -> np.ndarray:
    """Solve (I - P + 1 pi) h = f and shift so that h[anchor] = 0.

    Left-multiplying the system by pi shows pi h = pi f automatically, so the
    solution satisfies P h = h - f + pi(f) without explicit centering.
    """
    d = p.shape[0]
    m = np.eye(d) - p + np.outer(np.ones(d), pi)
    h = _refined_solve(m, f, "poisson")
    return h - h[anchor]


def poisson_solve(p: StochasticMatrix, f, anchor: int = 0) -> StateFunction:
    """Solution of Poisson's equation P h = h - f + pi(f), anchored at a state.

    The anchor pins the additive constant: the returned function vanishes at
    ``anchor``. Residual is checked within ``POISSON_TOL``.
    """
    _require_square(p, "poisson solve")
    fv = as_values(f)
    if fv.size != p.dim:
        raise ValidationError(f"function has {fv.size} values for a {p.dim}-state chain")
    if not 0 <= anchor < p.dim:
        raise ValidationError(f"anchor {anchor} outside 0..{p.dim - 1}")
    pi = invariant_pmf(p)
    h = _poisson_raw(p.entries, pi.weights, fv, anchor)
    fbar = float(pi.weights @ fv)
    residual = np.abs(p.entries @ h - (h - fv + fbar)).max()
    if residual > POISSON_TOL:
        raise SingularSystem(f"poisson residual {residual:.3e} exceeds {POISSON_TOL:.1e}")
    units = f.units if isinstance(f, StateFunction) else ""
    return StateFunction(h, units=units)


def relative_entropy_rate(p: StochasticMatrix, p0: StochasticMatrix, pi: Pmf) -> float:
    """Mean relative entropy per step of ``p`` against ``p0`` under ``pi``.

    Sum over states of pi(x) KL(p(x, .) || p0(x, .)), with the 0 log 0
    convention. Raises SupportViolation if ``p`` puts mass outside the
    support of ``p0``. The result is nonnegative; rounding dust below zero
    is clamped.
    """
    _require_square(p, "relative entropy rate")
    if p.shape != p0.shape:
        raise ValidationError(f"shape mismatch {p.shape} vs {p0.shape}")
    mask = p.support
    if np.any(mask & ~p0.support):
        raise SupportViolation("kernel leaves the support of the reference kernel")
    ratio = np.ones_like(p.entries)
    np.divide(p.entries, p0.entries, out=ratio, where=mask)
    terms = np.zeros_like(p.entries)
    np.multiply(p.entries, np.log(ratio, where=mask, out=np.zeros_like(ratio)), out=terms, where=mask)
    value = float(pi.weights @ terms.sum(axis=1))
    if value < -1e-12:
        raise SingularSystem(f"entropy rate came out {value:.3e} < 0")
    return max(value, 0.0)
