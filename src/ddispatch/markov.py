"""Finite-state Markov chain algebra on dense matrices and their supports.

Small, exact building blocks used everywhere else in the package: validated
row-stochastic matrices, probability vectors, the invariant distribution of
one kernel by a direct (LU) solve, fundamental matrices, time-reversal
adjoints, Poisson's equation, and the relative entropy rate between chains
sharing a support.  For many kernels on one support, :func:`_schedule` plans
a pivot-free elimination once and :func:`_gth` runs it, batched, to find
their invariant distributions: design families solve every pmf they use
this way, by GTH state reduction, and the direct solve is left to
:func:`invariant_pmf` and the spd rule's time reversal.
:func:`_row_layout` lays a support out as the row table a fleet step draws
from.  Both plans are pure functions of a pattern, kept by the object that
owns it (a design family keeps its own), never by this module.  Values are
immutable and safe to share between threads.  A kernel's support mask,
nonzeros and structure report, and a schedule's pivots, are computed on
first use and kept; a race between threads at worst computes the same value
twice.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import math
from typing import NamedTuple

import numpy as np

from .errors import (
    NotIrreducible,
    SingularSystem,
    SupportViolation,
    ValidationError,
    ZeroMass,
)

__all__ = [
    "StochasticMatrix",
    "Pmf",
    "StateFunction",
    "StructureReport",
    "check_irreducible_aperiodic",
    "invariant_pmf",
    "fundamental_matrix",
    "adjoint",
    "adjoint_product",
    "compose",
    "geometric_mix",
    "poisson_solve",
    "relative_entropy_rate",
]

ROW_SUM_TOL = 1e-12
PMF_TOL = 1e-12
INVARIANT_TOL = 1e-12
FUNDAMENTAL_TOL = 1e-10
POISSON_TOL = 1e-10


def _frozen(values, dtype=float) -> np.ndarray:
    out = np.array(values, dtype=dtype)
    out.setflags(write=False)
    return out


def _check_row_sums(sums: np.ndarray):
    row_err = np.abs(sums - 1.0).max()
    if row_err > ROW_SUM_TOL:
        raise ValidationError(f"row sums deviate from 1 by {row_err:.3e}")


class _FactoryDefault:
    """Stands in a record's signature for a field's ``default_factory``."""

    def __repr__(self):
        return "<factory>"


def _record(cls=None, /, *, eq=False):
    """Frozen dataclass with methods written here rather than generated.

    ``@_record`` makes the class ``@dataclass(frozen=True, eq=False)`` would
    make, and ``@_record(eq=True)`` the one ``@dataclass(frozen=True)`` would,
    without the ``exec`` that ``dataclasses`` runs for every method it writes
    (most of the package's import time).  ``dataclass`` is asked to generate
    nothing, so it only records the fields, and ``fields``, ``replace`` and
    ``asdict`` work as usual.  The methods below then go into the class's own
    dict: ``__init__`` (by position or keyword, with defaults, a fresh
    ``default_factory`` value per instance, then ``__post_init__``),
    ``__repr__``, ``__setattr__`` and ``__delattr__`` raising
    ``FrozenInstanceError``, and with ``eq`` the value ``__eq__`` and
    ``__hash__``; ``__signature__`` lists the fields.  A field may set a
    ``default`` or ``default_factory`` and nothing else.
    """
    if cls is None:
        return functools.partial(_record, eq=eq)
    fields = dataclasses.fields(dataclasses.dataclass(cls, init=False, repr=False, eq=False))
    if any(not (f.init and f.repr and f.compare) or f.hash is not None or f.kw_only
           for f in fields):
        raise TypeError(f"{cls.__qualname__}: record fields take only a default or factory")
    names = tuple(f.name for f in fields)
    defaults = {f.name: f.default for f in fields if f.default is not dataclasses.MISSING}
    factories = {f.name: f.default_factory for f in fields
                 if f.default_factory is not dataclasses.MISSING}
    post_init = hasattr(cls, "__post_init__")

    def bind(args, kwargs):
        if len(args) > len(names):
            raise TypeError(f"{cls.__qualname__}() takes {len(names)} positional "
                            f"arguments but {len(args)} were given")
        values = list(args)
        for name in names[len(args):]:
            if name in kwargs:
                values.append(kwargs.pop(name))
            elif name in factories:
                values.append(factories[name]())
            elif name in defaults:
                values.append(defaults[name])
            else:
                raise TypeError(f"{cls.__qualname__}() missing argument {name!r}")
        if kwargs:
            name = next(iter(kwargs))
            why = "multiple values for" if name in names else "an unexpected keyword"
            raise TypeError(f"{cls.__qualname__}() got {why} argument {name!r}")
        return values

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(names):
            args = bind(args, kwargs)
        self.__dict__.update(zip(names, args))
        if post_init:
            self.__post_init__()

    def __repr__(self):
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in names)
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name, value):
        raise dataclasses.FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise dataclasses.FrozenInstanceError(f"cannot delete field {name!r}")

    for method in (__init__, __repr__, __setattr__, __delattr__):
        setattr(cls, method.__name__, method)
    if eq:
        def values(self):
            return tuple(getattr(self, name) for name in names)

        def __eq__(self, other):
            if other.__class__ is self.__class__:
                return values(self) == values(other)
            return NotImplemented

        def __hash__(self):
            return hash(values(self))

        cls.__eq__, cls.__hash__ = __eq__, __hash__
    factory = _FactoryDefault()
    cls.__signature__ = inspect.Signature(
        [inspect.Parameter(f.name, inspect.Parameter.POSITIONAL_OR_KEYWORD,
                           default=factory if f.name in factories
                           else defaults.get(f.name, inspect.Parameter.empty),
                           annotation=f.type) for f in fields],
        return_annotation=None)
    return cls


class Nonzeros(NamedTuple):
    """Nonzeros of a matrix in row-major order, as read-only arrays.

    Entry (rows[k], cols[k]) is values[k]; row x's entries begin at
    starts[x].  No row of a stochastic matrix is empty.
    """

    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray
    starts: np.ndarray


@_record
class StochasticMatrix:
    """Row-stochastic matrix.

    Square instances are transition kernels on a state space of size ``dim``.
    Rectangular instances are conditional distributions over a second index
    set (used for factored kernels). Entries must be nonnegative and each row
    must sum to one within ``ROW_SUM_TOL``.  ``support``, ``nonzeros`` and
    (square only) ``structure`` are computed on first use and kept.
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
        _check_row_sums(entries.sum(axis=1))
        object.__setattr__(self, "entries", _frozen(entries))

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    @property
    def shape(self):
        return self.entries.shape

    @property
    def is_square(self) -> bool:
        return self.entries.shape[0] == self.entries.shape[1]

    @functools.cached_property
    def support(self) -> np.ndarray:
        """Boolean mask of strictly positive entries."""
        return _frozen(self.entries > 0.0, dtype=bool)

    @functools.cached_property
    def nonzeros(self) -> Nonzeros:
        """Strictly positive entries with their positions, row by row."""
        rows, cols, starts = _positions(self.support)
        arrays = (rows, cols, self.entries[rows, cols], starts)
        for a in arrays:
            a.setflags(write=False)
        return Nonzeros(*arrays)

    @functools.cached_property
    def structure(self) -> StructureReport:
        """Support graph classification; see :func:`check_irreducible_aperiodic`."""
        _require_square(self, "structure check")
        label, aperiodic = _classify(_adjacency(self.support))
        return StructureReport(len(set(label)) == 1, aperiodic)


@_record
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


@_record
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


def _require_irreducible(p: StochasticMatrix, what: str):
    _require_square(p, what)
    if not p.structure.irreducible:
        raise NotIrreducible(f"{what} needs an irreducible chain")


def _positions(mask: np.ndarray):
    """Row-major rows, columns and row starts of a boolean matrix's true entries."""
    rows, cols = np.divmod(np.flatnonzero(mask), mask.shape[1])  # 6x faster than 2-d
    return rows, cols, np.searchsorted(rows, np.arange(mask.shape[0]))


def _adjacency(mask: np.ndarray) -> list[list[int]]:
    """Successor lists of a square boolean mask, one per row."""
    _, cols, starts = _positions(mask)
    cols, bounds = cols.tolist(), starts.tolist() + [cols.size]
    return [cols[a:b] for a, b in zip(bounds, bounds[1:])]


def _classify(succ: list[list[int]]) -> tuple[list[int], bool]:
    """Strong components of a digraph, and whether none has a period above 1.

    Kosaraju-Sharir (Sharir, Comput. Math. Appl. 7(1), 1981): a depth-first
    search along ``succ`` records finish order; a search along predecessors
    from each unlabelled node, in reverse finish order, labels its component
    with that node.  Its tree depth is a path length to the start, so the
    period is the gcd of the depth slacks |depth[v] + 1 - depth[u]| over the
    component's edges u -> v (Denardo, Math. Oper. Res. 2(1), 1977); one
    without an internal edge holds no cycle.  Both searches are iterative,
    so deep graphs cannot exhaust the recursion limit.
    """
    n = len(succ)
    seen, finished, pred = [False] * n, [], [[] for _ in succ]
    for root in range(n):
        if seen[root]:
            continue
        seen[root] = True
        work = [(root, iter(succ[root]))]
        while work:
            u, rest = work[-1]
            for v in rest:
                pred[v].append(u)
                if not seen[v]:
                    seen[v] = True
                    work.append((v, iter(succ[v])))
                    break
            else:
                work.pop()
                finished.append(u)
    label, depth, aperiodic = [-1] * n, [0] * n, True
    for root in reversed(finished):
        if label[root] >= 0:
            continue
        label[root], work, g = root, [root], 0
        while work:
            v = work.pop()
            reach = depth[v] + 1
            for u in pred[v]:
                if label[u] < 0:
                    label[u], depth[u] = root, reach
                    work.append(u)
                elif label[u] == root:
                    g = math.gcd(g, reach - depth[u])
        aperiodic = aperiodic and g <= 1
    return label, aperiodic


def check_irreducible_aperiodic(p: StochasticMatrix) -> StructureReport:
    """Classify the support graph of a kernel.

    Irreducible means one strongly connected component. Aperiodic means every
    component that contains a cycle has period one; for an irreducible chain
    this is the usual notion of aperiodicity.  A kernel is classified once.
    """
    return p.structure


def _solve(a: np.ndarray, b: np.ndarray, what: str) -> np.ndarray:
    """Dense solve of a x = b by one LU factorization, normwise backward stable;
    no refinement step, as the callers' residual checks carry the guarantee."""
    try:
        return np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(f"{what} solve failed: {exc}") from exc


class InvariantSolve(NamedTuple):
    """Invariant weights as a solve left them, and that solve's residual
    sum |w P - w|, before :func:`_checked_invariant_raw` accepts them."""

    weights: np.ndarray
    residual: float


def _lu_invariant(p: np.ndarray) -> InvariantSolve:
    """Invariant weights of a dense kernel, with their residual: pi P = pi,
    sum(pi) = 1 solved by LU with one balance equation replaced."""
    d = p.shape[0]
    a = p.T - np.eye(d)
    a[-1, :] = 1.0
    b = np.zeros(d)
    b[-1] = 1.0
    w = _solve(a, b, "invariant")
    s = w.sum()
    if s <= 0 or not np.isfinite(s):
        raise SingularSystem("invariant solve produced a non-normalizable vector")
    w = w / s
    return InvariantSolve(w, float(np.abs(w @ p - w).sum()))


def _checked_invariant_raw(solve: InvariantSolve, where: str = "") -> np.ndarray:
    """Weights of an invariant solve, finiteness, residual and sign checked
    (``where`` tags errors); dust below zero is clipped."""
    w, residual = solve
    if not np.isfinite(w).all():
        raise SingularSystem(f"invariant solve produced a non-normalizable vector{where}")
    if not residual <= INVARIANT_TOL:
        raise SingularSystem(
            f"invariant residual {residual:.3e} exceeds {INVARIANT_TOL:.1e}{where}")
    if w.min() < -PMF_TOL:
        raise SingularSystem(f"invariant solve produced weight {w.min():.3e} < 0{where}")
    w = np.maximum(w, 0.0)
    return w / w.sum()


def invariant_pmf(p: StochasticMatrix) -> Pmf:
    """Unique invariant pmf of an irreducible chain, by direct solve.

    Power iteration is deliberately not used here; one factorization gives the
    stationary vector to machine precision (normwise) in one shot.  One
    kernel at a time, LU is about ten times faster than :func:`_gth` run on a
    batch of one (0.25 against 2.7 ms on the 96-state pool kernel), which is
    accurate entrywise; families solve their pmfs by GTH.
    """
    _require_irreducible(p, "invariant pmf")
    return Pmf(_checked_invariant_raw(_lu_invariant(p.entries)))


class Pivot(NamedTuple):
    """One step of a :class:`Schedule`: where its entries sit in the filled
    pattern's value array.

    ``lower`` holds the slots of entries (i, state) and ``upper`` those of
    (state, j), for the i in ``lower_rows`` and j in ``upper_cols`` not yet
    eliminated; ``targets`` holds the slots of (i, j) for every such pair,
    row by row, which the step updates.
    """

    state: int
    diag: int
    lower: np.ndarray
    lower_rows: np.ndarray
    upper: np.ndarray
    upper_cols: np.ndarray
    targets: np.ndarray


@_record
class Schedule:
    """Symbolic elimination of a square support pattern, diagonal included.

    ``slots[i, j]`` numbers the entries of the filled pattern row by row (-1
    off it), so the values of any matrix on the pattern fit one array of
    ``size`` entries, with any batch axes after it.  ``pivots`` eliminates
    the states in ``order`` without pivoting; it is built on first use, so a
    caller that reads only ``work`` plans none.  ``work`` counts what one
    matrix's elimination touches: the filled entries plus the updates.
    """

    slots: np.ndarray
    size: int
    order: np.ndarray
    work: int

    @functools.cached_property
    def pivots(self) -> tuple:
        """One :class:`Pivot` per state of ``order``."""
        filled, slots, order = self.slots >= 0, self.slots, self.order
        pivots = []
        for n, k in enumerate(order):
            later = order[n + 1:]
            rows, cols = later[filled[later, k]], later[filled[k, later]]
            pivots.append(Pivot(int(k), int(slots[k, k]), slots[rows, k], rows,
                                slots[k, cols], cols, slots[np.ix_(rows, cols)].ravel()))
        return tuple(pivots)


def _fill(mask: np.ndarray, order: np.ndarray) -> np.ndarray:
    """Pattern of the LU factors of a matrix on ``mask``, eliminated in ``order``."""
    filled = mask.copy()
    for n, k in enumerate(order[:-1]):
        later = order[n + 1:]
        filled[np.ix_(later[filled[later, k]], later[filled[k, later]])] = True
    return filled


def _schedule(mask: np.ndarray, border: bool = False) -> Schedule:
    """Elimination schedule of a square pattern with its diagonal forced in.

    The order is the natural or the reverse natural one, whichever fills
    less: eliminating the 96-state pool kernel in reverse adds 47 entries,
    in natural order 3 384.  ``border`` then adds the whole row eliminated
    last, which fills no other.  No order needs pivoting on the matrices it
    is run on: zI - A for a column-stochastic A and |z| = 1 is column
    diagonally dominant, so its unpivoted elimination is stable (Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed., ch. 9), and
    GTH reduces a stochastic matrix without subtractions.
    """
    d = len(mask)
    mask = mask | np.eye(d, dtype=bool)
    orders = (np.arange(d)[::-1], np.arange(d))
    fills = [_fill(mask, order) for order in orders]
    best = int(np.argmin([f.sum() for f in fills]))
    order, filled = orders[best], fills[best]
    if border:
        filled[order[-1]] = True
    size = int(np.count_nonzero(filled))
    slots = np.full((d, d), -1)
    slots[filled] = np.arange(size)
    # the step eliminating order[n] updates (filled entries below it in its
    # column) x (filled entries right of it in its row), in elimination order
    ordered = filled[np.ix_(order, order)]
    updates = np.tril(ordered, -1).sum(axis=0) @ np.triu(ordered, 1).sum(axis=1)
    return Schedule(slots, size, order, size + int(updates))


class RowLayout(NamedTuple):
    """Nonzeros laid out row by row in a table ``width`` entries wide, the
    most nonzeros in a row, each row right-aligned: nonzero k sits at
    ``slots[k]`` of the flattened table, and every row's last nonzero in
    the table's last column.  ``columns`` holds the column of every table
    entry, 0 on the padding."""

    width: int
    slots: np.ndarray
    columns: np.ndarray


def _row_layout(support: Nonzeros) -> RowLayout:
    """:class:`RowLayout` of the nonzeros ``support``."""
    d, r = support.starts.size, support.rows
    lengths = np.bincount(r, minlength=d)
    width = int(lengths.max())
    ends = support.starts + lengths
    slots = r * width + (width - ends[r] + np.arange(r.size))
    columns = np.zeros(d * width, dtype=np.int64)
    columns[slots] = support.cols
    return RowLayout(width, slots, columns)


def _column_sums(x: np.ndarray) -> np.ndarray:
    """Sums over the first axis, each column added in the same order
    whatever the trailing shape (``x.sum(axis=0)`` changes order with it)."""
    return x[0] if len(x) == 1 else np.add.reduceat(x, [0], axis=0)[0]


@np.errstate(divide="ignore", invalid="ignore")
def _gth(schedule: Schedule, support: Nonzeros,
         values: np.ndarray) -> list[InvariantSolve]:
    """Invariant weights of kernels on ``support``, by GTH on ``schedule``.

    ``values`` holds one kernel per column, at the nonzeros of ``support``
    (whose pattern ``schedule`` eliminates).  State reduction (Grassmann,
    Taksar & Heyman, Oper. Res. 33(5), 1985) divides by the mass a state
    sends to the states not yet eliminated, summed rather than taken as
    one minus the self-loop, so it subtracts nothing and every weight keeps
    a small relative error, however small the weight (LU is accurate only
    relative to the largest).  Each column is computed in the same order
    whatever the batch width.  Returns one
    :class:`InvariantSolve` per column; a kernel whose reduction underflows
    gets non-finite weights.
    """
    d = support.starts.size
    vals = np.zeros((schedule.size,) + values.shape[1:])
    vals[schedule.slots[support.rows, support.cols]] = values
    for p in schedule.pivots[:-1]:
        upper = vals[p.upper]
        lower = vals[p.lower] / _column_sums(upper)
        vals[p.lower] = lower
        vals[p.targets] += (lower[:, None] * upper[None]).reshape((-1,) + values.shape[1:])
    x = np.empty((d,) + values.shape[1:])
    x[schedule.pivots[-1].state] = 1.0
    for p in reversed(schedule.pivots[:-1]):
        x[p.state] = _column_sums(x[p.lower_rows] * vals[p.lower])
    x /= _column_sums(x)
    by_col = np.lexsort((support.rows, support.cols))
    flow = x[support.rows[by_col]] * values[by_col]
    col_starts = np.searchsorted(support.cols[by_col], np.arange(d))
    residual = _column_sums(np.abs(np.add.reduceat(flow, col_starts, axis=0) - x))
    return [InvariantSolve(w, float(r)) for w, r in
            zip(np.moveaxis(x, 0, -1).reshape(-1, d), residual.ravel())]


def fundamental_matrix(p: StochasticMatrix, pi: Pmf) -> np.ndarray:
    """Inverse of (I - P + 1 pi), the resolvent at the invariant pmf.

    Both one-sided products with (I - P + 1 pi) are checked against the
    identity within ``FUNDAMENTAL_TOL``.
    """
    _require_square(p, "fundamental matrix")
    d = p.dim
    m = np.eye(d) - p.entries + np.outer(np.ones(d), pi.weights)
    z = _solve(m, np.eye(d), "fundamental matrix")
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
    """Lazy chain (1 - gamma) I + gamma S; ``s`` itself at gamma = 1."""
    _require_square(s, "geometric mix")
    if not (0.0 < gamma <= 1.0):
        raise ValidationError(f"gamma must lie in (0, 1], got {gamma!r}")
    if gamma == 1.0:
        return s
    return StochasticMatrix((1.0 - gamma) * np.eye(s.dim) + gamma * s.entries)


def _poisson_raw(p: np.ndarray, f: np.ndarray, anchor: int) -> np.ndarray:
    """Solve P h = h - f + pi(f) with h[anchor] = 0, residual checked.

    I - P + 1 e_a^T is nonsingular for an irreducible P (Kemeny, Linear
    Algebra Appl. 38, 1981).  Left-multiplying (I - P + 1 e_a^T) g = f by pi
    gives g[a] = pi(f), so h = g - g[a] solves the equation without pi.
    """
    m = np.eye(p.shape[0]) - p
    m[:, anchor] += 1.0
    g = _solve(m, f, "poisson")
    h = g - g[anchor]
    residual = np.abs(p @ h - (h - f + g[anchor])).max()
    if not residual <= POISSON_TOL:
        raise SingularSystem(f"poisson residual {residual:.3e} exceeds {POISSON_TOL:.1e}")
    return h


def poisson_solve(p: StochasticMatrix, f, anchor: int = 0) -> StateFunction:
    """Solution of Poisson's equation P h = h - f + pi(f), anchored at a state.

    The anchor pins the additive constant: the returned function vanishes at
    ``anchor``.  The chain must be irreducible; the invariant pmf is not
    needed.  Residual is checked within ``POISSON_TOL``.
    """
    _require_square(p, "poisson solve")
    fv = as_values(f)
    if fv.size != p.dim:
        raise ValidationError(f"function has {fv.size} values for a {p.dim}-state chain")
    if not 0 <= anchor < p.dim:
        raise ValidationError(f"anchor {anchor} outside 0..{p.dim - 1}")
    _require_irreducible(p, "poisson solve")
    units = f.units if isinstance(f, StateFunction) else ""
    return StateFunction(_poisson_raw(p.entries, fv, anchor), units=units)


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
    nz = p.nonzeros
    ref = p0.entries[nz.rows, nz.cols]
    if not ref.all():  # entries are >= 0, so no zero means all positive
        raise SupportViolation("kernel leaves the support of the reference kernel")
    terms = nz.values * np.log(nz.values / ref)
    value = float(pi.weights @ np.add.reduceat(terms, nz.starts))
    if value < -1e-12:
        raise SingularSystem(f"entropy rate came out {value:.3e} < 0")
    return max(value, 0.0)
