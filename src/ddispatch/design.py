"""Synthesis of randomized local control policies by exponential tilting.

A fleet of loads shares a nominal transition kernel P0.  Broadcasting a
scalar command ``zeta`` moves every load to a tilted kernel

    P_zeta(x, x') = P0(x, x') * exp(h(x, x') - Lambda_h(x)),

where ``h`` is a pair function chosen by a design rule and ``Lambda_h`` is
the per-row log normalizer.  A tilt never leaves the support of P0, so it
is computed on P0's nonzeros only (``P0.nonzeros``, built once per kernel),
in O(nnz); a d x d kernel is built only where a caller needs one.  This
module provides the tilt itself, the two design rules (individual-perspective
and system-perspective), the continuation ODE that integrates either rule
over a range of commands, and a serializable container for the resulting
one-parameter kernel family.

States may factor into a controllable coordinate and an exogenous one
(local temperature, for instance).  Design functions are then defined on
the controllable coordinate only and lifted to pair functions that never
steer the exogenous part.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    AdjointProductReducible,
    IntegrationDiverged,
    NonFinite,
    NotIrreducible,
    OutOfGrid,
    SingularSystem,
    ValidationError,
    ZeroMass,
)
from .fileio import (document, envelope, field, finite, integer, json_object,
                     malformed, numbers, read_json, string, write_json)
from .markov import (
    Nonzeros,
    Pmf,
    RowLayout,
    Schedule,
    StateFunction,
    StochasticMatrix,
    _check_row_sums,
    _checked_invariant_raw,
    _gth,
    _lu_invariant,
    _poisson_raw,
    _reversal_raw,
    _row_layout,
    _schedule,
    as_values,
    check_irreducible_aperiodic,
    geometric_mix,
    invariant_pmf,
    poisson_solve,
    relative_entropy_rate,
)

__all__ = [
    "LoadStateSpace",
    "FamilyStructure",
    "DesignFamily",
    "lift_control",
    "tilt",
    "ipd_map",
    "spd_map",
    "solve_design_ode",
    "build_exponential_family",
    "geometric_compose",
    "reward_value",
    "optimality_residual",
    "family_optimality_residual",
    "sampling_rate_profile",
    "save_family",
    "load_family",
]

#: snap-to-grid tolerance for command values, in grid steps
_GRID_SNAP = 1e-7

#: grid points tilted and solved together by ``DesignFamily.ubars``
GRID_BLOCK = 64

#: most points a command grid holds.  Saving a family peaks at ~8 kB a point
#: on the 96-state pool model: its h_grid row (0.8 kB), that row as Python
#: floats (3 kB) and its JSON text (2 kB), so ~0.5 GB at this maximum
MAX_GRID_POINTS = 60_001

ODE_KINDS = ("ipd", "spd")
GENERATOR_KINDS = ("myopic", "ipd0", "custom")


@dataclass(frozen=True, eq=False)
class LoadStateSpace:
    """State bookkeeping for one load class.

    The flat state index is ``x = x_c * n_exo + x_exo`` with ``x_c`` the
    controllable coordinate and ``x_exo`` the exogenous one.  ``util`` gives
    the power draw (or any scalar output) per flat state.  ``exo_kernel``
    rows give the distribution of the next exogenous coordinate from each
    flat state; it is required whenever ``n_exo > 1``.
    """

    n_control: int
    n_exo: int
    util: StateFunction
    anchor: int = 0
    exo_kernel: StochasticMatrix | None = None

    def __post_init__(self):
        if self.n_control < 1 or self.n_exo < 1:
            raise ValidationError("state space dimensions must be positive")
        if len(self.util.values) != self.dim:
            raise ValidationError(
                f"util has {len(self.util.values)} entries, expected {self.dim}"
            )
        if not 0 <= self.anchor < self.dim:
            raise ValidationError(f"anchor {self.anchor} outside state space")
        if self.n_exo > 1:
            if self.exo_kernel is None:
                raise ValidationError("exo_kernel required when n_exo > 1")
            if self.exo_kernel.shape != (self.dim, self.n_exo):
                raise ValidationError(
                    f"exo_kernel shape {self.exo_kernel.shape} != {(self.dim, self.n_exo)}"
                )

    @property
    def dim(self) -> int:
        return self.n_control * self.n_exo

    def control_part(self, x: int) -> int:
        return x // self.n_exo

    def exo_part(self, x: int) -> int:
        return x % self.n_exo

    def flat_index(self, x_c: int, x_exo: int) -> int:
        return x_c * self.n_exo + x_exo

    def to_json(self) -> dict:
        doc = dict(n_control=self.n_control, n_exo=self.n_exo, anchor=self.anchor,
                   util=self.util.values.tolist(), util_units=self.util.units)
        if self.exo_kernel is not None:
            doc["exo_kernel"] = self.exo_kernel.entries.tolist()
        return doc

    @classmethod
    def from_json(cls, doc: dict) -> "LoadStateSpace":
        exo = json_object(doc, "space").get("exo_kernel")
        return cls(
            n_control=integer(doc["n_control"]),
            n_exo=integer(doc["n_exo"]),
            util=StateFunction(numbers(doc["util"], 1),
                               field(doc, "util_units", string, "")),
            anchor=field(doc, "anchor", integer, 0),
            exo_kernel=None if exo is None else StochasticMatrix(numbers(exo, 2)),
        )


def _design_vector(space: LoadStateSpace, h_control) -> np.ndarray:
    h = np.asarray(h_control, dtype=float)
    if h.shape != (space.dim,):
        raise ValidationError(
            f"design function has shape {h.shape}, expected ({space.dim},)")
    return h


def _exo_table(space: LoadStateSpace, h: np.ndarray) -> np.ndarray:
    """H(x, c) = sum_e exo_kernel(x, e) h(c, e), the lift of ``h`` at any
    successor with controllable part c (d x n_control)."""
    return space.exo_kernel.entries @ h.reshape(space.n_control, space.n_exo).T


def lift_control(space: LoadStateSpace, h_control) -> np.ndarray:
    """Lift a function of the controllable coordinate to a pair function.

    ``h_control`` is defined on flat states but used only through the
    controllable part of the *successor*.  The lifted pair function is its
    conditional expectation over the exogenous successor coordinate:

        H(x, x') = sum_e exo_kernel(x, e) * h_control(control(x'), e)

    which depends on x and control(x') only, so the tilt never biases the
    exogenous transition.  Without an exogenous coordinate this reduces to
    H(x, x') = h_control(x').
    """
    h = _design_vector(space, h_control)
    if space.n_exo == 1:
        return np.broadcast_to(h, (space.dim, space.dim))
    return np.repeat(_exo_table(space, h), space.n_exo, axis=1)


def _scatter(support: Nonzeros, values: np.ndarray) -> np.ndarray:
    """Square matrix holding ``values`` at ``support``, zeros elsewhere."""
    out = np.zeros((support.starts.size,) * 2)
    out[support.rows, support.cols] = values
    return out


def _lift_on_support(space: LoadStateSpace, support: Nonzeros, h) -> np.ndarray:
    """``lift_control(space, h)`` read at the nonzeros of ``support`` only."""
    h = _design_vector(space, h)
    if space.n_exo == 1:
        return h[support.cols]
    return _exo_table(space, h)[support.rows, support.cols // space.n_exo]


def _log_normalizer_raw(support: Nonzeros, pair: np.ndarray):
    """Row-wise log of sum_x' base(x,x') exp(pair(x,x')) plus the shifted weights.

    ``base`` is the kernel ``support`` was read from and ``pair`` holds the
    pair function at its nonzeros, in the same order, with one column per
    pair function if there are several.  Returns (weights, row_sums,
    log_norm) where weights = base * exp(pair - m), on the support, with m
    the per-row maximum of pair.  The shift keeps the exponentials in
    [0, 1], so overflow is impossible for finite pair values.  A column is
    reduced in the same order whether it comes alone or in a batch.
    """
    if not np.isfinite(pair).all():
        raise NonFinite("tilt pair function is not finite on the support")
    m = np.maximum.reduceat(pair, support.starts, axis=0)
    base = support.values if pair.ndim == 1 else support.values[:, None]
    weights = base * np.exp(pair - m[support.rows])
    rows = np.add.reduceat(weights, support.starts, axis=0)
    if not (rows > 0.0).all():
        raise NonFinite("tilt underflowed: a row lost all of its mass")
    return weights, rows, m + np.log(rows)


def _tilt_raw(support: Nonzeros, pair: np.ndarray):
    """Tilted kernel at the nonzeros of the base, and its log normalizer.

    O(nnz): the tilt never leaves the support of the base, so the d x d
    kernel is built only where a caller needs it, by :func:`_scatter`.
    """
    weights, rows, log_norm = _log_normalizer_raw(support, pair)
    tilted = weights / rows[support.rows]
    if not tilted.all():  # entries are >= 0, so no zero means all positive
        raise NonFinite("tilt underflowed: support of the tilted kernel shrank")
    _check_row_sums(np.add.reduceat(tilted, support.starts, axis=0))
    return tilted, log_norm


def _tilt_at_h(support: Nonzeros, space: LoadStateSpace, h) -> np.ndarray:
    """Nonzeros of the base tilted by the lift of the design function ``h``;
    for a stack of design functions (one per row), one column per function."""
    if np.ndim(h) == 2:  # lifted one by one: each column is bitwise the single lift
        pair = np.stack([_lift_on_support(space, support, row) for row in h], axis=1)
    else:
        pair = _lift_on_support(space, support, h)
    tilted, _ = _tilt_raw(support, pair)
    return tilted


def tilt(base: StochasticMatrix, pair) -> tuple[StochasticMatrix, StateFunction]:
    """Exponentially tilt ``base`` by the pair function ``pair``.

    Entries off the support of ``base`` stay zero; entries on it are scaled
    by exp(pair) and each row is renormalized.  Adding a constant to
    ``pair`` leaves the result unchanged.  Returns the tilted kernel and
    the per-row log normalizer.
    """
    pair = np.asarray(pair, dtype=float)
    if pair.shape != base.shape:
        raise ValidationError(f"pair function shape {pair.shape} != {base.shape}")
    support = base.nonzeros
    tilted, log_norm = _tilt_raw(support, pair[support.rows, support.cols])
    return StochasticMatrix(_scatter(support, tilted)), StateFunction(log_norm)


def ipd_map(p: StochasticMatrix, util, anchor: int = 0) -> StateFunction:
    """Individual-perspective design direction at kernel ``p``.

    The unique solution ``h`` of  h - P h = util - pi(util)  with
    h(anchor) = 0, found without solving for pi.  Integrating this
    direction produces, at each command value, the policy a single load
    would choose to maximize its own long-run utility net of control effort.
    """
    return poisson_solve(p, util, anchor=anchor)


def spd_map(p: StochasticMatrix, util, anchor: int = 0) -> StateFunction:
    """System-perspective design direction at kernel ``p``.

    Solves the same centered equation as :func:`ipd_map` but with the
    doubled kernel  P-dagger P  in place of P, where P-dagger is the time
    reversal of P; the residual is checked as in :func:`ipd_map`.  Only the
    time reversal needs the invariant pmf.  Integrating this direction
    yields families whose small-signal response aggregates passively (no
    phase surprises for the grid operator).  Raises
    :class:`AdjointProductReducible` when the doubled kernel is not
    irreducible, in which case the centered equation has no usable solution.
    """
    f = as_values(util, p.dim)
    if not check_irreducible_aperiodic(p).irreducible:
        raise NotIrreducible("invariant pmf needs an irreducible chain")
    doubled = StochasticMatrix(_doubled_raw(p.entries))
    if not check_irreducible_aperiodic(doubled).irreducible:
        raise AdjointProductReducible(
            "time-reversal product kernel is reducible; "
            "system-perspective design is undefined for this model"
        )
    h = _poisson_raw(doubled.entries, f, anchor)
    units = util.units if isinstance(util, StateFunction) else ""
    return StateFunction(h, units)


def _doubled_raw(p: np.ndarray) -> np.ndarray:
    """The doubled kernel P-dagger P.  Its pmf is LU's: per kernel, about ten
    times faster than GTH on a batch of one."""
    return _reversal_raw(p, _checked_invariant_raw(_lu_invariant(p))) @ p


def _design_rate(kind: str, space: LoadStateSpace, support: Nonzeros,
                 values: np.ndarray) -> np.ndarray:
    """Design direction of an ODE kind at the tilt ``values`` on ``support``
    (checked already), residual checked: the individual rule, applied to
    the doubled kernel for the system-perspective one."""
    p = _scatter(support, values)
    if kind == "spd":
        p = _doubled_raw(p)
    return _poisson_raw(p, as_values(space.util), space.anchor)


def _zero_direction(kind: str, base: StochasticMatrix,
                    space: LoadStateSpace) -> np.ndarray:
    """Checked design direction of ``kind`` at the base kernel (zero command)."""
    if kind == "myopic":
        return as_values(space.util, space.dim).copy()
    design_map = spd_map if kind == "spd" else ipd_map
    return design_map(base, space.util, anchor=space.anchor).values.copy()


@dataclass(frozen=True, eq=False)
class FamilyStructure:
    """How a family's kernels relate to the physical sampling mechanism.

    Each family kernel S is a jump kernel that a load applies with
    probability ``sampling_rate`` per step, staying put otherwise: the
    per-step kernel is (1 - rate) I + rate S.  ``"composed"`` sampling has
    rate gamma; ``"direct"`` is the same rule at rate 1, where the family
    kernels are the per-step kernels themselves.
    """

    sampling: str = "direct"
    gamma: float | None = None

    def __post_init__(self):
        if self.sampling not in ("direct", "composed"):
            raise ValidationError(f"unknown sampling mode {self.sampling!r}")
        if self.sampling == "composed":
            if self.gamma is None or not 0.0 < self.gamma <= 1.0:
                raise ValidationError("composed sampling needs gamma in (0, 1]")
        elif self.gamma is not None:
            raise ValidationError("gamma only applies to composed sampling")

    @property
    def sampling_rate(self) -> float:
        """gamma when composed, 1.0 when direct."""
        return self.gamma if self.sampling == "composed" else 1.0

    def to_json(self) -> dict:
        return {"sampling": self.sampling, "gamma": self.gamma}

    @classmethod
    def from_json(cls, doc: dict) -> "FamilyStructure":
        gamma = json_object(doc, "structure").get("gamma")
        return cls(sampling=doc["sampling"],
                   gamma=None if gamma is None else finite(gamma))


class DesignFamily:
    """One-parameter family of tilted kernels on a uniform command grid.

    Stores the design function h per grid point and regenerates kernels on
    demand by tilting the stored base on its nonzeros, ``support``.
    Construction checks the grid and, once, the connectivity of the
    untilted per-step kernel; the tilt and invariant pmf at a command are
    computed and checked only when that command is used.  Invariant pmfs
    are solved by GTH on ``schedule``, one elimination plan for every
    command, and fleets draw on ``row_layout``, one row table for every
    command; both are planned on first use and kept.  ``ubars`` gives the
    mean output over the whole grid, solved GRID_BLOCK points at a time.
    h is one C1 function of the command, built from ``h_grid`` alone: the
    grid values, joined by the cubic Hermite interpolant on ``h_slopes``.
    ``h_at`` reads it and ``h_rate_at`` its derivative, for every kind, so a
    linear model is the derivative of the plant it describes.  Values beyond
    the grid ends raise :class:`OutOfGrid`.
    """

    def __init__(self, space: LoadStateSpace, base: StochasticMatrix, kind: str,
                 structure: FamilyStructure, zeta_grid, h_grid,
                 generator=None, model_hash: str | None = None,
                 synthesis: dict | None = None):
        if kind not in ODE_KINDS + GENERATOR_KINDS:
            raise ValidationError(f"unknown design kind {kind!r}")
        if not base.is_square or base.dim != space.dim:
            raise ValidationError("base kernel does not match the state space")
        zeta_grid = np.array(zeta_grid, dtype=float)
        h_grid = np.array(h_grid, dtype=float)
        if zeta_grid.ndim != 1 or len(zeta_grid) < 1:
            raise ValidationError("command grid must be a nonempty vector")
        if h_grid.shape != (len(zeta_grid), space.dim):
            raise ValidationError(
                f"design grid shape {h_grid.shape} != {(len(zeta_grid), space.dim)}"
            )
        if len(zeta_grid) > 1:
            steps = np.diff(zeta_grid)
            if steps.min() <= 0.0:
                raise ValidationError("command grid must be strictly increasing")
            if steps.max() - steps.min() > 1e-12 * max(1.0, steps.max()):
                raise ValidationError("command grid must be uniform")
            self.step = float(steps.mean())
        else:
            self.step = 1.0
        if not np.all(np.isfinite(h_grid)):
            raise ValidationError("design grid contains non-finite values")
        if kind in GENERATOR_KINDS:
            generator = np.array(generator, dtype=float)
            if generator.shape != (space.dim,):
                raise ValidationError("generator must be one value per state")
        elif generator is not None:
            raise ValidationError(f"kind {kind!r} does not take a generator")

        self.space = space
        self.base = base
        self.kind = kind
        self.structure = structure
        self.zeta_grid = zeta_grid
        self.zeta_grid.setflags(write=False)
        self.h_grid = h_grid
        self.h_grid.setflags(write=False)
        self.generator = generator
        if generator is not None:
            self.generator.setflags(write=False)
        self.model_hash = model_hash
        self.synthesis = dict(synthesis or {})
        self._last_jump = None  # (command, jump values) of the last jump_values_at

        # Tilting keeps the support and the lazy mix adds only self-loops, so
        # the base has the connectivity of every command's per-step kernel.
        if not check_irreducible_aperiodic(base).irreducible:
            raise NotIrreducible("per-step kernel is not irreducible")

    @property
    def support(self) -> Nonzeros:
        """Nonzeros of the base, which every command's jump kernel shares."""
        return self.base.nonzeros

    @functools.cached_property
    def step_support(self) -> Nonzeros:
        """Nonzeros of the untilted per-step kernel, which every command's shares."""
        return geometric_mix(self.base, self.structure.sampling_rate).nonzeros

    @functools.cached_property
    def _jump_slots(self) -> np.ndarray:
        """Position of each entry of ``support`` in ``step_support``."""
        step, jump, d = self.step_support, self.support, self.space.dim
        return np.searchsorted(step.rows * d + step.cols, jump.rows * d + jump.cols)

    @functools.cached_property
    def schedule(self) -> Schedule:
        """Elimination schedule of ``step_support``, which every command's
        per-step kernel shares."""
        step, d = self.step_support, self.space.dim
        mask = np.zeros((d, d), dtype=bool)
        mask[step.rows, step.cols] = True
        return _schedule(mask)

    @functools.cached_property
    def row_layout(self) -> RowLayout:
        """Row table of ``step_support``, which a fleet step draws each
        row's agents over."""
        return _row_layout(self.step_support)

    @functools.cached_property
    def ubars(self) -> np.ndarray:
        """Mean output at every grid point (every point's pmf checked).

        Bitwise ``[self.ubar_at(z) for z in self.zeta_grid]``: the grid is
        tilted and solved in blocks, each point in the order ``pi_at`` uses.
        """
        util = as_values(self.space.util)
        ubars = np.empty(len(self.zeta_grid))
        for lo in range(0, len(ubars), GRID_BLOCK):
            hs = self.h_grid[lo:lo + GRID_BLOCK]
            values = self._step_values(_tilt_at_h(self.support, self.space, hs))
            solves = _gth(self.schedule, self.step_support, values)
            for i, solve in enumerate(solves, lo):
                where = f" at command {self.zeta_grid[i]:g}"
                ubars[i] = Pmf(_checked_invariant_raw(solve, where)).mean(util)
        ubars.setflags(write=False)
        return ubars

    # -- grid lookup -------------------------------------------------------

    def _locate(self, zeta: float):
        """Map a command value to (index, None) on-grid or (lo, frac) between."""
        g = self.zeta_grid
        lo_edge, hi_edge = g[0], g[-1]
        slack = _GRID_SNAP * self.step
        if not lo_edge - slack <= zeta <= hi_edge + slack:  # NaN fails too
            raise OutOfGrid(
                f"command {zeta:g} outside synthesized range [{lo_edge:g}, {hi_edge:g}]"
            )
        pos = (zeta - lo_edge) / self.step
        nearest = int(round(pos))
        nearest = min(max(nearest, 0), len(g) - 1)
        if abs(pos - nearest) <= _GRID_SNAP:
            return nearest, None
        lo = min(int(np.floor(pos)), len(g) - 2)
        return lo, pos - lo

    @functools.cached_property
    def h_slopes(self) -> np.ndarray:
        """d h / d zeta at every grid point, from ``h_grid`` alone.

        Fourth-order differences: central inside, and at the two points
        nearest each end the derivative of the quartic through the five end
        points.  Grids of two to four points take second-order differences
        (``np.gradient``); a one-point grid has slope zero.
        """
        h, n = self.h_grid, len(self.h_grid)
        if n < 5:
            slopes = np.gradient(h, self.step, axis=0) if n > 1 else np.zeros_like(h)
        else:
            slopes = np.empty_like(h)
            slopes[2:-2] = (h[:-4] - 8.0 * h[1:-3] + 8.0 * h[3:-1] - h[4:]) / (12.0 * self.step)
            ends = np.array([[-25.0, 48.0, -36.0, 16.0, -3.0],
                             [-3.0, -10.0, 18.0, -6.0, 1.0]]) / (12.0 * self.step)
            slopes[:2] = ends @ h[:5]
            # mirrored: the last five points, reversed, with the step's sign flipped
            slopes[:-3:-1] = -(ends @ h[:-6:-1])
        slopes.setflags(write=False)
        return slopes

    def h_at(self, zeta: float) -> np.ndarray:
        """Design function at a command value: the grid value on the grid, the
        cubic Hermite interpolant on ``h_slopes`` between grid points."""
        i, t = self._locate(zeta)
        if t is None:
            return self.h_grid[i].copy()
        s, dz = 1.0 - t, self.step
        return self._hermite(i, ((1.0 + 2.0 * t) * s * s, t * t * (3.0 - 2.0 * t),
                                 dz * t * s * s, -dz * t * t * s))

    def _hermite(self, i: int, weights) -> np.ndarray:
        """``weights`` applied to h and its slope at grid points i and i + 1,
        in the order h_i, h_i+1, slope_i, slope_i+1."""
        nodes = np.concatenate((self.h_grid[i:i + 2], self.h_slopes[i:i + 2]))
        return np.array(weights) @ nodes

    def pair_at(self, zeta: float) -> np.ndarray:
        """Lifted pair function driving the tilt at this command value."""
        return lift_control(self.space, self.h_at(zeta))

    def jump_values_at(self, zeta: float) -> np.ndarray:
        """Jump kernel at a command on ``support``: one value per nonzero.

        The values of the last command asked for are kept, so the jump and
        per-step kernels and the invariant pmf of one command share one tilt.
        """
        last = self._last_jump
        if last is not None and last[0] == zeta:
            return last[1]
        values = _tilt_at_h(self.support, self.space, self.h_at(zeta))
        values.setflags(write=False)
        self._last_jump = (zeta, values)
        return values

    def jump_kernel_at(self, zeta: float) -> StochasticMatrix:
        """Tilted kernel before any lazy composition."""
        return StochasticMatrix(_scatter(self.support, self.jump_values_at(zeta)))

    def step_values_at(self, zeta: float) -> np.ndarray:
        """Per-step kernel at a command on ``step_support``: one value per nonzero."""
        return self._step_values(self.jump_values_at(zeta))

    def _step_values(self, jump: np.ndarray) -> np.ndarray:
        """Per-step kernels on ``step_support`` from jump kernels on ``support``
        (one per column, if several): (1 - rate) on the diagonal plus rate
        times the jump values, formed term by term as :func:`geometric_mix`
        forms the dense kernel."""
        step, rate = self.step_support, self.structure.sampling_rate
        full = np.zeros((step.rows.size,) + jump.shape[1:])
        full[self._jump_slots] = jump
        diag = (step.rows == step.cols).reshape((-1,) + (1,) * (jump.ndim - 1))
        return (1.0 - rate) * diag + rate * full

    def kernel_at(self, zeta: float) -> StochasticMatrix:
        """Per-step kernel actually run by each load: ``step_values_at`` scattered."""
        return StochasticMatrix(_scatter(self.step_support, self.step_values_at(zeta)))

    def pi_at(self, zeta: float) -> Pmf:
        """Invariant pmf of the per-step kernel, by GTH: accurate entrywise,
        with its residual and sign checked.  No d x d kernel is built."""
        solve, = _gth(self.schedule, self.step_support, self.step_values_at(zeta)[:, None])
        return Pmf(_checked_invariant_raw(solve, f" at command {zeta:g}"))

    def ubar_at(self, zeta: float) -> float:
        """Mean output under the invariant pmf at this command value."""
        return self.pi_at(zeta).mean(self.space.util)

    def h_rate_at(self, zeta: float) -> np.ndarray:
        """Derivative of the design function in the command, d h / d zeta: the
        exact derivative of ``h_at``, so ``h_slopes`` on the grid.  It reads
        ``h_grid`` only and runs no design rule; on a generator family
        (h = zeta * generator) it gives the generator up to rounding."""
        i, t = self._locate(zeta)
        if t is None:
            return self.h_slopes[i].copy()
        chord = 6.0 * t * (1.0 - t) / self.step
        return self._hermite(i, (-chord, chord, (1.0 - t) * (1.0 - 3.0 * t), t * (3.0 * t - 2.0)))

    def pair_rate_at(self, zeta: float) -> np.ndarray:
        """Lifted pair function of the command derivative of the design."""
        return lift_control(self.space, self.h_rate_at(zeta))

    def controllable_kernel_at(self, zeta: float) -> StochasticMatrix:
        """Jump kernel marginalized to the controllable successor coordinate."""
        s = self.jump_kernel_at(zeta).entries
        d, n_exo = self.space.dim, self.space.n_exo
        marg = s.reshape(d, self.space.n_control, n_exo).sum(axis=2)
        return StochasticMatrix(marg)

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        doc = envelope("design-family", kind=self.kind,
                       structure=self.structure.to_json(), space=self.space.to_json(),
                       base=self.base.entries.tolist(), zeta_grid=self.zeta_grid.tolist(),
                       h_grid=self.h_grid.tolist(), synthesis=self.synthesis)
        if self.generator is not None:
            doc["generator"] = self.generator.tolist()
        if self.model_hash is not None:
            doc["model_hash"] = self.model_hash
        return doc

    @classmethod
    def from_json(cls, doc: dict) -> "DesignFamily":
        doc = document(doc, "design-family")
        gen = doc.get("generator")
        return cls(
            space=LoadStateSpace.from_json(doc["space"]),
            base=StochasticMatrix(numbers(doc["base"], 2)),
            kind=doc["kind"],
            structure=FamilyStructure.from_json(doc["structure"]),
            zeta_grid=numbers(doc["zeta_grid"], 1),
            h_grid=numbers(doc["h_grid"], 2),
            generator=None if gen is None else numbers(gen, 1),
            model_hash=field(doc, "model_hash", string, None),
            synthesis=json_object(doc.get("synthesis", {}), "synthesis"),
        )


def save_family(family: DesignFamily, path):
    write_json(path, family.to_json())


def load_family(path) -> DesignFamily:
    with malformed("family document"):
        return DesignFamily.from_json(read_json(path))


def _command_grid(zeta_max: float, step: float) -> np.ndarray:
    """Validated symmetric command grid step * (-n..n) with n * step = zeta_max."""
    if step <= 0.0:
        raise ValidationError("step must be positive")
    if zeta_max < step:
        raise ValidationError("zeta_max must be at least one step")
    ratio = zeta_max / step
    if not 2.0 * ratio + 1.0 < MAX_GRID_POINTS + 0.5:  # an infinite or NaN ratio fails too
        raise ValidationError(f"a command grid to {zeta_max:g} at step {step:g} has "
                              f"{2.0 * ratio + 1.0:.4g} points, more than {MAX_GRID_POINTS}")
    n = int(round(ratio))
    if abs(n * step - zeta_max) > 1e-9 * max(1.0, zeta_max):
        raise ValidationError("zeta_max must be an integer multiple of step")
    return step * np.arange(-n, n + 1)


def _rk4_step(h: np.ndarray, dt: float, rate) -> np.ndarray:
    k1 = rate(h)
    k2 = rate(h + 0.5 * dt * k1)
    k3 = rate(h + 0.5 * dt * k2)
    k4 = rate(h + dt * k3)
    return h + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def solve_design_ode(base: StochasticMatrix, space: LoadStateSpace, kind: str,
                     zeta_max: float, step: float = 0.01,
                     structure: FamilyStructure | None = None,
                     model_hash: str | None = None) -> DesignFamily:
    """Integrate a design rule over commands in [-zeta_max, zeta_max].

    Fourth-order Runge-Kutta with fixed step, run separately forward and
    backward from zero where the design function vanishes.  Every stage
    re-tilts the base at the current design iterate, so the rule is always
    evaluated at the kernel it prescribes.  ``base`` is the jump kernel
    when ``structure`` says sampling is composed, the per-step kernel
    otherwise.  Raises :class:`IntegrationDiverged` (with the last good
    command value attached) if the linear algebra inside the rule breaks
    down partway.
    """
    if kind not in ODE_KINDS:
        raise ValidationError(f"design ODE kind must be one of {ODE_KINDS}")
    zeta_grid = _command_grid(zeta_max, step)
    if structure is None:
        structure = FamilyStructure()
    if not base.is_square or base.dim != space.dim:
        raise ValidationError("base kernel does not match the state space")
    if not check_irreducible_aperiodic(base).irreducible:
        raise NotIrreducible("base kernel is not irreducible")
    if kind == "spd" and space.n_exo > 1:
        warnings.warn(
            "system-perspective design treats all transition randomness as "
            "controllable; with an exogenous coordinate the passivity "
            "guarantee is approximate",
            stacklevel=2,
        )

    def rate(h):
        support = base.nonzeros
        return _design_rate(kind, space, support, _tilt_at_h(support, space, h))

    if kind == "spd":
        # Fail fast (and unwrapped) when the doubled kernel is structurally
        # unusable; reducibility does not change along the family.
        spd_map(base, space.util, anchor=space.anchor)

    n = len(zeta_grid) // 2
    zero = np.zeros(space.dim)
    forward = [zero]
    backward = [zero]
    for sign, branch in ((1.0, forward), (-1.0, backward)):
        h = zero
        for i in range(n):
            try:
                h = _rk4_step(h, sign * step, rate)
                if not np.all(np.isfinite(h)):
                    raise NonFinite("design function became non-finite")
            except (SingularSystem, NonFinite, ZeroMass,
                    np.linalg.LinAlgError, FloatingPointError) as exc:
                reached = sign * i * step
                raise IntegrationDiverged(
                    f"design continuation failed past command {reached:g}: {exc}",
                    zeta_reached=reached,
                ) from exc
            branch.append(h)

    h_grid = np.vstack([backward[n:0:-1], forward])
    return DesignFamily(
        space, base, kind, structure, zeta_grid, h_grid,
        model_hash=model_hash,
        synthesis={"method": "rk4", "step": step, "zeta_max": zeta_max},
    )


def build_exponential_family(base: StochasticMatrix, space: LoadStateSpace,
                             kind: str, zeta_max: float, step: float = 0.01,
                             generator=None,
                             structure: FamilyStructure | None = None,
                             model_hash: str | None = None) -> DesignFamily:
    """Build a fixed-direction family h_zeta = zeta * generator.

    ``kind`` selects the direction: "myopic" uses the output function
    itself, "ipd0" uses the individual-perspective direction frozen at the
    base kernel, and "custom" uses the supplied ``generator``.  These
    families agree with the corresponding ODE families to first order in
    the command but are much cheaper to synthesize.
    """
    if kind not in GENERATOR_KINDS:
        raise ValidationError(f"exponential family kind must be one of {GENERATOR_KINDS}")
    zeta_grid = _command_grid(zeta_max, step)
    if structure is None:
        structure = FamilyStructure()
    if kind == "custom":
        if generator is None:
            raise ValidationError("custom family needs an explicit generator")
        gen = np.asarray(as_values(generator, space.dim), dtype=float).copy()
    elif generator is not None:
        raise ValidationError(f"kind {kind!r} computes its own generator")
    else:
        gen = _zero_direction(kind, base, space)
    h_grid = zeta_grid[:, None] * gen[None, :]
    return DesignFamily(
        space, base, kind, structure, zeta_grid, h_grid, generator=gen,
        model_hash=model_hash,
        synthesis={"method": "exponential", "step": step, "zeta_max": zeta_max},
    )


def geometric_compose(family: DesignFamily, gamma: float) -> DesignFamily:
    """Reinterpret a direct family's kernels as jump kernels under lazy sampling.

    The per-step kernel becomes (1 - gamma) I + gamma S_zeta.  The design
    grid is reused as-is.  The lazy mix keeps each jump kernel's invariant
    pmf, so ``pi_at`` agrees with that of ``family`` up to solve roundoff.
    """
    if family.structure.sampling != "direct":
        raise ValidationError("family is already composed with a sampling rate")
    structure = FamilyStructure(sampling="composed", gamma=gamma)
    return DesignFamily(
        family.space, family.base, family.kind, structure,
        family.zeta_grid, family.h_grid, generator=family.generator,
        model_hash=family.model_hash,
        synthesis=dict(family.synthesis, composed_gamma=gamma),
    )


def reward_value(p: StochasticMatrix, base: StochasticMatrix, util,
                 zeta: float) -> float:
    """Average output payoff at command zeta net of the control divergence.

    zeta * pi_p(util) - K(p | base), with K the Donsker-Varadhan rate of
    ``p`` relative to ``base`` under the invariant pmf of ``p``.
    """
    pi = invariant_pmf(p)
    return float(zeta * pi.mean(util) - relative_entropy_rate(p, base, pi))


def optimality_residual(h, eta: float, zeta: float, base: StochasticMatrix,
                        space: LoadStateSpace) -> float:
    """Worst-state defect of (h, eta) in the command-zeta design optimality equation.

    The candidate pair solves the equation exactly when, for every state,

        zeta * util(x) + Lambda_H(x) - h(x) - eta = 0,

    where Lambda_H is the log normalizer of the tilt by the lift of h.
    Returns the maximum absolute defect over states.
    """
    h = as_values(h, space.dim)
    support = base.nonzeros
    _, _, log_norm = _log_normalizer_raw(support, _lift_on_support(space, support, h))
    defect = zeta * as_values(space.util) + log_norm - h - eta
    return float(np.abs(defect).max())


def family_optimality_residual(family: DesignFamily, zeta: float) -> float:
    """Design optimality defect of an individual-perspective family at one command.

    The payoff level is estimated from the family itself (mean output at
    the command minus the control divergence rate), which is exact at the
    optimizer up to the synthesis discretization error.
    """
    h = family.h_at(zeta)
    jump = family.jump_kernel_at(zeta)
    pi = family.pi_at(zeta)
    eta = zeta * pi.mean(family.space.util) - relative_entropy_rate(
        jump, family.base, pi)
    return optimality_residual(h, eta, zeta, family.base, family.space)


def sampling_rate_profile(family: DesignFamily, zeta: float) -> np.ndarray:
    """Per-state ratio of leave probabilities at command zeta versus zero.

    Diagnostic for how a tilt redistributes update activity across states:
    values above one mean the tilted load leaves that state more often than
    the nominal one.  For composed families the ratio is taken on the jump
    kernel, so multiplying by the sampling rate gives an effective
    per-state rate.
    """
    now = 1.0 - np.diag(family.jump_kernel_at(zeta).entries)
    ref = 1.0 - np.diag(family.jump_kernel_at(0.0).entries)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(ref > 0.0, now / np.where(ref > 0.0, ref, 1.0), np.nan)
    return out
