"""Synthesis of randomized local control policies by exponential tilting.

A fleet of loads shares a nominal transition kernel P0.  Broadcasting a
scalar command ``zeta`` moves every load to a tilted kernel

    P_zeta(x, x') = P0(x, x') * exp(h(x, x') - Lambda_h(x)),

where ``h`` is a pair function chosen by a design rule and ``Lambda_h`` is
the per-row log normalizer.  This module provides the tilt itself, the two
design rules (individual-perspective and system-perspective), the
continuation ODE that integrates either rule over a range of commands, and
a serializable container for the resulting one-parameter kernel family.

States may factor into a controllable coordinate and an exogenous one
(local temperature, for instance).  Design functions are then defined on
the controllable coordinate only and lifted to pair functions that never
steer the exogenous part.
"""

from __future__ import annotations

import hashlib
import json
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
from .fileio import FORMAT_VERSION, read_json, write_json
from .markov import (
    Pmf,
    StateFunction,
    StochasticMatrix,
    _checked_invariant_raw,
    _invariant_raw,
    _poisson_raw,
    _reversal_raw,
    as_values,
    check_irreducible_aperiodic,
    geometric_mix,
    invariant_pmf,
    poisson_solve,
    relative_entropy_rate,
)

__all__ = [
    "LoadStateSpace",
    "NormalizerCache",
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
        doc = {
            "n_control": self.n_control,
            "n_exo": self.n_exo,
            "anchor": self.anchor,
            "util": list(map(float, self.util.values)),
            "util_units": self.util.units,
        }
        if self.exo_kernel is not None:
            doc["exo_kernel"] = [list(map(float, r)) for r in self.exo_kernel.entries]
        return doc

    @classmethod
    def from_json(cls, doc: dict) -> "LoadStateSpace":
        exo = doc.get("exo_kernel")
        return cls(
            n_control=int(doc["n_control"]),
            n_exo=int(doc["n_exo"]),
            util=StateFunction(np.asarray(doc["util"], dtype=float),
                               doc.get("util_units", "")),
            anchor=int(doc.get("anchor", 0)),
            exo_kernel=None if exo is None else StochasticMatrix(np.asarray(exo, dtype=float)),
        )


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
    h = np.asarray(h_control, dtype=float)
    d = space.dim
    if h.shape != (d,):
        raise ValidationError(f"design function has shape {h.shape}, expected ({d},)")
    if space.n_exo == 1:
        return np.broadcast_to(h, (d, d))
    cond = space.exo_kernel.entries @ h.reshape(space.n_control, space.n_exo).T
    return np.repeat(cond, space.n_exo, axis=1)


@dataclass(frozen=True, eq=False)
class NormalizerCache:
    """Per-row log normalizer of a tilt, reusable for residual checks."""

    log_normalizer: StateFunction


def _log_normalizer_raw(base: np.ndarray, support: np.ndarray, pair: np.ndarray):
    """Row-wise log of sum_x' base(x,x') exp(pair(x,x')) plus the shifted weights.

    Returns (weights, row_sums, log_norm) where weights = base * exp(pair - m)
    with m the per-row maximum of pair over the support.  The shift keeps the
    exponentials in [0, 1], so overflow is impossible for finite pair values.
    """
    if not np.all(np.isfinite(pair[support])):
        raise NonFinite("tilt pair function is not finite on the support")
    masked = np.where(support, pair, -np.inf)
    m = masked.max(axis=1)
    weights = base * np.exp(np.where(support, pair - m[:, None], -np.inf))
    rows = weights.sum(axis=1)
    if not np.all(rows > 0.0):
        raise NonFinite("tilt underflowed: a row lost all of its mass")
    return weights, rows, m + np.log(rows)


def _tilt_raw(base: np.ndarray, support: np.ndarray, pair: np.ndarray):
    weights, rows, log_norm = _log_normalizer_raw(base, support, pair)
    tilted = weights / rows[:, None]
    if np.count_nonzero(tilted) != np.count_nonzero(support):
        raise NonFinite("tilt underflowed: support of the tilted kernel shrank")
    return tilted, log_norm


def _tilt_at_h(base: StochasticMatrix, space: LoadStateSpace, h) -> np.ndarray:
    """Entries of ``base`` tilted by the lift of the design function ``h``."""
    tilted, _ = _tilt_raw(base.entries, base.support, lift_control(space, h))
    return tilted


def tilt(base: StochasticMatrix, pair) -> tuple[StochasticMatrix, NormalizerCache]:
    """Exponentially tilt ``base`` by the pair function ``pair``.

    Entries off the support of ``base`` stay zero; entries on it are scaled
    by exp(pair) and each row is renormalized.  Adding a constant to
    ``pair`` leaves the result unchanged.  Returns the tilted kernel and
    the per-row log normalizer.
    """
    pair = np.asarray(pair, dtype=float)
    if pair.shape != base.shape:
        raise ValidationError(f"pair function shape {pair.shape} != {base.shape}")
    tilted, log_norm = _tilt_raw(base.entries, base.support, pair)
    return StochasticMatrix(tilted), NormalizerCache(StateFunction(log_norm))


def ipd_map(p: StochasticMatrix, util, anchor: int = 0) -> StateFunction:
    """Individual-perspective design direction at kernel ``p``.

    The unique solution ``h`` of  h - P h = util - pi(util)  with
    h(anchor) = 0.  Integrating this direction produces, at each command
    value, the policy a single load would choose to maximize its own
    long-run utility net of control effort.
    """
    return poisson_solve(p, util, anchor=anchor)


def spd_map(p: StochasticMatrix, util, anchor: int = 0,
            pi: Pmf | None = None) -> StateFunction:
    """System-perspective design direction at kernel ``p``.

    Solves the same centered equation as :func:`ipd_map` but with the
    doubled kernel  P-dagger P  in place of P, where P-dagger is the time
    reversal of P.  Integrating this direction yields families whose
    small-signal response aggregates passively (no phase surprises for the
    grid operator).  Raises :class:`AdjointProductReducible` when the
    doubled kernel is not irreducible, in which case the centered equation
    has no usable solution.
    """
    f = as_values(util, p.dim)
    if pi is None:
        pi = invariant_pmf(p)
    w = pi.weights
    doubled = _reversal_raw(p.entries, w) @ p.entries
    report = check_irreducible_aperiodic(StochasticMatrix(doubled))
    if not report.irreducible:
        raise AdjointProductReducible(
            "time-reversal product kernel is reducible; "
            "system-perspective design is undefined for this model"
        )
    h = _poisson_raw(doubled, w, f, anchor)
    units = util.units if isinstance(util, StateFunction) else ""
    return StateFunction(h, units)


def _design_rate(kind: str, p_arr: np.ndarray, util: np.ndarray,
                 anchor: int) -> np.ndarray:
    """Unchecked design direction of an ODE kind at kernel ``p_arr``.

    The system-perspective rule is the individual one applied to the
    doubled kernel P-dagger P; both keep the invariant pmf of P.
    """
    pi = _invariant_raw(p_arr)
    if pi.min() <= 0.0:
        raise ZeroMass("invariant pmf lost positivity during continuation")
    if kind == "spd":
        p_arr = _reversal_raw(p_arr, pi) @ p_arr
    return _poisson_raw(p_arr, pi, util, anchor)


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

    ``sampling == "direct"`` means the family kernels are the per-step
    kernels themselves.  ``sampling == "composed"`` means each family
    kernel S is a jump kernel applied only at opportunity epochs, and the
    per-step kernel is (1 - gamma) I + gamma S.
    """

    sampling: str = "direct"
    gamma: float | None = None
    has_exogenous: bool = False

    def __post_init__(self):
        if self.sampling not in ("direct", "composed"):
            raise ValidationError(f"unknown sampling mode {self.sampling!r}")
        if self.sampling == "composed":
            if self.gamma is None or not 0.0 < self.gamma <= 1.0:
                raise ValidationError("composed sampling needs gamma in (0, 1]")
        elif self.gamma is not None:
            raise ValidationError("gamma only applies to composed sampling")

    def to_json(self) -> dict:
        return {"sampling": self.sampling, "gamma": self.gamma,
                "has_exogenous": self.has_exogenous}

    @classmethod
    def from_json(cls, doc: dict) -> "FamilyStructure":
        gamma = doc.get("gamma")
        return cls(sampling=doc["sampling"],
                   gamma=None if gamma is None else float(gamma),
                   has_exogenous=bool(doc.get("has_exogenous", False)))


class DesignFamily:
    """One-parameter family of tilted kernels on a uniform command grid.

    Stores the design function h per grid point and regenerates kernels on
    demand by tilting the stored base; the invariant pmf and mean output
    per point are computed once at construction.  Command values between
    grid points use linear interpolation of h; values beyond the grid ends
    raise :class:`OutOfGrid`.
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
        util_values = as_values(space.util)
        self.trivial = bool(util_values.max() - util_values.min() < 1e-12)

        # Support is constant along the family (tilting preserves it), so a
        # single connectivity check on the per-step kernel at the first grid
        # point covers every command value.
        report = check_irreducible_aperiodic(self.kernel_at(zeta_grid[0]))
        if not report.irreducible:
            raise NotIrreducible("per-step kernel is not irreducible")

        pis = np.empty_like(h_grid)
        ubars = np.empty(len(zeta_grid))
        for i, zeta in enumerate(zeta_grid):
            pis[i] = _checked_invariant_raw(self.kernel_at(zeta).entries,
                                            f" at command {zeta:g}")
            ubars[i] = pis[i] @ util_values
        self.pis = pis
        self.pis.setflags(write=False)
        self.ubars = ubars
        self.ubars.setflags(write=False)

    # -- grid lookup -------------------------------------------------------

    def _locate(self, zeta: float):
        """Map a command value to (index, None) on-grid or (lo, frac) between."""
        g = self.zeta_grid
        lo_edge, hi_edge = g[0], g[-1]
        slack = _GRID_SNAP * self.step
        if zeta < lo_edge - slack or zeta > hi_edge + slack:
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

    def h_at(self, zeta: float) -> np.ndarray:
        """Design function at a command value (linear interpolation off-grid)."""
        i, frac = self._locate(zeta)
        if frac is None:
            return self.h_grid[i].copy()
        return (1.0 - frac) * self.h_grid[i] + frac * self.h_grid[i + 1]

    def pair_at(self, zeta: float) -> np.ndarray:
        """Lifted pair function driving the tilt at this command value."""
        return lift_control(self.space, self.h_at(zeta))

    def _step_kernel(self, jump: StochasticMatrix) -> StochasticMatrix:
        """Per-step kernel run by each load when ``jump`` is the jump kernel."""
        if self.structure.sampling == "composed":
            return geometric_mix(jump, self.structure.gamma)
        return jump

    def jump_kernel_at(self, zeta: float) -> StochasticMatrix:
        """Tilted kernel before any lazy composition."""
        return StochasticMatrix(_tilt_at_h(self.base, self.space, self.h_at(zeta)))

    def kernel_at(self, zeta: float) -> StochasticMatrix:
        """Per-step kernel actually run by each load."""
        return self._step_kernel(self.jump_kernel_at(zeta))

    def pi_at(self, zeta: float) -> Pmf:
        i, frac = self._locate(zeta)
        if frac is None:
            return Pmf(self.pis[i])
        return invariant_pmf(self.kernel_at(zeta))

    def ubar_at(self, zeta: float) -> float:
        i, frac = self._locate(zeta)
        if frac is None:
            return float(self.ubars[i])
        return float(self.pi_at(zeta).mean(self.space.util))

    def h_rate_at(self, zeta: float) -> np.ndarray:
        """Derivative of the design function in the command, d h / d zeta."""
        if self.kind in GENERATOR_KINDS:
            return self.generator.copy()
        return _design_rate(self.kind, self.jump_kernel_at(zeta).entries,
                            as_values(self.space.util), self.space.anchor)

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
        doc = {
            "format_version": FORMAT_VERSION,
            "payload": "design-family",
            "kind": self.kind,
            "structure": self.structure.to_json(),
            "space": self.space.to_json(),
            "base": [list(map(float, r)) for r in self.base.entries],
            "zeta_grid": list(map(float, self.zeta_grid)),
            "h_grid": [list(map(float, r)) for r in self.h_grid],
            "synthesis": self.synthesis,
        }
        if self.generator is not None:
            doc["generator"] = list(map(float, self.generator))
        if self.model_hash is not None:
            doc["model_hash"] = self.model_hash
        return doc

    @classmethod
    def from_json(cls, doc: dict) -> "DesignFamily":
        if doc.get("payload") != "design-family":
            raise ValidationError("not a design family document")
        if int(doc.get("format_version", -1)) != FORMAT_VERSION:
            raise ValidationError(
                f"unsupported format version {doc.get('format_version')!r}"
            )
        gen = doc.get("generator")
        return cls(
            space=LoadStateSpace.from_json(doc["space"]),
            base=StochasticMatrix(np.asarray(doc["base"], dtype=float)),
            kind=doc["kind"],
            structure=FamilyStructure.from_json(doc["structure"]),
            zeta_grid=np.asarray(doc["zeta_grid"], dtype=float),
            h_grid=np.asarray(doc["h_grid"], dtype=float),
            generator=None if gen is None else np.asarray(gen, dtype=float),
            model_hash=doc.get("model_hash"),
            synthesis=doc.get("synthesis"),
        )


def save_family(family: DesignFamily, path):
    write_json(path, family.to_json())


def load_family(path) -> DesignFamily:
    return DesignFamily.from_json(read_json(path))


def _command_grid(zeta_max: float, step: float) -> np.ndarray:
    """Validated symmetric command grid step * (-n..n) with n * step = zeta_max."""
    if step <= 0.0:
        raise ValidationError("step must be positive")
    if zeta_max < step:
        raise ValidationError("zeta_max must be at least one step")
    n = int(round(zeta_max / step))
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
        structure = FamilyStructure(has_exogenous=space.n_exo > 1)
    if not base.is_square or base.dim != space.dim:
        raise ValidationError("base kernel does not match the state space")
    report = check_irreducible_aperiodic(base)
    if not report.irreducible:
        raise NotIrreducible("base kernel is not irreducible")
    if kind == "spd" and space.n_exo > 1:
        warnings.warn(
            "system-perspective design treats all transition randomness as "
            "controllable; with an exogenous coordinate the passivity "
            "guarantee is approximate",
            stacklevel=2,
        )

    util = as_values(space.util, space.dim)

    def rate(h):
        return _design_rate(kind, _tilt_at_h(base, space, h), util, space.anchor)

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
        structure = FamilyStructure(has_exogenous=space.n_exo > 1)
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
    grid is reused as-is; invariant pmfs are recomputed (they coincide with
    the jump kernels' pmfs, which the constructor verifies).
    """
    if family.structure.sampling != "direct":
        raise ValidationError("family is already composed with a sampling rate")
    structure = FamilyStructure(sampling="composed", gamma=gamma,
                                has_exogenous=family.structure.has_exogenous)
    return DesignFamily(
        family.space, family.base, family.kind, structure,
        family.zeta_grid, family.h_grid, generator=family.generator,
        model_hash=family.model_hash,
        synthesis=dict(family.synthesis, composed_gamma=gamma),
    )


def reward_value(p: StochasticMatrix, base: StochasticMatrix, util,
                 zeta: float, pi: Pmf | None = None) -> float:
    """Average output payoff at command zeta net of the control divergence.

    zeta * pi_p(util) - K(p | base), with K the Donsker-Varadhan rate of
    ``p`` relative to ``base`` under the invariant pmf of ``p``.
    """
    if pi is None:
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
    pair = lift_control(space, h)
    _, _, log_norm = _log_normalizer_raw(base.entries, base.support, pair)
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
    i, frac = family._locate(zeta)
    pi = Pmf(family.pis[i]) if frac is None else invariant_pmf(jump)
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


def model_digest(doc: dict) -> str:
    """Stable content hash for a serialized model document."""
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()
