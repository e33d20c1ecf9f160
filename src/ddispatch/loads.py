"""Concrete load fleets: pool pumps on a sojourn ladder, cooling units on a
temperature lattice.

Both models produce a jump kernel S0 (applied at sampling opportunities), a
per-step kernel P0 = (1 - gamma) I + gamma S0, a power function, and the
state bookkeeping needed by the design layer.  The cooling model factors
each state into a controllable mode and an exogenous temperature cell; the
temperature kernel is estimated by Monte Carlo from the thermal recursion.
"""

from __future__ import annotations

import math
from dataclasses import asdict, field

import numpy as np

from .design import FamilyStructure, LoadStateSpace
from .errors import InfeasibleDutyCycle, LatticeMismatch, ValidationError
from .fileio import (document, envelope, finite, json_object, malformed,
                     model_digest, numbers, read_json, spec_from_json, write_csv,
                     write_json)
from .markov import (StateFunction, StochasticMatrix, _record, geometric_mix,
                     invariant_pmf)

__all__ = [
    "PoolModelSpec",
    "TclModelSpec",
    "NatureKernel",
    "LoadModel",
    "TclTrajectory",
    "fit_sojourn_hazard",
    "build_pool_model",
    "thermal_decay",
    "drift_per_step",
    "tcl_switch_curves",
    "estimate_q0",
    "build_tcl_model",
    "deterministic_cycle_steps",
    "tcl_trajectory",
    "trajectory_to_csv",
    "synthesis_inputs",
    "save_model",
    "load_model",
]

#: fewest Monte Carlo samples per origin state ``estimate_q0`` accepts
MIN_SAMPLES_PER_STATE = 1000

#: most samples per origin state: one state's draws take ~50 bytes a sample
#: (epoch lengths, noise, landings, cells), so 0.5 GB at this maximum
MAX_SAMPLES_PER_STATE = 10**7


# -- pool pumps ------------------------------------------------------------


@_record(eq=True)
class PoolModelSpec:
    """Pool pump fleet parameters.

    Each pump is either running or idle and tracks how many sampling epochs
    it has spent in its current phase (the ladder rung, 1..rungs).  The
    cleaning requirement is ``cycle_hours`` of running time per day.
    """

    rungs: int = 48
    cycle_hours: float = 12.0
    gamma: float = 1.0 / 6.0
    slot_minutes: float = 5.0
    power_kw: float = 1.0
    hazard_shape: float = 2.0

    def __post_init__(self):
        if self.rungs < 2:
            raise ValidationError("need at least two ladder rungs per phase")
        if not 0.0 < self.cycle_hours < 24.0:
            raise ValidationError("cycle_hours must be inside (0, 24)")
        if not 0.0 < self.gamma <= 1.0:
            raise ValidationError("gamma must be in (0, 1]")
        if self.slot_minutes <= 0.0 or self.power_kw < 0.0:
            raise ValidationError("slot_minutes must be positive, power nonnegative")
        if self.hazard_shape <= 0.0:
            raise ValidationError("hazard_shape must be positive")

    to_json = asdict
    from_json = classmethod(spec_from_json)


def _sojourn_cdf(distance: np.ndarray, sigma: float, shape: float) -> np.ndarray:
    """CDF of the shape/scale sojourn law by distance to the forced switch
    (a lattice cell that rounds past its band edge is at distance 0)."""
    return np.exp(-(np.maximum(distance, 0.0) ** shape) / (2.0 * sigma ** shape))


def _hazard(cdf: np.ndarray) -> np.ndarray:
    """Discrete hazards of a CDF over steps 1..n: P(switch now | not yet),
    1 from the step after the CDF reaches 1, where nothing is left."""
    survival = 1.0 - cdf[:-1]
    hazard = np.ones(len(cdf))
    hazard[0] = cdf[0]
    np.divide(cdf[1:] - cdf[:-1], survival, out=hazard[1:], where=survival > 0.0)
    return hazard


def _mean_sojourn(cdf: np.ndarray) -> float:
    return 1.0 + float((1.0 - cdf[:-1]).sum())


def fit_sojourn_hazard(rungs: int, target_steps: float,
                       shape: float = 2.0) -> tuple[float, np.ndarray]:
    """Fit per-rung switch probabilities whose mean sojourn hits a target.

    The sojourn CDF comes from a two-parameter family; the shape is held
    fixed and the scale found by bisection (the mean is strictly decreasing
    in the scale, from ``rungs`` down to 1).  Returns the fitted scale and
    the rung-indexed switch probabilities; the last entry is exactly 1
    (forced switch at the top of the ladder), and a fit that makes the
    switch certain lower down is refused as :class:`InfeasibleDutyCycle`.
    """
    if not 1.0 < target_steps < float(rungs):
        raise InfeasibleDutyCycle(
            f"mean sojourn of {target_steps:g} epochs not reachable with "
            f"{rungs} rungs (must lie strictly between 1 and {rungs})"
        )
    distance = (rungs - np.arange(1, rungs + 1, dtype=float)) / rungs
    # bisect log10 of the scale until the bracket stops changing: it only
    # shrinks and floats are finite, and every later step would repeat it
    bracket, last = (-8.0, 8.0), None
    while bracket != last:
        (lo, hi), last = bracket, bracket
        mid = 0.5 * (lo + hi)
        mean = _mean_sojourn(_sojourn_cdf(distance, 10.0 ** mid, shape))
        bracket = (mid, hi) if mean > target_steps else (lo, mid)
    sigma = 10.0 ** (0.5 * (lo + hi))
    cdf = _sojourn_cdf(distance, sigma, shape)
    if abs(_mean_sojourn(cdf) - target_steps) > 1e-6 * max(1.0, target_steps):
        raise InfeasibleDutyCycle("sojourn fit did not converge")
    hazard = _hazard(cdf)
    rung = int(np.argmax(hazard == 1.0)) + 1    # the first certain switch
    if rung < rungs:
        raise InfeasibleDutyCycle(f"hazard_shape {shape:g} makes the switch certain at "
                                  f"rung {rung} of {rungs}: the rungs above it are unreachable")
    return sigma, hazard


@_record
class NatureKernel:
    """Exogenous-coordinate kernel with its estimation provenance."""

    kernel: StochasticMatrix
    provenance: dict = field(default_factory=lambda: {"method": "analytic"})


@_record
class LoadModel:
    """A built load fleet: jump kernel, sampling rate, and state bookkeeping.

    ``s0`` acts at sampling opportunities; the per-step kernel is the lazy
    mix ``p0``.  For factorized models the space carries the temperature
    kernel.
    """

    kind: str
    spec_doc: dict
    space: LoadStateSpace
    s0: StochasticMatrix
    gamma: float
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        if not 0.0 < self.gamma <= 1.0:
            raise ValidationError("gamma must be in (0, 1]")
        if self.s0.shape != (self.space.dim, self.space.dim):
            raise ValidationError("jump kernel does not match the state space")
        object.__setattr__(self, "p0", geometric_mix(self.s0, self.gamma))

    @property
    def dim(self) -> int:
        return self.space.dim

    def to_json(self) -> dict:
        return envelope("load-model", kind=self.kind, spec=self.spec_doc,
                        gamma=self.gamma, space=self.space.to_json(),
                        s0=self.s0.entries.tolist(), diagnostics=self.diagnostics)

    @property
    def digest(self) -> str:
        return model_digest(self.to_json())

    @classmethod
    def from_json(cls, doc: dict) -> "LoadModel":
        doc = document(doc, "load-model")
        return cls(
            kind=doc["kind"],
            spec_doc=json_object(doc["spec"], "spec"),
            space=LoadStateSpace.from_json(doc["space"]),
            s0=StochasticMatrix(numbers(doc["s0"], 2)),
            gamma=finite(doc["gamma"]),
            diagnostics=json_object(doc.get("diagnostics", {}), "diagnostics"),
        )


def save_model(model: LoadModel, path):
    write_json(path, model.to_json())


def load_model(path) -> LoadModel:
    with malformed("model document"):
        return LoadModel.from_json(read_json(path))


def synthesis_inputs(model: LoadModel, route: str):
    """Base kernel and family structure for a synthesis route.

    ``"compose"`` designs on the jump kernel and rebuilds the per-step
    kernel as a lazy mix; ``"direct"`` designs on the per-step kernel
    itself, treating the sampling mechanism as part of the nominal model.
    """
    if route == "compose":
        return model.s0, FamilyStructure(sampling="composed", gamma=model.gamma)
    if route == "direct":
        return model.p0, FamilyStructure(sampling="direct")
    raise ValidationError(f"unknown synthesis route {route!r}")


def build_pool_model(spec: PoolModelSpec) -> LoadModel:
    """Assemble the pool pump ladder model.

    States are (phase, rung) with the idle phase first: flat index
    m * rungs + (rung - 1), m = 0 idle, m = 1 running.  From (idle, k) the
    pump either advances to (idle, k+1) or starts at (running, 1) with the
    fitted switch probability; at the top rung the switch is forced; the
    running phase mirrors this.  Power draw is ``power_kw`` in the running
    phase.  Switch probabilities are fitted so the mean running stretch is
    ``cycle_hours`` per day and the idle stretch the complement.
    """
    n = spec.rungs
    epoch_minutes = spec.slot_minutes / spec.gamma
    on_target = spec.cycle_hours * 60.0 / epoch_minutes
    off_target = (24.0 - spec.cycle_hours) * 60.0 / epoch_minutes
    sigma_off, start_hazard = fit_sojourn_hazard(n, off_target, spec.hazard_shape)
    sigma_on, stop_hazard = fit_sojourn_hazard(n, on_target, spec.hazard_shape)

    s0 = np.zeros((2 * n, 2 * n))
    for k in range(n):
        off, on = k, n + k
        if k + 1 < n:
            s0[off, off + 1] = 1.0 - start_hazard[k]
            s0[on, on + 1] = 1.0 - stop_hazard[k]
        s0[off, n] = start_hazard[k]      # begin running at rung 1
        s0[on, 0] = stop_hazard[k]        # go idle at rung 1
    s0[n - 1, n] = 1.0
    s0[2 * n - 1, 0] = 1.0

    util = np.zeros(2 * n)
    util[n:] = spec.power_kw
    space = LoadStateSpace(n_control=2 * n, n_exo=1,
                           util=StateFunction(util, units="kW"), anchor=0)
    jump = StochasticMatrix(s0)
    pi = invariant_pmf(geometric_mix(jump, spec.gamma))
    duty = float(pi.weights[n:].sum())
    diagnostics = {
        "sigma_on": sigma_on, "sigma_off": sigma_off,
        "on_target_epochs": on_target, "off_target_epochs": off_target,
        "epoch_minutes": epoch_minutes, "duty_cycle": duty,
    }
    return LoadModel(kind="pool", spec_doc=spec.to_json(), space=space,
                     s0=jump, gamma=spec.gamma, diagnostics=diagnostics)


# -- cooling units ---------------------------------------------------------


@_record(eq=True)
class TclModelSpec:
    """Thermostatic cooling unit parameters.

    Temperature lives on a lattice of ``state_count / 2`` cells spanning the
    comfort band; the other factor of the state is the compressor mode.
    ``resistance`` (deg C per kW) and ``capacitance`` (kWh per deg C) set
    the thermal time constant; ``power_kw`` is the electrical draw when
    running.  ``sigma``/``rho`` shape the switch-probability curves.
    """

    theta_set: float = 20.0
    band_low: float = 19.5
    band_high: float = 20.5
    theta_a: float = 32.0
    resistance: float = 2.0
    capacitance: float = 2.0
    power_kw: float = 14.0
    state_count: int = 42
    lattice_step: float = 0.05
    sigma: float = 0.02
    rho: float = 0.75
    sample_period_s: float = 2.0
    noise_var: float = 1e-6
    gamma: float = 1.0 / 3.0
    broadcast_period_s: float = 20.0

    def __post_init__(self):
        if self.state_count % 2 != 0 or self.state_count < 4:
            raise LatticeMismatch("state_count must be an even integer >= 4")
        if not self.band_low < self.band_high:
            raise ValidationError("comfort band is empty")
        if not self.band_low <= self.theta_set <= self.band_high:
            raise ValidationError("setpoint outside the comfort band")
        cells = self.state_count // 2
        implied = (self.band_high - self.band_low) / (cells - 1)
        if abs(implied - self.lattice_step) > 1e-9:
            raise LatticeMismatch(
                f"lattice step {self.lattice_step:g} inconsistent with "
                f"{cells} cells over [{self.band_low:g}, {self.band_high:g}] "
                f"(implies {implied:g})"
            )
        if self.resistance <= 0.0 or self.capacitance <= 0.0:
            raise ValidationError("thermal parameters must be positive")
        if self.power_kw < 0.0 or self.noise_var < 0.0:
            raise ValidationError("power and noise variance must be nonnegative")
        if not 0.0 < self.gamma <= 1.0:
            raise ValidationError("gamma must be in (0, 1]")
        if self.sigma <= 0.0 or self.rho <= 0.0:
            raise ValidationError("switch-curve parameters must be positive")
        if self.sample_period_s <= 0.0 or self.broadcast_period_s <= 0.0:
            raise ValidationError("periods must be positive")
        ratio = self.broadcast_period_s / self.sample_period_s
        if not math.isfinite(ratio) or not math.isclose(ratio, self.broadcast_steps):
            raise ValidationError(
                f"broadcast_period_s {self.broadcast_period_s:g} is not a whole number "
                f"of sample_period_s {self.sample_period_s:g}")
        if self.theta_a <= self.band_high:
            raise ValidationError("ambient must sit above the comfort band")

    @property
    def cells(self) -> int:
        return self.state_count // 2

    @property
    def lattice(self) -> np.ndarray:
        return self.band_low + self.lattice_step * np.arange(self.cells)

    @property
    def broadcast_steps(self) -> int:
        """Sample steps per broadcast period, a whole number."""
        return round(self.broadcast_period_s / self.sample_period_s)

    to_json = asdict
    from_json = classmethod(spec_from_json)


def thermal_decay(spec: TclModelSpec, period_s: float | None = None) -> float:
    """Per-step retention factor exp(-period / (R C)) of the thermal mass."""
    if period_s is None:
        period_s = spec.broadcast_period_s
    tau_s = spec.resistance * spec.capacitance * 3600.0
    return math.exp(-period_s / tau_s)


def drift_per_step(spec: TclModelSpec,
                   period_s: float | None = None) -> tuple[float, float]:
    """Constant-drift magnitudes over one step of the given period.

    Returns (fall_when_on, rise_when_off), both nonnegative, equal to the
    one-step displacement of the exact thermal recursion at the setpoint.
    Defaults to the fine sample period.
    """
    if period_s is None:
        period_s = spec.sample_period_s
    retain = thermal_decay(spec, period_s)
    floor = spec.theta_a - spec.resistance * spec.power_kw
    fall_on = (1.0 - retain) * (spec.theta_set - floor)
    rise_off = (1.0 - retain) * (spec.theta_a - spec.theta_set)
    if fall_on < 0.0:
        raise ValidationError("unit cannot cool: running floor above setpoint")
    return fall_on, rise_off


def tcl_switch_curves(spec: TclModelSpec) -> tuple[np.ndarray, np.ndarray]:
    """Per-cell switch probabilities of the nominal mode policy.

    An idle unit warms toward the top of the band; its chance of starting
    rises along the way and hits 1 at the top cell.  A running unit cools
    toward the bottom; its chance of stopping mirrors that and hits 1 at
    the bottom cell.  Interior values are discrete hazards of the pool's
    sojourn law by distance to the band edge (a running unit meets the
    cells in reverse), so the switching temperature has exactly that law.
    """
    grid = spec.lattice
    start = _hazard(_sojourn_cdf(spec.band_high - grid, spec.sigma, spec.rho))
    stop_cdf = _sojourn_cdf(grid - spec.band_low, spec.sigma, spec.rho)
    return start, _hazard(stop_cdf[::-1])[::-1]


def _mode_policy(spec: TclModelSpec) -> np.ndarray:
    """Rectangular (states x modes) nominal policy matrix."""
    start, stop = tcl_switch_curves(spec)
    n = spec.cells
    r0 = np.empty((2 * n, 2))
    r0[:n, 0] = 1.0 - start     # idle stays idle
    r0[:n, 1] = start
    r0[n:, 0] = stop            # running goes idle
    r0[n:, 1] = 1.0 - stop
    return r0


def estimate_q0(spec: TclModelSpec, samples_per_state: int = 20000,
                seed: int = 0) -> NatureKernel:
    """Monte-Carlo estimate of the temperature-cell kernel over one epoch.

    For each (mode, cell) origin the mode is held fixed for one whole
    sampling epoch, a geometric number of broadcast periods.  The landing
    temperature is the cell center plus epoch-length times the
    per-broadcast-period drift, plus the summed fine-step noise drawn as a
    single Gaussian with the exact variance of the sum (steps-per-period
    times length times noise_var).  Landings are clamped to the band and
    binned to the nearest cell.  Each origin state gets an independent
    child stream of the master seed, so results are deterministic and
    independent of evaluation order.
    """
    if not MIN_SAMPLES_PER_STATE <= samples_per_state <= MAX_SAMPLES_PER_STATE:
        raise ValidationError(f"need {MIN_SAMPLES_PER_STATE} to {MAX_SAMPLES_PER_STATE} "
                              "samples per state")
    fall_on, rise_off = drift_per_step(spec, spec.broadcast_period_s)
    grid = spec.lattice
    n = spec.cells
    children = np.random.SeedSequence(seed).spawn(2 * n)
    rows = np.empty((2 * n, n))
    for x in range(2 * n):
        rng = np.random.default_rng(children[x])
        mode = x // n
        center = grid[x % n]
        drift = -fall_on if mode == 1 else rise_off
        length = rng.geometric(spec.gamma, size=samples_per_state)
        landing = center + length * drift
        if spec.noise_var > 0.0:
            landing = landing + rng.normal(
                0.0, 1.0, size=samples_per_state) * np.sqrt(
                    length * spec.broadcast_steps * spec.noise_var)
        cells = np.clip(np.rint((landing - spec.band_low) / spec.lattice_step),
                        0, n - 1).astype(int)
        rows[x] = np.bincount(cells, minlength=n) / samples_per_state
    return NatureKernel(
        kernel=StochasticMatrix(rows),
        provenance={"method": "monte_carlo", "samples": samples_per_state,
                    "seed": seed},
    )


def build_tcl_model(spec: TclModelSpec, samples_per_state: int = 20000,
                    seed: int = 0) -> LoadModel:
    """Assemble the cooling-unit model on the mode x temperature lattice.

    Flat states are mode-major: x = mode * cells + cell, mode 0 idle,
    mode 1 running.  The jump kernel factors exactly as policy times
    temperature kernel: S0(x, (m', c')) = R0(x, m') Q0(x, c').
    """
    exact_on, exact_off = deterministic_cycle_steps(spec, "exact")
    drift_on, drift_off = deterministic_cycle_steps(spec, "drift")
    q0 = estimate_q0(spec, samples_per_state=samples_per_state, seed=seed)
    r0 = _mode_policy(spec)
    n = spec.cells
    d = 2 * n
    s0 = np.empty((d, d))
    for m in range(2):
        s0[:, m * n:(m + 1) * n] = r0[:, [m]] * q0.kernel.entries
    util = np.zeros(d)
    util[n:] = spec.power_kw
    space = LoadStateSpace(n_control=2, n_exo=n,
                           util=StateFunction(util, units="kW"),
                           anchor=0, exo_kernel=q0.kernel)
    fall_on, rise_off = drift_per_step(spec)
    diagnostics = {
        "retain_sample": thermal_decay(spec, spec.sample_period_s),
        "retain_broadcast": thermal_decay(spec),
        "fall_on": fall_on, "rise_off": rise_off,
        "cycle_steps_exact": [exact_on, exact_off],
        "cycle_steps_drift": [drift_on, drift_off],
        "q0_provenance": q0.provenance,
    }
    return LoadModel(kind="tcl", spec_doc=spec.to_json(), space=space,
                     s0=StochasticMatrix(s0), gamma=spec.gamma,
                     diagnostics=diagnostics)


def deterministic_cycle_steps(spec: TclModelSpec, model: str) -> tuple[int, int]:
    """Steps to cross the band downward (running) and upward (idle).

    ``model`` selects the exact exponential recursion or its constant-drift
    surrogate; no noise, pure threshold switching at the band edges.  Each
    leg is solved in closed form and takes at least one step.  The exact
    recursion sits at pull + (start - pull) r^k after k steps, with r from
    :func:`thermal_decay` over one sample, so a leg takes
    ceil(ln((target - pull) / (start - pull)) / ln r) steps, the log taken
    by ``log1p``; pull is the running floor ``theta_a - resistance *
    power_kw`` on the running leg and ``theta_a`` on the idle leg.  A drift
    leg takes ceil((band_high - band_low) / drift) steps, with the drifts of
    :func:`drift_per_step`.  Refused: a running floor at or above
    ``band_low``, which the exact recursion only approaches, and an r that
    rounds to 1, where no sample moves the unit.
    """
    if model not in ("exact", "drift"):
        raise ValidationError("model must be 'exact' or 'drift'")
    retain = thermal_decay(spec, spec.sample_period_s)
    fall_on, rise_off = drift_per_step(spec)
    floor = spec.theta_a - spec.resistance * spec.power_kw
    if floor >= spec.band_low:
        raise ValidationError(f"running floor {floor:g} is not below the comfort band "
                              f"[{spec.band_low:g}, {spec.band_high:g}]")
    if retain == 1.0:
        raise ValidationError("thermal time constant too long: a sample moves nothing")
    width = spec.band_high - spec.band_low
    if model == "drift":
        steps = (width / fall_on, width / rise_off)
    else:
        ln_r = math.log(retain) if retain > 0.0 else -math.inf
        steps = (math.log1p(-width / (spec.band_high - floor)) / ln_r,
                 math.log1p(-width / (spec.theta_a - spec.band_low)) / ln_r)
    return max(1, math.ceil(steps[0])), max(1, math.ceil(steps[1]))


@_record
class TclTrajectory:
    """One unit's simulated path: per-step temperature, mode, and command."""

    times_s: np.ndarray
    theta: np.ndarray
    mode: np.ndarray
    zeta: np.ndarray
    opportunity: np.ndarray
    override: np.ndarray

    @property
    def epoch_count(self) -> int:
        return int(self.opportunity.sum())

    @property
    def override_count(self) -> int:
        return int(self.override.sum())

    @property
    def override_rate(self) -> float:
        return self.override_count / max(self.epoch_count, 1)


def tcl_trajectory(spec: TclModelSpec, steps: int, seed: int = 0,
                   family=None, zeta=0.0) -> TclTrajectory:
    """Simulate one cooling unit at the sample period.

    Temperature follows the constant-drift recursion with per-step Gaussian
    noise.  Mode updates happen only on broadcast boundaries (every
    broadcast period of fine steps) and then only with probability gamma,
    matching the epoch law the nature kernel is estimated under; at such an
    opportunity the mode is redrawn from the family's mode policy at the
    current command.  Without a family the unit is a plain thermostat that
    only switches at the band edges.  Whenever the temperature exits the
    band the mode is forced (run when too hot, idle when too cold); with a
    family in charge the forced switch overrules the drawn mode and is
    counted as an override, while for the plain thermostat it is just the
    normal switching law.
    """
    if steps < 1:
        raise ValidationError("steps must be positive")
    if family is not None and (family.space.n_control, family.space.n_exo) != (2, spec.cells):
        raise LatticeMismatch("family does not fit the cooling-unit lattice")
    fall_on, rise_off = drift_per_step(spec)
    noise_std = math.sqrt(spec.noise_var)
    zeta_arr = np.broadcast_to(np.asarray(zeta, dtype=float), (steps,))
    rng = np.random.default_rng(seed)
    n = spec.cells
    period_steps = spec.broadcast_steps

    policy_cache: dict[float, np.ndarray] = {}

    def start_prob(z: float, x: int) -> np.ndarray:
        rows = policy_cache.get(z)
        if rows is None:
            rows = family.controllable_kernel_at(z).entries
            policy_cache[z] = rows
        return rows[x]

    theta = np.empty(steps)
    mode = np.empty(steps, dtype=int)
    opportunity = np.zeros(steps, dtype=bool)
    override = np.zeros(steps, dtype=bool)
    cur_theta = spec.theta_set
    cur_mode = 0
    for t in range(steps):
        drift = -fall_on if cur_mode == 1 else rise_off
        cur_theta = cur_theta + drift
        if noise_std > 0.0:
            cur_theta += rng.normal(0.0, noise_std)
        on_boundary = (t + 1) % period_steps == 0
        if family is not None and on_boundary and rng.random() < spec.gamma:
            opportunity[t] = True
            cell = min(max(int(round((cur_theta - spec.band_low)
                                     / spec.lattice_step)), 0), n - 1)
            row = start_prob(float(zeta_arr[t]), cur_mode * n + cell)
            cur_mode = int(rng.random() < row[1])
        if cur_theta > spec.band_high and cur_mode == 0:
            cur_mode = 1
            override[t] = family is not None
        elif cur_theta < spec.band_low and cur_mode == 1:
            cur_mode = 0
            override[t] = family is not None
        theta[t] = cur_theta
        mode[t] = cur_mode
    times = spec.sample_period_s * np.arange(1, steps + 1)
    return TclTrajectory(times_s=times, theta=theta, mode=mode,
                         zeta=zeta_arr.copy(), opportunity=opportunity,
                         override=override)


def trajectory_to_csv(traj: TclTrajectory, path=None) -> str:
    """The trajectory as CSV, one row per step; written to ``path`` if given."""
    return write_csv(path, ["time_s", "theta_c", "mode", "zeta"],
                     [traj.times_s, traj.theta, traj.mode, traj.zeta],
                     ["%.6g", "%.8g", "%d", "%.8g"])
