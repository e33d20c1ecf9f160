"""Closed-loop simulation: distribution flow, finite fleets, reference
tracking, and causal frequency decomposition of reference signals.

Both plants step on one per-step kernel, read once a step on its nonzeros
by ``family.step_values_at``: the distribution recursion pushes a pmf
through it, O(nnz) a step, and a fleet of N independent agents, held as
its occupancy counts (themselves a Markov chain), draws one multinomial per
row of it, laid out in the row table the family keeps
(``family.row_layout``), O(nnz) whatever N.  Neither plant builds a d x d kernel, no fleet
array grows with N, and this module keeps no state between calls.  The
tracking harness wraps either plant in a simple saturated controller whose
default gains come from the DC gain of the command-to-power linearization.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import BadCutoffs, ValidationError
from .fileio import field, read_csv, write_csv
from .linearize import dc_gain, linearize
from .markov import Pmf, _record, as_values

__all__ = [
    "SignalSet",
    "FleetState",
    "TrackingConfig",
    "meanfield_step",
    "meanfield_rollout",
    "fleet_init",
    "fleet_step",
    "fleet_rollout",
    "track",
    "tracking_metrics",
    "frequency_decompose",
]


# -- signal containers -----------------------------------------------------


@_record
class SignalSet:
    """Named, equal-length sampled signals sharing one sample period."""

    period_s: float
    samples: dict

    def __post_init__(self):
        if not 0.0 < self.period_s < math.inf:
            raise ValidationError("period_s must be positive and finite")
        if not self.samples:
            raise ValidationError("need at least one signal")
        clean = {}
        length = None
        for name, values in self.samples.items():
            arr = np.asarray(values, dtype=float)
            if arr.ndim != 1 or arr.size < 1:
                raise ValidationError(f"signal {name!r} is not a 1-d sequence")
            if length is None:
                length = arr.size
            elif arr.size != length:
                raise ValidationError(
                    f"signal {name!r} has length {arr.size}, expected {length}"
                )
            arr = arr.copy()
            arr.setflags(write=False)
            clean[str(name)] = arr
        object.__setattr__(self, "samples", clean)

    @property
    def length(self) -> int:
        return next(iter(self.samples.values())).size

    @property
    def times_s(self) -> np.ndarray:
        return self.period_s * np.arange(self.length)

    def __getitem__(self, name: str) -> np.ndarray:
        return self.samples[name]

    def to_csv(self, path=None) -> str:
        """The signals as exact (``%.17g``) CSV; written to ``path`` if given."""
        names = list(self.samples)
        return write_csv(path, ["t_s", *names],
                         [self.times_s, *self.samples.values()],
                         ["%.17g"] * (len(names) + 1),
                         preamble={"period_s": self.period_s})

    @classmethod
    def from_csv(cls, text: str) -> "SignalSet":
        """Parse :meth:`to_csv` text; every cell must be a finite number.
        Without a ``period_s`` line the period is the first time step."""
        preamble, header, data = read_csv(text)
        if header[0] != "t_s" or len(header) < 2:
            raise ValidationError("expected a 't_s,<signals>' header")
        period = field(preamble, "period_s", float, None)
        if period is None:
            if len(data) < 2:
                raise ValidationError("cannot infer the sample period")
            period = float(data[1, 0] - data[0, 0])
        samples = {name: data[:, j + 1] for j, name in enumerate(header[1:])}
        return cls(period_s=period, samples=samples)


# -- distribution flow -----------------------------------------------------


def meanfield_step(mu: Pmf, zeta: float, family) -> tuple[Pmf, float]:
    """One step of the distribution recursion at a fixed command.

    mu P for the per-step kernel P: mu is pushed through the nonzeros of P
    that ``family.step_values_at`` gives, the values a fleet step draws
    from, in O(nnz) and with no d x d kernel built.  Returns the propagated
    pmf and the average power it assigns.  The unit sum is restored each
    step so roundoff cannot accumulate over long runs.
    """
    d = family.space.dim
    if mu.dim != d:
        raise ValidationError(f"pmf has {mu.dim} states, expected {d}")
    support = family.step_support
    flow = mu.weights[support.rows] * family.step_values_at(zeta)
    w = np.bincount(support.cols, weights=flow, minlength=d)
    w = w / w.sum()
    return Pmf(w), float(w @ as_values(family.space.util, d))


def meanfield_rollout(family, zetas, mu0: Pmf | None = None):
    """Propagate the distribution through a command sequence.

    Starts from the nominal invariant pmf unless told otherwise.  Returns
    the per-step average power (evaluated after each transition) and the
    final pmf.
    """
    zetas = np.atleast_1d(np.asarray(zetas, dtype=float))
    mu = family.pi_at(0.0) if mu0 is None else mu0
    y = np.empty(zetas.size)
    for t, z in enumerate(zetas):
        mu, y[t] = meanfield_step(mu, float(z), family)
    return y, mu


# -- finite fleets ---------------------------------------------------------

#: most agents a fleet holds.  A step's time and memory do not grow with N
#: (it draws one multinomial per row of the per-step kernel), so this bounds
#: no allocation; it keeps N within the sizes the tests run (up to 10^6) and
#: every count exact in the float64 sums that scatter a step's draws
MAX_FLEET_SIZE = 10**7


@_record
class FleetState:
    """N exchangeable agents, held as the number of agents in each state.

    The counts must be nonnegative whole numbers summing to between 1 and
    ``MAX_FLEET_SIZE``; a step checks that there is one count per state.
    """

    counts: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.counts)
        if arr.ndim != 1 or arr.size < 1:
            raise ValidationError("need a 1-d vector of state counts")
        if arr.dtype.kind not in "iuf":
            raise ValidationError(f"state counts must be numbers, got {arr.dtype}")
        with np.errstate(invalid="ignore"):
            counts = arr.astype(np.int64)
        if not np.array_equal(counts, arr):
            raise ValidationError("state counts must be whole numbers")
        if counts.min() < 0:
            raise ValidationError(f"state counts must be nonnegative, got {counts.min()}")
        if not 1 <= counts.sum() <= MAX_FLEET_SIZE:
            raise ValidationError(
                f"fleet size must lie in [1, {MAX_FLEET_SIZE}], got {counts.sum()}")
        counts.setflags(write=False)
        object.__setattr__(self, "counts", counts)

    @classmethod
    def from_states(cls, states, dim: int) -> "FleetState":
        """The fleet of agents in the given states of a ``dim``-state space."""
        arr = np.asarray(states, dtype=np.int64)
        if arr.ndim != 1 or arr.size < 1:
            raise ValidationError("need a 1-d vector of agent states")
        lo, hi = arr.min(), arr.max()
        if lo < 0 or hi >= dim:
            raise ValidationError(f"agent states must lie in [0, {dim}), got {lo}..{hi}")
        return cls(np.bincount(arr, minlength=dim))

    @property
    def n(self) -> int:
        return int(self.counts.sum())


def fleet_init(family, n: int, seed: int, mu0: Pmf | None = None):
    """Draw n agents i.i.d. from mu0 (default: the nominal invariant pmf) as
    one multinomial on its support, and return the stream for stepping."""
    if not 1 <= n <= MAX_FLEET_SIZE:
        raise ValidationError(f"fleet size must lie in [1, {MAX_FLEET_SIZE}], got {n}")
    mu = family.pi_at(0.0) if mu0 is None else mu0
    rng = np.random.default_rng(seed)
    support = np.flatnonzero(mu.weights > 0.0)
    counts = np.zeros(mu.dim, dtype=np.int64)
    counts[support] = rng.multinomial(n, np.minimum(mu.weights[support], 1.0))
    return FleetState(counts), rng


def fleet_step(state: FleetState, zeta: float, family, rng) -> tuple[FleetState, float]:
    """Advance every agent one step through its kernel row.

    The agents are exchangeable, so the counts are a Markov chain: the
    agents in state x move as one multinomial draw of their number over
    row x of the per-step kernel, read on ``family.step_support``.  The
    values ``family.step_values_at`` gives are laid out in the family's row
    table (``family.row_layout``) and every row's count is drawn by one
    ``rng.multinomial`` call.  numpy takes a row's last entry as one minus
    the others, which the right-aligned layout makes the row's last
    nonzero: the dust of a row sum off one lands there, never off the
    support, and the others sum to at most one (numpy refuses more).
    Values are capped at one, which a self-loop can exceed by an ulp.  The
    draws are then summed into their columns.  A step costs O(nnz) and
    allocates nothing that grows with N, and the result is bitwise
    reproducible for a given stream; ``state`` is left as it is.  Returns
    the new fleet and its average power.
    """
    d, counts = family.space.dim, state.counts
    if counts.size != d:
        raise ValidationError(f"fleet has {counts.size} state counts, expected {d}")
    layout = family.row_layout
    table = np.zeros(layout.columns.size)
    table[layout.slots] = family.step_values_at(zeta)
    np.minimum(table, 1.0, out=table)
    moved = rng.multinomial(counts, table.reshape(-1, layout.width))
    arrived = np.bincount(layout.columns, weights=moved.ravel(), minlength=d)
    out = FleetState(arrived.astype(np.int64))
    return out, float(out.counts @ as_values(family.space.util, d)) / state.n


def fleet_rollout(family, zetas, n: int, seed: int, mu0: Pmf | None = None):
    """Run a fleet through a command sequence; returns power and final state."""
    zetas = np.atleast_1d(np.asarray(zetas, dtype=float))
    state, rng = fleet_init(family, n, seed, mu0=mu0)
    y = np.empty(zetas.size)
    for t, z in enumerate(zetas):
        state, y[t] = fleet_step(state, float(z), family, rng)
    return y, state


# -- reference tracking ----------------------------------------------------


@_record(eq=True)
class TrackingConfig:
    """Feedback law around the plant: none, proportional, or PI.

    Gains act on the fractional tracking error (error divided by nominal
    average power); unset gains are derived from the DC gain of the nominal
    linearization.  The command is saturated to ``zeta_limit`` (default 90%
    of the family grid edge); with back-calculation anti-windup the
    integrator tracks the saturated command.
    """

    kind: str = "pi"
    kp: float | None = None
    ki: float | None = None
    zeta_limit: float | None = None
    anti_windup: bool = True

    def __post_init__(self):
        if self.kind not in ("open_loop", "proportional", "pi"):
            raise ValidationError(f"unknown controller kind {self.kind!r}")
        for name, g in (("kp", self.kp), ("ki", self.ki)):
            if g is not None and not math.isfinite(g):
                raise ValidationError(f"{name} must be finite")
        if self.zeta_limit is not None:
            if not math.isfinite(self.zeta_limit) or self.zeta_limit <= 0.0:
                raise ValidationError("zeta_limit must be finite and positive")


def track(family, reference, config: TrackingConfig | None = None,
          plant: str = "meanfield", n: int = 1000, seed: int = 0,
          period_s: float = 1.0) -> SignalSet:
    """Run the tracking loop on a fractional-deviation reference.

    ``reference`` holds desired deviations from nominal average power as a
    fraction of that power (0.05 means +5%).  Returns the absolute
    reference, command, plant output, and error, sampled per step.  The
    plant is the distribution recursion or a finite fleet.
    """
    if config is None:
        config = TrackingConfig()
    r_frac = np.atleast_1d(np.asarray(reference, dtype=float))
    if plant not in ("meanfield", "fleet"):
        raise ValidationError(f"unknown plant {plant!r}")
    nominal = linearize(family, 0.0)
    pi0 = nominal.pi
    ubar0 = pi0.mean(family.space.util)
    if abs(ubar0) < 1e-12:
        raise ValidationError("nominal average power is zero; nothing to track")
    gain = dc_gain(nominal) / ubar0  # fractional power per unit command
    if abs(gain) < 1e-12:
        raise ValidationError("zero DC gain; the command has no effect")
    kp = config.kp if config.kp is not None else 0.25 / gain
    ki = config.ki if config.ki is not None else 0.05 / gain
    grid = family.zeta_grid
    if config.zeta_limit is not None:
        lo, hi = -config.zeta_limit, config.zeta_limit
    else:
        lo, hi = 0.9 * grid[0], 0.9 * grid[-1]

    if plant == "fleet":
        state, rng = fleet_init(family, n, seed, pi0)

        def step(fleet, z):
            return fleet_step(fleet, z, family, rng)
    else:
        state = pi0

        def step(mu, z):
            return meanfield_step(mu, z, family)

    steps = r_frac.size
    r_abs = ubar0 * (1.0 + r_frac)
    zeta = np.empty(steps)
    y = np.empty(steps)
    integ = 0.0
    y_prev = ubar0
    for t in range(steps):
        err = (r_abs[t] - y_prev) / ubar0
        if config.kind == "open_loop":
            raw = r_frac[t] / gain
        elif config.kind == "proportional":
            raw = kp * err
        else:
            raw = kp * err + integ
        z = min(max(raw, lo), hi)
        if config.kind == "pi":
            integ += ki * err
            if config.anti_windup:
                integ += z - raw
        state, y_t = step(state, z)
        zeta[t] = z
        y[t] = y_t
        y_prev = y_t
    return SignalSet(period_s=period_s, samples={
        "reference": r_abs, "zeta": zeta, "output": y, "error": r_abs - y,
    })


def tracking_metrics(signals: SignalSet, settle: int = 0) -> dict:
    """Scalar summary of a tracking run, skipping a settling prefix."""
    err = signals["error"][settle:]
    zeta = signals["zeta"][settle:]
    return {
        "rms_error": float(np.sqrt(np.mean(err ** 2))),
        "max_abs_error": float(np.abs(err).max()),
        "zeta_min": float(zeta.min()),
        "zeta_max": float(zeta.max()),
        "zeta_mean": float(zeta.mean()),
    }


# -- frequency decomposition -----------------------------------------------


def _causal_lowpass(values: np.ndarray, cutoff_hz: float, period_s: float) -> np.ndarray:
    """First-order smoother y[n] = a x[n] + (1 - a) y[n-1] from y[-1] = 0."""
    rc = 1.0 / (2.0 * math.pi * cutoff_hz)
    alpha = period_s / (rc + period_s)
    keep = 1.0 - alpha
    out = []
    y = 0.0
    for x in values.tolist():
        y = alpha * x + keep * y
        out.append(y)
    return np.array(out)


def frequency_decompose(values, lp_cutoff_hz: float, hp_cutoff_hz: float,
                        period_s: float):
    """Split a signal into low, middle, and high frequency bands, causally.

    The low band is a first-order smoother of the input; the high band is
    the fast residue of what the smoother missed; the middle band is
    defined as the remainder, so the three parts add back to the input
    exactly, sample by sample.
    """
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1 or arr.size < 1:
        raise ValidationError("expected a 1-d signal")
    if period_s <= 0.0:
        raise ValidationError("period_s must be positive")
    nyquist = 0.5 / period_s
    if not 0.0 < lp_cutoff_hz < hp_cutoff_hz < nyquist:
        raise BadCutoffs(
            f"need 0 < lp ({lp_cutoff_hz:g}) < hp ({hp_cutoff_hz:g}) < "
            f"Nyquist ({nyquist:g})"
        )
    low = _causal_lowpass(arr, lp_cutoff_hz, period_s)
    resid = arr - low
    high = resid - _causal_lowpass(resid, hp_cutoff_hz, period_s)
    mid = arr - low - high
    return low, mid, high
