"""Closed-loop simulation: distribution flow, finite fleets, reference
tracking, and causal frequency decomposition of reference signals.

The distribution recursion propagates a pmf through the per-step kernel at
the broadcast command without forming it: the pmf is pushed through the
nonzeros of the tilted jump kernel, O(nnz) a step, and mixed with itself at
the sampling rate.  A fleet advances N independent agents through the rows
of the per-step kernel read on its nonzeros, each agent searching only its
row's nonzero columns.  Neither plant builds a d x d kernel.  The tracking
harness wraps either plant in a simple saturated controller whose default
gains come from the DC gain of the command-to-power linearization.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import BadCutoffs, ValidationError
from .fileio import FORMAT_VERSION, atomic_write_text, malformed
from .linearize import dc_gain, linearize
from .markov import Nonzeros, Pmf, as_values

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


@dataclass(frozen=True, eq=False)
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
        buf = io.StringIO()
        buf.write(f"# format_version={FORMAT_VERSION}\n")
        buf.write(f"# period_s={self.period_s!r}\n")
        names = list(self.samples)
        buf.write("t_s," + ",".join(names) + "\n")
        times = self.times_s
        cols = [self.samples[n] for n in names]
        for i in range(self.length):
            row = [f"{times[i]:.17g}"] + [f"{c[i]:.17g}" for c in cols]
            buf.write(",".join(row) + "\n")
        text = buf.getvalue()
        if path is not None:
            atomic_write_text(path, text)
        return text

    @classmethod
    def from_csv(cls, text: str) -> "SignalSet":
        """Parse :meth:`to_csv` text; every cell must be a finite number."""
        period = None
        header = None
        rows = []
        with malformed("signal CSV"):
            for line in text.splitlines():
                line = line.strip()
                if not line:
                    continue
                if line.startswith("#"):
                    key, _, value = line[1:].partition("=")
                    if key.strip() == "period_s":
                        period = float(value)
                    continue
                if header is None:
                    header = [h.strip() for h in line.split(",")]
                    if header[0] != "t_s" or len(header) < 2:
                        raise ValidationError("expected a 't_s,<signals>' header")
                    continue
                rows.append([float(v) for v in line.split(",")])
            if header is None or not rows:
                raise ValidationError("no signal rows found")
            if period is None:
                if len(rows) > 1:
                    period = rows[1][0] - rows[0][0]
                else:
                    raise ValidationError("cannot infer the sample period")
            data = np.asarray(rows, dtype=float)
        if data.shape[1] != len(header) or not np.isfinite(data).all():
            raise ValidationError("each signal row needs one finite number per column")
        samples = {name: data[:, j + 1] for j, name in enumerate(header[1:])}
        return cls(period_s=period, samples=samples)


# -- distribution flow -----------------------------------------------------


def meanfield_step(mu: Pmf, zeta: float, family) -> tuple[Pmf, float]:
    """One step of the distribution recursion at a fixed command.

    mu P for the per-step kernel P = (1 - rate) I + rate S, with S the jump
    kernel: mu is pushed through the nonzeros of S that
    ``family.jump_values_at`` gives, in O(nnz) and with no d x d kernel
    built, then mixed with itself at the sampling rate.  Returns the
    propagated pmf and the average power it assigns.  The unit sum is
    restored each step so roundoff cannot accumulate over long runs.
    """
    support = family.support
    w = mu.weights
    flow = w[support.rows] * family.jump_values_at(zeta)
    jumped = np.bincount(support.cols, weights=flow, minlength=w.size)
    rate = family.structure.sampling_rate
    w = (1.0 - rate) * w + rate * jumped
    w = w / w.sum()
    out = Pmf(w)
    util = as_values(family.space.util, family.space.dim)
    return out, float(w @ util)


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


@dataclass(frozen=True, eq=False)
class FleetState:
    """States of N independent agents, as flat state indices."""

    states: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.states, dtype=np.int64)
        if arr.ndim != 1 or arr.size < 1:
            raise ValidationError("need a 1-d vector of agent states")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "states", arr)

    @property
    def n(self) -> int:
        return self.states.size

    def empirical_pmf(self, dim: int) -> Pmf:
        counts = np.bincount(self.states, minlength=dim)
        return Pmf(counts / self.n)


def fleet_init(family, n: int, seed: int, mu0: Pmf | None = None):
    """Draw initial agent states i.i.d. and return the stream for stepping."""
    if n < 1:
        raise ValidationError("fleet size must be positive")
    mu = family.pi_at(0.0) if mu0 is None else mu0
    rng = np.random.default_rng(seed)
    states = rng.choice(family.space.dim, size=n, p=mu.weights)
    return FleetState(states), rng


def fleet_step(state: FleetState, zeta: float, family, rng) -> tuple[FleetState, float]:
    """Advance every agent one step through its kernel row.

    Each agent consumes exactly one uniform draw (inverse transform through
    its row's cumulative sums on ``family.step_support``), so trajectories
    are bitwise reproducible for a given stream and N = 1 reduces to a
    textbook chain sampler.  Returns the new fleet and its average power.
    """
    values = family.step_values_at(zeta)
    u = rng.random(state.n)
    nxt = _inverse_transform(values, _row_layout(family.step_support), state.states, u)
    out = FleetState(nxt)
    util = as_values(family.space.util, family.space.dim)
    return out, float(util[nxt].mean())


class _RowLayout(NamedTuple):
    """Nonzeros laid out row by row in a table ``width`` entries wide, the
    least power of two above the longest row.  Nonzero k sits at
    ``slots[k]`` of the flattened table; ``columns`` holds the column of
    every table entry, d - 1 on the padding."""

    width: int
    slots: np.ndarray
    columns: np.ndarray


#: the last support laid out and its layout: a rollout steps one family, so
#: its layout is built once; a race between threads at worst rebuilds it
_last_layout: tuple[Nonzeros, _RowLayout] | None = None


def _row_layout(support: Nonzeros) -> _RowLayout:
    """:class:`_RowLayout` of the nonzeros ``support``, kept for the next call."""
    global _last_layout
    last = _last_layout
    if last is None or last[0] is not support:
        d, r = support.starts.size, support.rows
        width = 1 << int(np.bincount(r, minlength=d).max()).bit_length()
        slots = r * width + (np.arange(r.size) - support.starts[r])
        columns = np.full(d * width, d - 1)
        columns[slots] = support.cols
        last = _last_layout = (support, _RowLayout(width, slots, columns))
    return last[1]


def _inverse_transform(values: np.ndarray, layout: _RowLayout, rows: np.ndarray,
                       u: np.ndarray) -> np.ndarray:
    """Per agent, the count of its row's cumulative sums below its ``u``,
    capped at d - 1 so dust in the row sum cannot leave the state space.

    ``values`` holds a kernel at the nonzeros ``layout`` lays out, so a
    row's sums rise only at those columns, and for u > 0 the count is the
    first such column whose sum reaches u, or d - 1 when none does.  Each
    row keeps its values, padded with +inf (read as column d - 1), and is
    summed in place: bitwise the dense row's sums, which only add zeros
    between them.  A branch-free binary search counts the sums below u in
    ceil(log2(k + 1)) gathers of N entries, for k the most nonzeros in a
    row, plus one to read the column.  A draw u = 0.0 is below no sum, so
    it lands in column 0 even where that has no mass.
    """
    width = layout.width
    table = np.full(layout.columns.size, np.inf)
    table[layout.slots] = values
    flat = np.cumsum(table.reshape(-1, width), axis=1).ravel()
    pos = rows * width
    step = width >> 1
    while step:
        pos += step * (flat.take(pos + (step - 1)) < u)
        step >>= 1
    nxt = layout.columns.take(pos)
    nxt[u == 0.0] = 0
    return nxt


def fleet_rollout(family, zetas, n: int, seed: int, mu0: Pmf | None = None):
    """Run a fleet through a command sequence; returns power and final state."""
    zetas = np.atleast_1d(np.asarray(zetas, dtype=float))
    state, rng = fleet_init(family, n, seed, mu0=mu0)
    y = np.empty(zetas.size)
    for t, z in enumerate(zetas):
        state, y[t] = fleet_step(state, float(z), family, rng)
    return y, state


# -- reference tracking ----------------------------------------------------


@dataclass(frozen=True)
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
        state, rng = fleet_init(family, n, seed, mu0=pi0)
    else:
        mu = pi0

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
        if plant == "fleet":
            state, y_t = fleet_step(state, z, family, rng)
        else:
            mu, y_t = meanfield_step(mu, z, family)
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
