"""Small-signal analysis of a kernel family around any command value.

The fleet-average output responds to command perturbations through a
linear state-space model (A, B, C): A is the transpose of the per-step
kernel (pmf evolution), B is the command derivative of the invariant-pmf
dynamics, and C reads out the centered per-state output.  This module
builds that model from a :class:`~ddispatch.design.DesignFamily`,
evaluates its transfer function on and off the unit circle, computes
output power spectral densities, and certifies the positive-real bound
that makes system-perspective designs safe to close a loop around.
"""

from __future__ import annotations

import cmath
import io
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NearSingular, UnstablePole, ValidationError
from .fileio import atomic_write_text
from .markov import Pmf, StochasticMatrix, as_values, _frozen, _reversal_raw

__all__ = [
    "LinearModel",
    "FrequencyResponse",
    "kernel_derivative",
    "family_kernel_derivative",
    "linearize",
    "b_adjoint_form",
    "transfer_eval",
    "dc_gain",
    "covariance_sequence",
    "positive_real_check",
    "psd",
    "bode_export",
]

#: residual tolerance (relative to |B|) for accepting a transfer-function solve
SOLVE_TOL = 1e-8

#: eigenvalues of A other than the Perron root must have modulus below this
STABLE_TOL = 1.0 - 1e-9


def kernel_derivative(p: StochasticMatrix | np.ndarray, pair) -> np.ndarray:
    """Derivative of the tilted kernel in the direction of a pair function.

    For the family P_t = tilt(P, t * pair) at t = 0:

        d(x, x') = P(x, x') * (pair(x, x') - sum_y P(x, y) pair(x, y))

    Rows sum to zero; a constant pair gives the zero matrix (normalization
    absorbs constants).
    """
    arr = p.entries if isinstance(p, StochasticMatrix) else np.asarray(p, dtype=float)
    pair = np.asarray(pair, dtype=float)
    if pair.shape != arr.shape:
        raise ValidationError(f"pair shape {pair.shape} != kernel shape {arr.shape}")
    weighted = arr * pair
    return weighted - arr * weighted.sum(axis=1)[:, None]


def family_kernel_derivative(family, zeta: float) -> np.ndarray:
    """Command derivative of the per-step kernel of a family at one command.

    Uses the family's own rate function (the design map for ODE families,
    the fixed direction for exponential ones), never finite differences.
    For composed families the per-step kernel is a lazy mix, so the jump
    kernel derivative is scaled by the sampling rate.
    """
    return _per_step_rate(family, kernel_derivative(family.jump_kernel_at(zeta),
                                                    family.pair_rate_at(zeta)))


def _per_step_rate(family, jump_rate):
    """Scale a jump-kernel derivative by the sampling rate of composed families."""
    if family.structure.sampling == "composed":
        return family.structure.gamma * jump_rate
    return jump_rate


def _successor_only(pair: np.ndarray) -> bool:
    """Whether a pair function depends on the successor state only."""
    scale = max(1.0, np.abs(pair).max())
    return bool(np.abs(pair - pair[0]).max() <= 1e-12 * scale)


@dataclass(frozen=True, eq=False)
class LinearModel:
    """State-space model (A, B, C) of the fleet pmf around one command.

    ``a`` maps pmf deviations forward one step, ``b`` is the pmf response
    to a unit command deviation, ``c`` reads out the centered output, and
    ``sigma2`` is the stationary output variance.  ``pi`` is the invariant
    pmf the model is centered at.
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    sigma2: float
    zeta: float
    pi: Pmf

    def __post_init__(self):
        for name in ("a", "b", "c"):
            object.__setattr__(self, name, _frozen(getattr(self, name)))
        a, b, c = self.a, self.b, self.c
        d = len(self.pi.weights)
        if a.shape != (d, d) or b.shape != (d,) or c.shape != (d,):
            raise ValidationError("model dimensions disagree")
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))
                and np.all(np.isfinite(c))):
            raise ValidationError("model contains non-finite entries")
        colsum = a.sum(axis=0)
        if np.abs(colsum - 1.0).max() > 1e-9:
            raise ValidationError("a must be the transpose of a stochastic matrix")
        scale = max(1.0, np.abs(b).max())
        if abs(b.sum()) > 1e-12 * scale * d:
            raise ValidationError("b must sum to zero")
        cscale = max(1.0, np.abs(c).max())
        if abs(self.pi.weights @ c) > 1e-12 * cscale * d:
            raise ValidationError("c must be centered under pi")
        if not self.sigma2 >= 0.0:
            raise ValidationError("sigma2 must be nonnegative")

    @property
    def dim(self) -> int:
        return len(self.b)


def linearize(family, zeta: float) -> LinearModel:
    """Linear response model of a design family at one command value."""
    jump = family.jump_kernel_at(zeta)
    kern = family._step_kernel(jump)
    pi = family.pi_at(zeta)
    pair = family.pair_rate_at(zeta)
    util = as_values(family.space.util, kern.dim)
    ctr = util - float(pi.mean(util))
    sigma2 = float(pi.weights @ ctr ** 2)
    deriv = _per_step_rate(family, kernel_derivative(jump, pair))
    b = deriv.T @ pi.weights
    model = LinearModel(a=kern.entries.T.copy(), b=b, c=ctr,
                        sigma2=sigma2, zeta=zeta, pi=pi)
    if _successor_only(pair) and pi.weights.min() > 0.0:
        alt = _b_adjoint(family, jump.entries, pair, pi.weights)
        gap = np.abs(alt - b).max()
        if gap > 1e-10 * max(1.0, np.abs(b).max()):
            raise ValidationError(
                f"pmf-response cross-check failed (gap {gap:.2e}) at command {zeta:g}"
            )
    return model


def b_adjoint_form(family, zeta: float) -> np.ndarray:
    """Pmf response via the time-reversal identity.

    When the rate pair function depends only on the successor state,

        b(x) = pi(x) * (pair(x) - (S-dagger S pair)(x)),

    with S the jump kernel and S-dagger its time reversal, scaled by the
    sampling rate for composed families.  Pure matrix algebra; no solves.
    """
    pair = family.pair_rate_at(zeta)
    if not _successor_only(pair):
        raise ValidationError(
            "time-reversal form needs a rate depending on the successor only"
        )
    return _b_adjoint(family, family.jump_kernel_at(zeta).entries, pair,
                      family.pi_at(zeta).weights)


def _b_adjoint(family, s: np.ndarray, pair: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Time-reversal form of b from the jump kernel, rate pair and pmf."""
    h = pair[0]
    return _per_step_rate(family, w * (h - _reversal_raw(s, w) @ (s @ h)))


def _deflated_solve(model: LinearModel, z: complex) -> np.ndarray:
    """Solve (zI - A)v = B on the centered subspace.

    The rank-one correction pi x 1 moves the Perron eigenvalue of A from 1
    to 0 without disturbing the centered subspace that B lives in, so the
    solve is well posed on the whole unit circle (z = 1 included).
    """
    d = model.dim
    m = z * np.eye(d) - model.a + np.outer(model.pi.weights, np.ones(d))
    if z == 0:
        m = -model.a
    try:
        v = np.linalg.solve(m, model.b.astype(complex))
    except np.linalg.LinAlgError as exc:
        raise NearSingular(f"transfer evaluation singular at z = {z}") from exc
    if not np.all(np.isfinite(v.view(float))):
        raise NearSingular(f"transfer evaluation overflowed at z = {z}")
    bscale = np.abs(model.b).max()
    resid = np.abs(m @ v - model.b).max()
    if resid > SOLVE_TOL * max(bscale, 1e-300):
        raise NearSingular(
            f"transfer evaluation ill-conditioned at z = {z} "
            f"(residual {resid:.2e})"
        )
    return v


def transfer_eval(model: LinearModel, z: complex) -> tuple[complex, complex]:
    """Transfer function values (G(z), z * G(z)) at one complex frequency."""
    v = _deflated_solve(model, complex(z))
    g = complex(model.c @ v)
    return g, z * g


def dc_gain(model: LinearModel) -> float:
    """Zero-frequency gain of the step-ahead transfer function (real)."""
    _, gp = transfer_eval(model, 1.0 + 0.0j)
    return float(gp.real)


def covariance_sequence(p: StochasticMatrix, pi: Pmf, f, g, k_max: int) -> np.ndarray:
    """Stationary lag covariances E[f(X_0) g(X_k)] for k = 0..k_max."""
    if k_max < 0:
        raise ValidationError("k_max must be nonnegative")
    fv = as_values(f, p.dim)
    gv = as_values(g, p.dim)
    weighted = pi.weights * fv
    out = np.empty(k_max + 1)
    cur = gv.astype(float).copy()
    for k in range(k_max + 1):
        out[k] = weighted @ cur
        if k < k_max:
            cur = p.entries @ cur
    return out


def _check_stable(model: LinearModel):
    eigs = np.abs(np.linalg.eigvals(model.a))
    outside = int(np.count_nonzero(eigs >= STABLE_TOL))
    if outside != 1:
        raise UnstablePole(
            f"{outside} eigenvalues on or outside the unit circle; "
            "expected exactly the stochastic one"
        )


@dataclass(frozen=True, eq=False)
class FrequencyResponse:
    """Transfer function of a model sampled on a uniform grid over [0, pi]."""

    theta_grid: np.ndarray
    g_values: np.ndarray
    g_plus_values: np.ndarray
    realness_margin: float
    sigma2: float
    zeta: float
    label: str = ""

    def __post_init__(self):
        object.__setattr__(self, "theta_grid", _frozen(self.theta_grid))
        object.__setattr__(self, "g_values", _frozen(self.g_values, dtype=complex))
        object.__setattr__(self, "g_plus_values",
                           _frozen(self.g_plus_values, dtype=complex))
        n = len(self.theta_grid)
        if len(self.g_values) != n or len(self.g_plus_values) != n:
            raise ValidationError("frequency response arrays disagree in length")


def positive_real_check(model: LinearModel, theta_count: int = 2048,
                        label: str = "") -> FrequencyResponse:
    """Evaluate G on [0, pi] and measure the worst passivity margin.

    The margin is min over the grid of 2 Re G_plus - sigma2; families built
    by the system-perspective rule keep it nonnegative (up to roundoff),
    which is the certificate that the aggregate feedback loop cannot
    destabilize the grid frequency it is serving.
    """
    if theta_count < 2:
        raise ValidationError("theta_count must be at least 2")
    _check_stable(model)
    thetas = np.linspace(0.0, math.pi, theta_count)
    gs = np.empty(theta_count, dtype=complex)
    gps = np.empty(theta_count, dtype=complex)
    for i, theta in enumerate(thetas):
        g, gp = transfer_eval(model, cmath.exp(1j * theta))
        gs[i] = g
        gps[i] = gp
    margin = float((2.0 * gps.real - model.sigma2).min())
    return FrequencyResponse(theta_grid=thetas, g_values=gs, g_plus_values=gps,
                             realness_margin=margin, sigma2=model.sigma2,
                             zeta=model.zeta, label=label)


def psd(model: LinearModel, theta_grid, k_max: int | None = None) -> np.ndarray:
    """Output power spectral density on a grid of angles.

    S(theta) = sigma2 + 2 sum_{k >= 1} r_k cos(k theta), with lag
    covariances r_k = C A^k B.  The sum is truncated once |r_k| falls
    below 1e-14 * sigma2 (or at ``k_max``); mixing makes the tail decay
    geometrically, so the truncation error is of the same order.
    """
    thetas = np.asarray(theta_grid, dtype=float)
    if model.sigma2 == 0.0:
        return np.zeros_like(thetas)
    stop = 1e-14 * model.sigma2
    cap = k_max if k_max is not None else 200_000
    lags = []
    cur = model.b.copy()
    k = 0
    while k < cap:
        k += 1
        cur = model.a @ cur
        r = float(model.c @ cur)
        lags.append(r)
        if abs(r) < stop:
            break
    out = np.full_like(thetas, model.sigma2)
    lags_arr = np.asarray(lags)
    chunk = 512
    for start in range(0, len(lags_arr), chunk):
        ks = np.arange(start + 1, min(start + chunk, len(lags_arr)) + 1)
        out += 2.0 * (lags_arr[start:start + chunk]
                      @ np.cos(np.outer(ks, thetas)))
    return out


def bode_export(responses, path=None, sample_period: float | None = None) -> str:
    """Render frequency responses as CSV for external plotting.

    One row per grid angle; per response a group of columns with the
    magnitude (dB) and phase (degrees) of G_plus, the realness sum
    2 Re G_plus, and the (constant) margin.  All responses must share the
    same angle grid.  With ``sample_period`` (seconds per step) a hertz
    axis is included.  Returns the CSV text; writes it to ``path`` if
    given.
    """
    responses = list(responses)
    for r in responses[1:]:
        if len(r.theta_grid) != len(responses[0].theta_grid) or \
                np.abs(r.theta_grid - responses[0].theta_grid).max() > 0.0:
            raise ValidationError("responses must share one angle grid")
    header = ["theta_rad"]
    if sample_period is not None:
        if sample_period <= 0.0:
            raise ValidationError("sample_period must be positive")
        header.append("freq_hz")
    for i, r in enumerate(responses):
        tag = r.label or f"resp{i}"
        header += [f"{tag}_mag_db", f"{tag}_phase_deg",
                   f"{tag}_re_gplus_sum", f"{tag}_margin"]
    buf = io.StringIO()
    buf.write(",".join(header) + "\n")
    if responses:
        thetas = responses[0].theta_grid
        floor = 1e-300
        for j, theta in enumerate(thetas):
            row = [f"{theta:.10g}"]
            if sample_period is not None:
                row.append(f"{theta / (2.0 * math.pi * sample_period):.10g}")
            for r in responses:
                gp = r.g_plus_values[j]
                row.append(f"{20.0 * math.log10(max(abs(gp), floor)):.10g}")
                row.append(f"{math.degrees(cmath.phase(gp)):.10g}")
                row.append(f"{2.0 * gp.real:.10g}")
                row.append(f"{r.realness_margin:.10g}")
            buf.write(",".join(row) + "\n")
    text = buf.getvalue()
    if path is not None:
        atomic_write_text(path, text)
    return text
