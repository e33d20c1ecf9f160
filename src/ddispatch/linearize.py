"""Small-signal analysis of a kernel family around any command value.

The fleet-average output responds to command perturbations through a
linear state-space model (A, B, C): A is the transpose of the per-step
kernel (pmf evolution), B is the command derivative of the invariant-pmf
dynamics, and C reads out the centered per-state output.  This module
builds that model from a :class:`~ddispatch.design.DesignFamily`,
evaluates its transfer function on and off the unit circle, computes
output power spectral densities, and certifies the positive-real bound
that makes system-perspective designs safe to close a loop around.  A
result depends on its arguments alone: every sweep plans the elimination
of its own model's pattern, whatever ran before it.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import NearSingular, UnstablePole, ValidationError
from .fileio import write_csv
from .markov import (Pmf, Schedule, StochasticMatrix, as_values, _frozen,
                     _record, _reversal_raw, _schedule)

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

#: angles solved together by the Hessenberg transfer sweep
SWEEP_BLOCK = 128

#: angles solved together by the transfer sweep on an elimination schedule
SCHEDULE_BLOCK = 512

#: fewest angles a passivity sweep takes: [0, pi] needs both ends
MIN_THETA_COUNT = 2

#: most angles a passivity sweep takes: a response and its Bode columns hold
#: ~0.5 kB an angle, ~0.4 kB more per further command: 0.63 GB for three
MAX_THETA_COUNT = 500_000

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

    Uses the family's own rate, ``h_rate_at``: the exact derivative of the
    interpolant the plant steps on, for every kind, never a finite
    difference of kernels and never a design-rule solve.
    The per-step kernel is a lazy mix of the jump kernel, so the jump
    kernel derivative is scaled by the sampling rate.
    """
    return family.structure.sampling_rate * kernel_derivative(
        family.jump_kernel_at(zeta), family.pair_rate_at(zeta))


def _successor_only(pair: np.ndarray) -> bool:
    """Whether a pair function depends on the successor state only."""
    scale = max(1.0, np.abs(pair).max())
    return bool(np.abs(pair - pair[0]).max() <= 1e-12 * scale)


@_record
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
    """Linear response model of a design family at one command value.

    The family keeps the last command's jump values, so the kernels and the
    invariant pmf below share one tilt; the design rate reads ``h_grid``
    only, so no design rule runs.
    """
    rate = family.structure.sampling_rate
    jump = family.jump_kernel_at(zeta)
    kern = family.kernel_at(zeta)
    pi = family.pi_at(zeta)
    pair = family.pair_rate_at(zeta)
    util = as_values(family.space.util, kern.dim)
    ctr = util - float(pi.mean(util))
    sigma2 = float(pi.weights @ ctr ** 2)
    deriv = rate * kernel_derivative(jump, pair)
    b = deriv.T @ pi.weights
    model = LinearModel(a=kern.entries.T.copy(), b=b, c=ctr,
                        sigma2=sigma2, zeta=zeta, pi=pi)
    if _successor_only(pair) and pi.weights.min() > 0.0:
        alt = _b_adjoint(rate, jump.entries, pair, pi.weights)
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
    sampling rate.  Pure matrix algebra; no solves.
    """
    pair = family.pair_rate_at(zeta)
    if not _successor_only(pair):
        raise ValidationError(
            "time-reversal form needs a rate depending on the successor only"
        )
    return _b_adjoint(family.structure.sampling_rate, family.jump_kernel_at(zeta).entries,
                      pair, family.pi_at(zeta).weights)


def _b_adjoint(sampling_rate, s: np.ndarray, pair: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Time-reversal form of b from the jump kernel, rate pair and pmf."""
    h = pair[0]
    return sampling_rate * (w * (h - _reversal_raw(s, w) @ (s @ h)))


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
    _checked_residuals(model, np.array([z]), v.reshape(d, 1))
    return v


def _checked_residuals(model: LinearModel, zs: np.ndarray, v: np.ndarray) -> np.ndarray:
    """max |(zI - A + pi 1^T) v - B| / max|B| for each column of ``v``, one per z
    of ``zs``; :class:`NearSingular` at the first non-finite one or one above
    SOLVE_TOL."""
    bscale = max(np.abs(model.b).max(), 1e-300)
    with np.errstate(all="ignore"):
        resid = np.abs(zs * v - _real_matmul(model.a, v)
                       + np.outer(model.pi.weights, v.sum(axis=0))
                       - model.b[:, None]).max(axis=0)
    finite = np.isfinite(v).all(axis=0)
    bad = ~finite | ~(resid <= SOLVE_TOL * bscale)
    if bad.any():
        i = int(np.argmax(bad))
        z = complex(zs[i])
        if not finite[i]:
            raise NearSingular(f"transfer evaluation overflowed at z = {z}")
        raise NearSingular(
            f"transfer evaluation ill-conditioned at z = {z} "
            f"(residual {resid[i]:.2e})"
        )
    return resid / bscale


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


@_record
class FrequencyResponse:
    """Transfer function of a model sampled on a uniform grid over [0, pi].

    ``max_residual`` is the worst solve residual over the grid, relative
    to max|B|.
    """

    theta_grid: np.ndarray
    g_values: np.ndarray
    g_plus_values: np.ndarray
    realness_margin: float
    sigma2: float
    zeta: float
    max_residual: float
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
    destabilize the grid frequency it is serving.  Each angle passes the
    same residual test as :func:`transfer_eval`.
    """
    if not MIN_THETA_COUNT <= theta_count <= MAX_THETA_COUNT:
        raise ValidationError(f"theta_count outside [{MIN_THETA_COUNT}, {MAX_THETA_COUNT}]")
    _check_stable(model)
    thetas = np.linspace(0.0, math.pi, theta_count)
    zs = np.exp(1j * thetas)
    gs, max_residual = _transfer_sweep(model, zs)
    gps = zs * gs
    margin = float((2.0 * gps.real - model.sigma2).min())
    return FrequencyResponse(theta_grid=thetas, g_values=gs, g_plus_values=gps,
                             realness_margin=margin, sigma2=model.sigma2,
                             zeta=model.zeta, max_residual=max_residual,
                             label=label)


def _hessenberg(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Householder reduction m = Q H Q^T with H upper Hessenberg, Q orthogonal."""
    h = m.astype(float, copy=True)
    d = len(h)
    q = np.eye(d)
    for k in range(d - 2):
        v = h[k + 1:, k].copy()
        norm = np.linalg.norm(v)
        if norm == 0.0:
            continue
        v[0] += math.copysign(norm, v[0])
        v /= np.linalg.norm(v)
        h[k + 1:, :] -= 2.0 * np.outer(v, v @ h[k + 1:, :])
        h[:, k + 1:] -= 2.0 * np.outer(h[:, k + 1:] @ v, v)
        q[:, k + 1:] -= 2.0 * np.outer(q[:, k + 1:] @ v, v)
        h[k + 2:, k] = 0.0
    return h, q


@np.errstate(all="ignore")
def _hessenberg_solve(h: np.ndarray, rhs: np.ndarray, zs: np.ndarray) -> np.ndarray:
    """Columns y with (z I - H) y = rhs, one per z.

    Gaussian elimination that pivots between adjacent rows, the only two
    with a nonzero in each column of a Hessenberg matrix.  Row j + 1 of
    zI - H enters at step j with the z-independent subdiagonal -H[j+1, j]
    in front, so the pivot test is one comparison per z; a zero pivot
    leaves non-finite entries for the caller to reject.  Row j of U is a
    (d - j, len(zs)) slice of one buffer, z along the contiguous axis.
    """
    d, count = len(h), len(zs)
    neg = -h.astype(complex)
    ends = np.cumsum(np.arange(d, 0, -1))
    buf = np.empty((ends[-1], count), dtype=complex)
    rows = np.split(buf, ends[:-1])
    rhs_rows = np.empty((d, count), dtype=complex)
    cur = rows[0]
    cur[:] = neg[0, :, None]
    cur[0] += zs
    rhs_rows[0] = rhs[0]
    for j in range(d - 1):
        sub = -h[j + 1, j]
        mult = sub / cur[0]
        nxt = np.multiply(cur[1:], -mult, out=rows[j + 1])
        nxt += neg[j + 1, j + 1:, None]
        nxt[0] += zs
        np.multiply(rhs_rows[j], -mult, out=rhs_rows[j + 1])
        rhs_rows[j + 1] += rhs[j + 1]
        swap = np.flatnonzero(np.abs(cur[0]) < abs(sub))
        if swap.size:
            row = np.repeat(neg[j + 1, j + 1:, None], swap.size, axis=1)
            row[0] += zs[swap]
            back = cur[0, swap] / sub
            nxt[:, swap] = cur[1:, swap] - back * row
            rhs_rows[j + 1, swap] = rhs_rows[j, swap] - back * rhs[j + 1]
            cur[0, swap] = sub
            cur[1:, swap] = row
            rhs_rows[j, swap] = rhs[j + 1]
        cur = nxt
    y = np.empty((d, count), dtype=complex)
    for j in range(d - 1, -1, -1):
        row = rows[j]
        y[j] = (rhs_rows[j] - (row[1:] * y[j + 1:]).sum(axis=0)) / row[0]
    return y


def _real_matmul(m: np.ndarray, x: np.ndarray) -> np.ndarray:
    """m @ x for real m and C-contiguous complex x, as one real product."""
    return (m @ x.view(float)).view(complex)


@np.errstate(all="ignore")
def _schedule_solve(schedule: Schedule, model: LinearModel, zs: np.ndarray) -> np.ndarray:
    """Columns v with (z I - A + e_a 1^T) v = B, one per z of ``zs`` (all on
    the unit circle), by one elimination of the batch on ``schedule``: A's
    pattern bordered at a, the state it eliminates last.

    At z = 1 this is the transpose of I - P + 1 e_a^T, nonsingular for an
    irreducible P (Kemeny, Linear Algebra Appl. 38, 1981); summing its rows
    gives z 1^T v = 1^T B = 0, so v solves the deflated system too.  The
    pivots before a's are those of zI - A, column diagonally dominant.  The
    border's multipliers grow like 1 / (1 - P(x, x)), and their roundoff
    moves v along (zI - A + e_a 1^T)^-1 e_a = pi (at z = 1), which
    v - pi (1^T v) removes.  A zero pivot leaves non-finite entries.
    """
    a, count = model.a, len(zs)
    rows, cols = np.nonzero(a)
    vals = np.zeros((schedule.size, count), dtype=complex)
    vals[schedule.slots[rows, cols]] = -a[rows, cols, None]
    vals[schedule.slots.diagonal()] += zs
    vals[schedule.slots[schedule.pivots[-1].state]] += 1.0
    v = np.repeat(model.b.astype(complex)[:, None], count, axis=1)
    for p in schedule.pivots:
        lower = vals[p.lower] / vals[p.diag]
        vals[p.targets] -= (lower[:, None] * vals[p.upper][None]).reshape(-1, count)
        v[p.lower_rows] -= lower * v[p.state]
    for p in reversed(schedule.pivots):
        done = (vals[p.upper] * v[p.upper_cols]).sum(axis=0)
        v[p.state] = (v[p.state] - done) / vals[p.diag]
    v -= np.outer(model.pi.weights, v.sum(axis=0))
    return v


def _transfer_sweep(model: LinearModel, zs: np.ndarray) -> tuple[np.ndarray, float]:
    """G at every z of ``zs`` (all on the unit circle) and the worst
    relative residual.

    Same deflated system as :func:`transfer_eval`, on one of two paths,
    chosen by the work of the bordered elimination schedule of A's pattern,
    which each sweep plans for itself.  That work is counted on the filled
    pattern; the schedule's pivots are built only on the first path.
    - On the schedule (:func:`_schedule_solve`, SCHEDULE_BLOCK z at a
      time), when eliminating one z there touches fewer entries than the
      d^2 / 2 a Hessenberg solve does: 475 against 4 608 on the pool
      per-step kernel, whose plan takes ~3 ms.
    - Otherwise from one Hessenberg reduction of A - pi 1^T, where each z
      costs O(d^2), SWEEP_BLOCK z at a time.  On the 42-state tcl kernel
      the schedule would touch 7 892 entries against 882.
    Every solution passes :func:`_checked_residuals`, as the dense solve's
    does, in the original coordinates.  An eigendecomposition
    would make each z cheaper still, but the eigenvectors of A - pi 1^T
    can be nearly dependent (condition ~9e13 on the pool spd family at
    commands +-2), where it fails that residual test; the orthogonal
    reduction does not.
    """
    d = model.dim
    schedule = _schedule(model.a != 0.0, border=True)
    if schedule.work < d * d / 2:
        block_size = SCHEDULE_BLOCK

        def solve(block):
            return _schedule_solve(schedule, model, block)
    else:
        block_size = SWEEP_BLOCK
        h, q = _hessenberg(model.a - np.outer(model.pi.weights, np.ones(d)))
        rhs = q.T @ model.b

        def solve(block):
            return _real_matmul(q, _hessenberg_solve(h, rhs, block))
    gs = np.empty(len(zs), dtype=complex)
    worst = 0.0
    for start in range(0, len(zs), block_size):
        block = zs[start:start + block_size]
        v = solve(block)
        worst = max(worst, float(_checked_residuals(model, block, v).max()))
        gs[start:start + block_size] = _real_matmul(model.c, v)
    return gs, worst


def psd(model: LinearModel, theta_grid) -> np.ndarray:
    """Output power spectral density on a grid of angles.

    S(theta) = sigma2 + 2 sum_{k >= 1} r_k cos(k theta), with lag
    covariances r_k = C A^k B.  Since 1^T B = 0, z G(z) = sum_{k >= 0}
    r_k z^(-k) on the unit circle, so the sum is Re G_plus - C B, taken
    from the transfer sweep with no truncation.  Raises
    :class:`UnstablePole` unless A is stable apart from its Perron root.
    """
    thetas = np.asarray(theta_grid, dtype=float)
    if model.sigma2 == 0.0:
        return np.zeros_like(thetas)
    _check_stable(model)
    zs = np.exp(1j * thetas)
    gs, _ = _transfer_sweep(model, zs)
    return model.sigma2 + 2.0 * ((zs * gs).real - model.c @ model.b)


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
    thetas = responses[0].theta_grid if responses else np.empty(0)
    if any(not np.array_equal(r.theta_grid, thetas) for r in responses):
        raise ValidationError("responses must share one angle grid")
    header, columns = ["theta_rad"], [thetas]
    if sample_period is not None:
        if not 0.0 < sample_period < math.inf:
            raise ValidationError("sample_period must be positive and finite")
        header.append("freq_hz")
        columns.append(thetas / (2.0 * math.pi * sample_period))
    for i, r in enumerate(responses):
        tag = r.label or f"resp{i}"
        header += [f"{tag}_mag_db", f"{tag}_phase_deg",
                   f"{tag}_re_gplus_sum", f"{tag}_margin"]
        # math, not numpy: numpy's log10 and arctan2 may differ in the last bit
        gps = r.g_plus_values.tolist()
        columns += [[20.0 * math.log10(max(abs(gp), 1e-300)) for gp in gps],
                    [math.degrees(cmath.phase(gp)) for gp in gps],
                    2.0 * r.g_plus_values.real, [r.realness_margin] * len(gps)]
    return write_csv(path, header, columns, ["%.10g"] * len(columns))
