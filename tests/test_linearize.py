import cmath
import importlib
import math
import re

import numpy as np
import pytest

from ddispatch.design import (
    DesignFamily,
    LoadStateSpace,
    build_exponential_family,
    solve_design_ode,
    spd_map,
)
from ddispatch.errors import NearSingular, UnstablePole, ValidationError
from ddispatch.linearize import (
    MAX_THETA_COUNT,
    FrequencyResponse,
    LinearModel,
    b_adjoint_form,
    bode_export,
    covariance_sequence,
    dc_gain,
    family_kernel_derivative,
    kernel_derivative,
    linearize,
    positive_real_check,
    psd,
    transfer_eval,
)
from ddispatch.loads import PoolModelSpec, build_pool_model, synthesis_inputs
from ddispatch import markov
from ddispatch.markov import Pmf, StateFunction, StochasticMatrix, invariant_pmf
from ddispatch.sim import meanfield_step

from conftest import composed, random_chain, two_state

# the package re-exports the function ``linearize`` under the module's name
linearize_module = importlib.import_module("ddispatch.linearize")
design_module = importlib.import_module("ddispatch.design")


def simple_space(util, anchor=0):
    u = np.asarray(util, dtype=float)
    return LoadStateSpace(n_control=len(u), n_exo=1,
                          util=StateFunction(u), anchor=anchor)


def two_state_model(a=0.3, b=0.2, beta=0.4):
    """Hand-built model whose transfer function is beta / (z - lam)."""
    p = two_state(a, b)
    pi = invariant_pmf(p)
    c = np.array([-a, b]) / (a + b)
    sigma2 = float(pi.weights @ c ** 2)
    model = LinearModel(a=p.entries.T.copy(), b=np.array([-beta, beta]),
                        c=c, sigma2=sigma2, zeta=0.0, pi=pi)
    return model, 1.0 - a - b, beta


class TestKernelDerivative:
    def test_wrong_shape_refused(self):
        with pytest.raises(ValidationError):
            kernel_derivative(two_state(0.3, 0.2), np.zeros((2, 3)))

    def test_constant_pair_gives_zero(self, rng):
        p = random_chain(rng, 5)
        deriv = kernel_derivative(p, np.full((5, 5), 3.7))
        assert np.abs(deriv).max() <= 1e-14

    def test_rows_sum_to_zero(self, rng):
        p = random_chain(rng, 6)
        deriv = kernel_derivative(p, rng.normal(size=(6, 6)))
        assert np.abs(deriv.sum(axis=1)).max() <= 1e-14

    def test_two_state_closed_form(self):
        a, b = 0.3, 0.2
        p = two_state(a, b)
        pair = np.tile([0.0, 1.0], (2, 1))
        deriv = kernel_derivative(p, pair)
        want = np.array([[-(1 - a) * a, (1 - a) * a],
                         [-b * (1 - b), b * (1 - b)]])
        np.testing.assert_allclose(deriv, want, atol=1e-15)

    def test_matches_central_difference_at_second_order(self):
        chain = random_chain(np.random.default_rng(3), 4)
        util = np.array([1.0, 0.2, -0.4, -0.8])
        fam = build_exponential_family(chain, simple_space(util), "myopic", 1.0,
                                       step=0.5)
        zeta = 0.3
        deriv = family_kernel_derivative(fam, zeta)
        errs = []
        for delta in (1e-3, 5e-4):
            fd = (fam.kernel_at(zeta + delta).entries
                  - fam.kernel_at(zeta - delta).entries) / (2 * delta)
            errs.append(np.abs(fd - deriv).max())
        order = math.log2(errs[0] / errs[1])
        assert order >= 1.9

    def test_composed_derivative_scaled_by_rate(self):
        chain = random_chain(np.random.default_rng(9), 4)
        fam = solve_design_ode(chain, simple_space([1.0, 0.5, -0.5, -1.0]),
                               "ipd", 0.5, step=0.01)
        lazy = composed(fam, 0.25)
        np.testing.assert_allclose(family_kernel_derivative(lazy, 0.3),
                                   0.25 * family_kernel_derivative(fam, 0.3),
                                   atol=1e-15)
        zeta, delta = 0.3, 1e-3
        fd = (lazy.kernel_at(zeta + delta).entries
              - lazy.kernel_at(zeta - delta).entries) / (2 * delta)
        assert np.abs(fd - family_kernel_derivative(lazy, zeta)).max() <= 5e-5


class TestLinearModel:
    @pytest.mark.parametrize("b", [[0.5, 0.0, -0.5], [math.nan, 0.0]],
                             ids=["wrong_dimensions", "nan_in_b"])
    def test_refusals(self, b):
        with pytest.raises(ValidationError):
            LinearModel(a=two_state(0.3, 0.3).entries.T.copy(), b=np.array(b),
                        c=np.array([1.0, -1.0]), sigma2=1.0, zeta=0.0,
                        pi=Pmf(np.array([0.5, 0.5])))

    def test_validation(self):
        pi = Pmf(np.array([0.5, 0.5]))
        a = two_state(0.3, 0.3).entries.T.copy()
        with pytest.raises(ValidationError):
            LinearModel(a=a, b=np.array([0.5, 0.0]), c=np.array([1.0, -1.0]),
                        sigma2=1.0, zeta=0.0, pi=pi)
        with pytest.raises(ValidationError):
            LinearModel(a=a, b=np.array([0.5, -0.5]), c=np.array([1.0, 1.0]),
                        sigma2=1.0, zeta=0.0, pi=pi)
        with pytest.raises(ValidationError):
            LinearModel(a=a, b=np.array([0.5, -0.5]), c=np.array([1.0, -1.0]),
                        sigma2=-0.1, zeta=0.0, pi=pi)
        with pytest.raises(ValidationError):
            LinearModel(a=np.eye(2) * 0.5, b=np.array([0.5, -0.5]),
                        c=np.array([1.0, -1.0]), sigma2=1.0, zeta=0.0, pi=pi)

    def test_linearize_structure(self):
        chain = random_chain(np.random.default_rng(17), 5)
        util = np.linspace(2.0, -2.0, 5)
        fam = solve_design_ode(chain, simple_space(util), "ipd", 1.0, step=0.01)
        model = linearize(fam, 0.6)
        kern = fam.kernel_at(0.6)
        np.testing.assert_array_equal(model.a, kern.entries.T)
        assert abs(model.b.sum()) <= 1e-12
        pi = fam.pi_at(0.6)
        assert abs(pi.weights @ model.c) <= 1e-12
        assert model.sigma2 == pytest.approx(
            pi.weights @ (util - fam.ubar_at(0.6)) ** 2, rel=1e-12)

    def test_constant_output_gives_zero_transfer(self):
        chain = random_chain(np.random.default_rng(21), 3)
        fam = build_exponential_family(chain, simple_space([5.0, 5.0, 5.0]),
                                       "myopic", 1.0)
        model = linearize(fam, 0.5)
        assert np.abs(model.c).max() == 0.0
        assert model.sigma2 == 0.0
        for z in (2.0, cmath.exp(0.3j), 1.0):
            g, gp = transfer_eval(model, z)
            assert abs(g) == 0.0 and abs(gp) == 0.0
        np.testing.assert_array_equal(psd(model, np.linspace(0, math.pi, 9)), 0.0)


class TestAdjointForm:
    def test_matches_direct_assembly(self):
        chain = random_chain(np.random.default_rng(29), 5)
        fam = solve_design_ode(chain, simple_space(np.linspace(1, -1, 5)),
                               "ipd", 0.5, step=0.01)
        for zeta in (-0.5, 0.0, 0.4):
            model = linearize(fam, zeta)
            np.testing.assert_allclose(b_adjoint_form(fam, zeta), model.b,
                                       atol=1e-13)

    def test_composed_family_scaled(self):
        chain = random_chain(np.random.default_rng(29), 4)
        fam = solve_design_ode(chain, simple_space([1.0, 0.0, -0.3, -0.7]),
                               "ipd", 0.5, step=0.01)
        lazy = composed(fam, 1.0 / 3.0)
        model = linearize(lazy, 0.25)
        np.testing.assert_allclose(b_adjoint_form(lazy, 0.25), model.b,
                                   atol=1e-13)
        np.testing.assert_allclose(model.b,
                                   (1.0 / 3.0) * linearize(fam, 0.25).b,
                                   atol=1e-13)

    def test_linearize_evaluates_design_rate_once(self, monkeypatch):
        # the rate feeds both b and the time-reversal cross-check; it is read
        # off h_grid, so an evaluation solves nothing
        model = build_pool_model(PoolModelSpec(rungs=8, slot_minutes=30.0))
        base, structure = synthesis_inputs(model, "compose")
        fam = solve_design_ode(base, model.space, "ipd", 0.1, step=0.05,
                               structure=structure)
        calls = []
        h_rate_at = DesignFamily.h_rate_at
        monkeypatch.setattr(DesignFamily, "h_rate_at",
                            lambda self, zeta: calls.append(zeta) or h_rate_at(self, zeta))
        linearize(fam, 0.05)
        assert calls == [0.05]

    @pytest.mark.parametrize("kind", ["ipd", "myopic"])
    def test_linearize_tilts_once_per_command(self, monkeypatch, kind):
        # the per-step kernel, the pmf solve and the design rate share the
        # command's one jump kernel
        model = build_pool_model(PoolModelSpec(rungs=8, slot_minutes=30.0))
        base, structure = synthesis_inputs(model, "compose")
        if kind == "ipd":
            fam = solve_design_ode(base, model.space, kind, 0.1, step=0.05,
                                   structure=structure)
        else:
            fam = build_exponential_family(base, model.space, kind, 0.1, step=0.05,
                                           structure=structure)
        calls = []
        tilt_raw = design_module._tilt_raw
        monkeypatch.setattr(design_module, "_tilt_raw",
                            lambda *args: calls.append(1) or tilt_raw(*args))
        counts = []
        for zeta in (0.05, -0.1, 0.0):
            linearize(fam, zeta)
            counts.append(len(calls))
        assert counts == [1, 2, 3]

    def test_analysis_runs_no_design_rule(self, pool_spd_family, monkeypatch):
        # the rate is the derivative of the interpolant of h_grid: no LU pmf,
        # doubled kernel or Poisson solve runs, on the grid or between points
        def design_rule(*args):
            raise AssertionError("design rule ran")

        for name in ("_lu_invariant", "_poisson_raw", "_doubled_raw"):
            monkeypatch.setattr(design_module, name, design_rule)
        for zeta in (0.0, 0.123, 0.25):
            linearize(pool_spd_family, zeta)
            b_adjoint_form(pool_spd_family, zeta)
            family_kernel_derivative(pool_spd_family, zeta)

    def test_b_is_the_plants_derivative(self):
        # b is the command derivative of one mean-field step from the invariant
        # pmf, between grid points as on them: measured within 6e-11, where a
        # rate that is not the derivative of h_at misses by 8e-6 to 1e-3
        chain = random_chain(np.random.default_rng(7), 3)
        fam = solve_design_ode(chain, simple_space([1.0, 0.0, -1.0]), "ipd", 0.5,
                               step=0.01)
        delta = 1e-5
        for zeta in (0.123, -0.4567, 0.3):
            model = linearize(fam, zeta)
            up, _ = meanfield_step(model.pi, zeta + delta, fam)
            down, _ = meanfield_step(model.pi, zeta - delta, fam)
            fd = (up.weights - down.weights) / (2.0 * delta)
            assert np.abs(model.b - fd).max() <= 1e-8 * np.abs(model.b).max()

    def test_cross_check_tolerance_edge(self, monkeypatch):
        # the two forms of b must agree within 1e-10 of max(1, max|b|): a gap
        # of 3e-9 is refused
        chain = random_chain(np.random.default_rng(7), 3)
        fam = solve_design_ode(chain, simple_space([1.0, 0.0, -1.0]), "ipd", 0.5,
                               step=0.05)
        assert np.abs(linearize(fam, 0.2).b).max() < 1.0
        b_adjoint = linearize_module._b_adjoint
        monkeypatch.setattr(linearize_module, "_b_adjoint",
                            lambda *args: b_adjoint(*args) + 3e-9 * np.array([1.0, -1.0, 0.0]))
        with pytest.raises(ValidationError, match=r"cross-check failed \(gap 3.00e-09\)"):
            linearize(fam, 0.2)

    def test_rejects_predecessor_dependent_rate(self, rng):
        # exogenous noise kernels vary with the current state, so the lifted
        # rate is not a successor function and the identity does not apply
        q0 = rng.dirichlet(np.ones(2), size=4)
        r0 = rng.dirichlet(np.ones(2) * 2.0, size=2)
        base = np.zeros((4, 4))
        for x in range(4):
            for c in range(2):
                for e in range(2):
                    base[x, 2 * c + e] = r0[x // 2, c] * q0[x, e]
        space = LoadStateSpace(2, 2, StateFunction(np.array([1.0, 0.5, -0.5, -1.0])),
                               exo_kernel=StochasticMatrix(q0))
        fam = build_exponential_family(StochasticMatrix(base), space, "myopic", 0.5)
        with pytest.raises(ValidationError):
            b_adjoint_form(fam, 0.2)


class TestTransferEval:
    def test_two_state_closed_form(self):
        model, lam, beta = two_state_model()
        for z in (2.0, -1.5, cmath.exp(0.7j), cmath.exp(2.9j), 1.0 + 0.0j):
            g, gp = transfer_eval(model, z)
            want = beta / (z - lam)
            assert abs(g - want) <= 1e-12
            assert abs(gp - z * want) <= 1e-12

    def test_series_expansion_far_from_circle(self):
        chain = random_chain(np.random.default_rng(41), 5)
        fam = solve_design_ode(chain, simple_space(np.linspace(1, -1, 5)),
                               "ipd", 0.5, step=0.01)
        model = linearize(fam, 0.3)
        z = 2.0
        _, gp = transfer_eval(model, z)
        total = 0.0
        cur = model.b.copy()
        for k in range(80):
            total += (model.c @ cur) / z ** k
            cur = model.a @ cur
        assert abs(gp - total) <= 1e-12

    def test_near_singular_at_interior_eigenvalue(self):
        model, lam, _ = two_state_model()
        with pytest.raises(NearSingular):
            transfer_eval(model, lam)

    def test_continuity_through_unit_point(self):
        model, lam, beta = two_state_model()
        _, at_one = transfer_eval(model, 1.0)
        _, nearby = transfer_eval(model, cmath.exp(1e-7j))
        assert abs(at_one - nearby) <= 1e-5
        assert at_one == pytest.approx(beta / (1.0 - lam), abs=1e-12)

    def test_origin_is_undeflated(self):
        # at z = 0 the solve is -A v = B: G(0) = -C A^-1 B
        model = chain_model(random_chain(np.random.default_rng(47), 4),
                            np.random.default_rng(48))
        g, gp = transfer_eval(model, 0.0)
        want = -model.c @ np.linalg.solve(model.a, model.b)
        assert abs(g - want) <= 1e-12 * abs(want)
        assert gp == 0.0

    def test_origin_refused_for_singular_a(self):
        # two equal kernel rows make A = P^T singular
        p = random_chain(np.random.default_rng(49), 4).entries.copy()
        p[1] = p[0]
        model = chain_model(StochasticMatrix(p), np.random.default_rng(50))
        with pytest.raises(NearSingular, match="at z = 0j"):
            transfer_eval(model, 0.0)

    def test_solve_tolerance_edge(self, monkeypatch):
        # SOLVE_TOL is 1e-8 of max|B|: a solve whose residual is 10 to 100
        # times that is refused
        model, _, _ = two_state_model()
        solve = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve",
                            lambda a, b: solve(a, b) + 2.4e-7 * np.array([1.0, -1.0]))
        with pytest.raises(NearSingular, match="ill-conditioned") as info:
            transfer_eval(model, 1.0)
        resid = float(re.search(r"residual ([-+.e\d]+)", str(info.value)).group(1))
        assert 1e-7 <= resid / np.abs(model.b).max() <= 1e-6

    def test_dc_gain(self):
        model, lam, beta = two_state_model()
        assert dc_gain(model) == pytest.approx(beta / (1.0 - lam), abs=1e-12)

    def test_conjugate_symmetry(self):
        chain = random_chain(np.random.default_rng(43), 4)
        fam = solve_design_ode(chain, simple_space([1.0, 0.5, -0.5, -1.0]),
                               "ipd", 0.5, step=0.01)
        model = linearize(fam, 0.5)
        for theta in (0.3, 1.2, 2.8):
            g_pos, _ = transfer_eval(model, cmath.exp(1j * theta))
            g_neg, _ = transfer_eval(model, cmath.exp(-1j * theta))
            assert abs(g_neg - g_pos.conjugate()) <= 1e-12


class TestCovariance:
    def test_negative_lag_refused(self):
        p = two_state(0.3, 0.2)
        with pytest.raises(ValidationError):
            covariance_sequence(p, invariant_pmf(p), [1.0, 0.0], [1.0, 0.0], -1)

    def test_variance_at_lag_zero(self, rng):
        p = random_chain(rng, 5)
        pi = invariant_pmf(p)
        f = rng.normal(size=5)
        ctr = f - pi.mean(f)
        cov = covariance_sequence(p, pi, ctr, ctr, 0)
        assert cov[0] == pytest.approx(pi.weights @ ctr ** 2, abs=1e-14)

    def test_iid_chain_has_no_memory(self, rng):
        row = rng.dirichlet(np.ones(4) * 2.0)
        p = StochasticMatrix(np.tile(row, (4, 1)))
        pi = invariant_pmf(p)
        g = rng.normal(size=4)
        g = g - pi.mean(g)
        cov = covariance_sequence(p, pi, g, g, 6)
        assert np.abs(cov[1:]).max() <= 1e-14

    def test_markov_realization_matches_model_powers(self):
        chain = random_chain(np.random.default_rng(47), 5)
        fam = solve_design_ode(chain, simple_space(np.linspace(1, -1, 5)),
                               "ipd", 1.0, step=0.01)
        for zeta in (0.0, 0.7):
            model = linearize(fam, zeta)
            kern = fam.kernel_at(zeta)
            pi = fam.pi_at(zeta)
            f = model.b / pi.weights
            cov = covariance_sequence(kern, pi, f, model.c, 20)
            cur = model.b.copy()
            for k in range(21):
                assert abs(cov[k] - model.c @ cur) <= 1e-10
                cur = model.a @ cur


class TestPositiveReal:
    def test_unequal_lengths_refused(self):
        with pytest.raises(ValidationError):
            FrequencyResponse(theta_grid=np.zeros(3), g_values=np.zeros(2),
                              g_plus_values=np.zeros(3), realness_margin=0.0,
                              sigma2=0.0, zeta=0.0, max_residual=0.0)

    def test_spd_family_margin_nonnegative(self):
        chain = random_chain(np.random.default_rng(53), 4)
        fam = solve_design_ode(chain, simple_space([1.0, 0.4, -0.2, -1.2]),
                               "spd", 1.0, step=0.01)
        for zeta in (-1.0, 0.0, 1.0):
            model = linearize(fam, zeta)
            pi = fam.pi_at(zeta)
            util = fam.space.util.values
            ctr = util - pi.mean(util)
            np.testing.assert_allclose(model.b / pi.weights, ctr, atol=1e-8)
            resp = positive_real_check(model, theta_count=512)
            assert resp.realness_margin >= -1e-8

    def test_margin_detects_lossy_direction(self):
        # flipping the sign of B makes 2 Re G_plus negative somewhere
        model, _, _ = two_state_model()
        flipped = LinearModel(a=model.a, b=-model.b, c=model.c,
                              sigma2=model.sigma2, zeta=0.0, pi=model.pi)
        resp = positive_real_check(flipped, theta_count=256)
        assert resp.realness_margin < 0.0

    def test_unstable_pole_rejected(self):
        pi = Pmf(np.array([0.5, 0.5]))
        with pytest.raises(UnstablePole):
            positive_real_check(LinearModel(
                a=np.eye(2), b=np.array([0.5, -0.5]),
                c=np.array([1.0, -1.0]), sigma2=1.0, zeta=0.0, pi=pi))

    @pytest.mark.parametrize("count", [1, MAX_THETA_COUNT + 1, 10**12])
    def test_theta_count_out_of_range(self, count):
        model, _, _ = two_state_model()
        with pytest.raises(ValidationError, match="theta_count"):
            positive_real_check(model, theta_count=count)

    def test_response_shapes(self):
        model, _, _ = two_state_model()
        resp = positive_real_check(model, theta_count=64, label="demo")
        assert len(resp.theta_grid) == 64
        assert resp.theta_grid[0] == 0.0
        assert resp.theta_grid[-1] == pytest.approx(math.pi)
        assert resp.label == "demo"


def chain_model(p, rng):
    """Linear model of a chain with a random pmf response and output."""
    pi = invariant_pmf(p)
    b = rng.normal(size=p.dim)
    f = rng.normal(size=p.dim)
    c = f - pi.mean(f)
    return LinearModel(a=p.entries.T.copy(), b=b - b.mean(), c=c,
                       sigma2=float(pi.weights @ c ** 2), zeta=0.0, pi=pi)


def lazy_cycle(d, stay=0.05):
    """Cycle that stays put with probability ``stay``: its Hessenberg
    elimination swaps rows about once per angle."""
    return StochasticMatrix(stay * np.eye(d)
                            + (1.0 - stay) * np.roll(np.eye(d), 1, axis=1))


def swaps_needed(model, thetas):
    """Number of (angle, column) pairs at which the elimination swaps rows."""
    d = model.dim
    h, _ = linearize_module._hessenberg(
        model.a - np.outer(model.pi.weights, np.ones(d)))
    count = 0
    for theta in thetas:
        m = cmath.exp(1j * theta) * np.eye(d) - h
        cur = m[0]
        for j in range(d - 1):
            nxt = m[j + 1, j:]
            if abs(nxt[0]) > abs(cur[0]):
                count += 1
                cur, nxt = nxt, cur
            cur = nxt[1:] - nxt[0] / cur[0] * cur[1:]
    return count


def assert_sweep_matches_oracle(model, theta_count, paths=None):
    """The batched sweep equals per-angle transfer_eval to 1e-12 relative;
    ``paths`` (from count_paths) is left holding the sweep's calls alone."""
    thetas = np.linspace(0.0, math.pi, theta_count)
    want = np.array([transfer_eval(model, cmath.exp(1j * t))[0] for t in thetas])
    if paths is not None:
        paths.clear()
    resp = positive_real_check(model, theta_count=theta_count)
    assert np.array_equal(resp.theta_grid, thetas)
    scale = np.abs(want).max()
    assert np.abs(resp.g_values - want).max() <= 1e-12 * scale
    assert 0.0 <= resp.max_residual <= linearize_module.SOLVE_TOL
    return resp


@pytest.fixture(scope="module")
def pool_family():
    model = build_pool_model(PoolModelSpec())
    base, structure = synthesis_inputs(model, "compose")
    return solve_design_ode(base, model.space, "ipd", 0.1, step=0.05,
                            structure=structure)


@pytest.fixture(scope="module")
def pool_spd_family():
    """Direct-route pool spd family, its utility scaled as in criterion 05."""
    model = build_pool_model(PoolModelSpec())
    base, structure = synthesis_inputs(model, "direct")
    util = model.space.util.values
    scale = np.abs(spd_map(base, util).values).max() / 4.0
    space = simple_space(util / scale, anchor=model.space.anchor)
    return solve_design_ode(base, space, "spd", 0.5, step=0.05, structure=structure)


class TestTransferSweep:
    def test_random_chains(self):
        rng = np.random.default_rng(67)
        for d in range(2, 10):
            assert_sweep_matches_oracle(chain_model(random_chain(rng, d), rng),
                                        theta_count=257)

    def test_pool_ipd_family(self, pool_family):
        model = linearize(pool_family, 0.05)
        assert model.dim == 96
        assert_sweep_matches_oracle(model, theta_count=512)

    def test_spd_family(self):
        chain = random_chain(np.random.default_rng(71), 5)
        fam = solve_design_ode(chain, simple_space([1.0, 0.5, 0.0, -0.4, -1.1]),
                               "spd", 0.5, step=0.01)
        for zeta in (-0.5, 0.2):
            assert_sweep_matches_oracle(linearize(fam, zeta), theta_count=300)

    def test_endpoints(self, pool_family):
        model = linearize(pool_family, -0.1)
        resp = positive_real_check(model, theta_count=64)
        for i, z in ((0, 1.0), (-1, -1.0)):
            want, want_plus = transfer_eval(model, z)
            assert abs(resp.g_values[i] - want) <= 1e-12 * abs(want)
            assert abs(resp.g_plus_values[i] - want_plus) <= 1e-12 * abs(want)

    def test_row_swaps(self):
        model = chain_model(lazy_cycle(6), np.random.default_rng(73))
        resp = assert_sweep_matches_oracle(model, theta_count=200)
        assert swaps_needed(model, resp.theta_grid) > 100

    def test_zero_leading_pivot(self):
        # at z = H[0, 0] the first pivot of zI - H is exactly zero; only the
        # row swap keeps the elimination finite
        h = np.array([[0.5, 0.3, 0.1], [0.8, 0.2, 0.4], [0.0, 0.6, 0.1]])
        rhs = np.array([1.0, -2.0, 0.5])
        zs = np.array([0.5, 1.0, cmath.exp(0.4j), -1.0])
        y = linearize_module._hessenberg_solve(h, rhs, zs)
        for k, z in enumerate(zs):
            want = np.linalg.solve(z * np.eye(3) - h, rhs)
            assert np.abs(y[:, k] - want).max() <= 1e-14 * np.abs(want).max()

    def test_count_not_a_multiple_of_block(self):
        block = linearize_module.SWEEP_BLOCK
        model = chain_model(random_chain(np.random.default_rng(79), 7),
                            np.random.default_rng(83))
        for count in (2, block - 1, block + 1, 2 * block + 44):
            resp = assert_sweep_matches_oracle(model, theta_count=count)
            assert len(resp.g_values) == count

    def test_residual_check_raises(self, monkeypatch):
        model = chain_model(random_chain(np.random.default_rng(89), 5),
                            np.random.default_rng(97))
        monkeypatch.setattr(linearize_module, "SOLVE_TOL", 1e-300)
        with pytest.raises(NearSingular, match="ill-conditioned at z = "):
            positive_real_check(model, theta_count=32)

    def test_solve_count_does_not_grow_with_angles(self, pool_family,
                                                   monkeypatch):
        # a return to one dense solve per angle would make this 2048
        model = linearize(pool_family, 0.0)
        calls = []
        solve = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve",
                            lambda *args: calls.append(1) or solve(*args))
        counts = []
        for theta_count in (16, 2048):
            calls.clear()
            positive_real_check(model, theta_count=theta_count)
            counts.append(len(calls))
        assert counts[1] == counts[0]


def ladder_chain(rng, d, stay):
    """Sparse chain: a step up the ladder and one jump back per state, with
    or without self-loops; its elimination fills little."""
    m = np.zeros((d, d))
    for i in range(d):
        m[i, (i + 1) % d] = rng.uniform(0.2, 1.0)
        m[i, rng.integers(0, i + 1)] += rng.uniform(0.1, 1.0)
        if stay:
            m[i, i] += rng.uniform(0.1, 1.0)
    if not stay:
        np.fill_diagonal(m, 0.0)
    return StochasticMatrix(m / m.sum(axis=1, keepdims=True))


def sticky_ladder(rng, d, leave):
    """``ladder_chain`` with self-loops whose state 5 leaves with probability
    ``leave`` only."""
    p = ladder_chain(rng, d, True).entries.copy()
    p[5] *= leave
    p[5, 5] += 1.0 - leave
    return StochasticMatrix(p)


def dyadic_ladder(d):
    """Ladder whose every state steps up, stays or returns to 0 with
    probabilities 1/2, 1/4, 1/4: without the border the last pivot of
    I - A comes out exactly zero."""
    m = np.zeros((d, d))
    for i in range(d):
        m[i, (i + 1) % d] += 0.5
        m[i, i] += 0.25
        m[i, 0] += 0.25
    return StochasticMatrix(m)


def count_paths(monkeypatch):
    """Record which sweep path each block of angles takes, and every dense
    deflated solve."""
    paths = []
    for name in ("_schedule_solve", "_hessenberg_solve", "_deflated_solve"):
        solve = getattr(linearize_module, name)

        def counted(*args, _solve=solve, _name=name):
            paths.append(_name)
            return _solve(*args)
        monkeypatch.setattr(linearize_module, name, counted)
    return paths


class TestScheduleSweep:
    @pytest.mark.parametrize("stay", [True, False])
    def test_sparse_chains_match_oracle(self, stay, monkeypatch):
        rng = np.random.default_rng(101 if stay else 103)
        paths = count_paths(monkeypatch)
        for d in (40, 64):
            p = ladder_chain(rng, d, stay)
            assert np.diag(p.entries).all() if stay else not np.diag(p.entries).any()
            model = chain_model(p, rng)
            assert_sweep_matches_oracle(model, theta_count=700, paths=paths)
            assert paths == ["_schedule_solve"] * 2

    def test_psd_near_and_at_the_perron_root(self):
        # z = 1 and 2 pi are solved on the bordered schedule like any angle
        rng = np.random.default_rng(107)
        for stay in (True, False):
            model = chain_model(ladder_chain(rng, 40, stay), rng)
            thetas = np.array([0.0, 1e-9, 0.5, math.pi, 2.0 * math.pi, 7.0])
            gplus = np.array([transfer_eval(model, cmath.exp(1j * t))[1] for t in thetas])
            want = model.sigma2 + 2.0 * (gplus.real - model.c @ model.b)
            got = psd(model, thetas)
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("case", ["loops", "no_loops", "sticky", "dyadic",
                                      "pool_ipd", "pool_spd_direct"])
    def test_bordered_sweep_at_and_near_z_one(self, case, request, monkeypatch):
        # one bordered elimination at every angle, z = 1 and 2 pi included:
        # no dense solve; "sticky" has a state that leaves with probability
        # 1e-8, whose border multipliers need the projection along pi
        rng = np.random.default_rng(1)
        if case in ("loops", "no_loops"):
            model = chain_model(ladder_chain(rng, 40, case == "loops"), rng)
        elif case == "sticky":
            model = chain_model(sticky_ladder(rng, 40, 1e-8), rng)
        elif case == "dyadic":
            model = chain_model(dyadic_ladder(40), rng)
        elif case == "pool_ipd":
            model = linearize(request.getfixturevalue("pool_family"), -0.1)
        else:
            model = linearize(request.getfixturevalue("pool_spd_family"), 0.5)
        thetas = np.concatenate([[0.0, 1e-12, 1e-9, 2.0 * math.pi],
                                 np.linspace(0.0, math.pi, 300)])
        zs = np.exp(1j * thetas)
        want = np.array([transfer_eval(model, z)[0] for z in zs])
        paths = count_paths(monkeypatch)
        solves = []
        solve = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve",
                            lambda *args: solves.append(1) or solve(*args))
        got, resid = linearize_module._transfer_sweep(model, zs)
        assert paths == ["_schedule_solve"] and not solves
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
        assert resid <= 1e-12

    def test_residual_check_raises(self, monkeypatch):
        model = chain_model(ladder_chain(np.random.default_rng(109), 40, True),
                            np.random.default_rng(113))
        paths = count_paths(monkeypatch)
        monkeypatch.setattr(linearize_module, "SOLVE_TOL", 1e-300)
        with pytest.raises(NearSingular, match="ill-conditioned at z = "):
            positive_real_check(model, theta_count=32)
        assert paths == ["_schedule_solve"]

    def test_path_rule(self, pool_family, monkeypatch):
        # 475 entries touched per angle on the pool against 4 608 for
        # Hessenberg; a fully supported chain fills completely
        paths = count_paths(monkeypatch)
        positive_real_check(linearize(pool_family, 0.05), theta_count=600)
        assert paths == ["_schedule_solve"] * 2
        paths.clear()
        rng = np.random.default_rng(127)
        positive_real_check(chain_model(random_chain(rng, 12), rng), theta_count=600)
        assert paths == ["_hessenberg_solve"] * 5

    def test_row_swaps_on_a_dense_pattern(self, monkeypatch):
        # a lazy cycle with every other entry at 1e-3: Hessenberg runs, and
        # its elimination swaps rows
        p = 0.994 * lazy_cycle(6).entries + 1e-3
        model = chain_model(StochasticMatrix(p), np.random.default_rng(131))
        paths = count_paths(monkeypatch)
        resp = assert_sweep_matches_oracle(model, theta_count=200, paths=paths)
        assert paths == ["_hessenberg_solve"] * 2
        assert swaps_needed(model, resp.theta_grid) > 100

    def test_pool_schedule_fill(self, pool_family):
        step = pool_family.step_support
        mask = pool_family.kernel_at(0.0).entries.T != 0.0
        schedule = markov._schedule(mask)
        assert schedule.size - step.rows.size <= 47
        assert schedule.work < 96 * 96 / 2
        # the reverse order's fill has filled the border row already
        assert markov._schedule(mask, border=True).work == schedule.work

    def test_one_plan_per_sweep(self, pool_family, monkeypatch):
        # every positive_real_check plans its own model's pattern once,
        # whatever ran before it, so a sweep repeated after others gives
        # the same values bitwise
        plans = []
        schedule = markov._schedule

        def counted(mask, border=False):
            plans.append(border)
            return schedule(mask, border)

        models = [linearize(pool_family, z) for z in (-0.05, 0.0, 0.05)]
        monkeypatch.setattr(linearize_module, "_schedule", counted)
        first = [positive_real_check(m, theta_count=64).g_values for m in models]
        assert plans == [True] * 3
        again = positive_real_check(models[0], theta_count=64).g_values
        assert plans == [True] * 4
        assert again.tobytes() == first[0].tobytes()

    def test_dense_pattern_builds_no_pivots(self, monkeypatch):
        # a fully supported chain takes the Hessenberg path, decided from
        # the schedule's counted work before any pivot is planned
        rng = np.random.default_rng(127)
        model = chain_model(random_chain(rng, 12), rng)
        want = positive_real_check(model, theta_count=600).g_values

        def refused(*args):
            raise AssertionError("a pivot was built")

        monkeypatch.setattr(markov, "Pivot", refused)
        paths = count_paths(monkeypatch)
        got = positive_real_check(model, theta_count=600).g_values
        assert paths == ["_hessenberg_solve"] * 5
        assert got.tobytes() == want.tobytes()

    def test_work_counts_the_pivots(self, pool_family):
        # the work counted on the filled pattern is what the pivots touch
        rng = np.random.default_rng(137)
        masks = [pool_family.kernel_at(0.0).entries.T != 0.0,
                 (np.eye(20, k=-1) + np.eye(20, k=1)) != 0.0,
                 np.ones((7, 7), dtype=bool), np.zeros((1, 1), dtype=bool)]
        masks += [rng.random((d, d)) < q for d in (9, 30) for q in (0.05, 0.2)]
        for mask in masks:
            for border in (False, True):
                schedule = markov._schedule(mask, border)
                touched = sum(p.targets.size for p in schedule.pivots)
                assert schedule.work == schedule.size + touched

    def test_border_fills_only_its_row(self):
        # a birth-death pattern, which eliminates without fill
        mask = (np.eye(20, k=-1) + np.eye(20, k=1)) != 0.0
        plain, bordered = markov._schedule(mask), markov._schedule(mask, border=True)
        last = bordered.pivots[-1].state
        assert last == plain.pivots[-1].state
        assert not (plain.slots[last] >= 0).all() and (bordered.slots[last] >= 0).all()
        assert np.array_equal(np.delete(bordered.slots >= 0, last, axis=0),
                              np.delete(plain.slots >= 0, last, axis=0))

    def test_linearize_validates_two_kernels(self, pool_family, monkeypatch):
        # the per-step and jump kernels; the pmf and the design rate read
        # the tilted values on the support
        count = []
        post_init = StochasticMatrix.__post_init__

        def counted(self):
            count.append(1)
            post_init(self)

        linearize(pool_family, -0.05)  # the family keeps its step support
        monkeypatch.setattr(StochasticMatrix, "__post_init__", counted)
        for zeta in (0.0, 0.05, 0.1):
            count.clear()
            linearize(pool_family, zeta)
            assert len(count) == 2


class TestPsd:
    def test_iid_chain_is_flat(self, rng):
        row = rng.dirichlet(np.ones(3) * 2.0)
        p = StochasticMatrix(np.tile(row, (3, 1)))
        pi = invariant_pmf(p)
        util = np.array([1.0, 0.0, -1.0])
        space = LoadStateSpace(3, 1, StateFunction(util))
        fam = build_exponential_family(p, space, "myopic", 0.5)
        model = linearize(fam, 0.0)
        thetas = np.linspace(0.0, math.pi, 33)
        np.testing.assert_allclose(psd(model, thetas), model.sigma2, atol=1e-13)

    def test_identity_with_transfer_function_on_spd(self):
        chain = random_chain(np.random.default_rng(59), 4)
        fam = solve_design_ode(chain, simple_space([1.0, 0.3, -0.3, -1.0]),
                               "spd", 0.5, step=0.01)
        model = linearize(fam, 0.5)
        resp = positive_real_check(model, theta_count=257)
        spectrum = psd(model, resp.theta_grid)
        assert spectrum.min() >= -1e-10
        gap = np.abs(2.0 * resp.g_plus_values.real - model.sigma2 - spectrum)
        assert gap.max() <= 1e-8

    def test_second_unit_modulus_eigenvalue_rejected(self):
        pi = Pmf(np.array([0.5, 0.5]))
        model = LinearModel(a=np.eye(2), b=np.array([0.5, -0.5]),
                            c=np.array([1.0, -1.0]), sigma2=1.0, zeta=0.0, pi=pi)
        with pytest.raises(UnstablePole):
            psd(model, np.linspace(0.0, math.pi, 9))


class TestBodeExport:
    def test_empty_is_header_only(self):
        text = bode_export([])
        assert text == "theta_rad\n"

    @pytest.mark.parametrize("period", [math.inf, math.nan])
    def test_sample_period_must_be_finite(self, period):
        with pytest.raises(ValidationError, match="sample_period"):
            bode_export([], sample_period=period)

    def test_three_designs_export(self, tmp_path):
        chain = random_chain(np.random.default_rng(61), 4)
        space = simple_space([1.0, 0.4, -0.4, -1.0])
        responses = []
        for kind in ("myopic", "ipd0"):
            fam = build_exponential_family(chain, space, kind, 0.5)
            responses.append(positive_real_check(linearize(fam, 0.2),
                                                 theta_count=16, label=kind))
        spd_fam = solve_design_ode(chain, space, "spd", 0.5, step=0.01)
        responses.append(positive_real_check(linearize(spd_fam, 0.2),
                                             theta_count=16, label="spd"))
        path = tmp_path / "bode.csv"
        text = bode_export(responses, path=path, sample_period=300.0)
        lines = text.strip().split("\n")
        assert len(lines) == 17
        header = lines[0].split(",")
        assert header[:2] == ["theta_rad", "freq_hz"]
        assert "myopic_mag_db" in header and "spd_margin" in header
        assert path.read_text() == text
        margin_col = header.index("spd_margin")
        margins = {line.split(",")[margin_col] for line in lines[1:]}
        assert len(margins) == 1

    def test_mismatched_grids_rejected(self):
        model, _, _ = two_state_model()
        r1 = positive_real_check(model, theta_count=16)
        r2 = positive_real_check(model, theta_count=32)
        with pytest.raises(ValidationError):
            bode_export([r1, r2])
