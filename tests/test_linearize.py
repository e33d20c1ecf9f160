import cmath
import math

import numpy as np
import pytest

from ddispatch.design import (
    DesignFamily,
    LoadStateSpace,
    build_exponential_family,
    geometric_compose,
    solve_design_ode,
)
from ddispatch.errors import NearSingular, UnstablePole, ValidationError
from ddispatch.linearize import (
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
from ddispatch.markov import Pmf, StateFunction, StochasticMatrix, invariant_pmf

from conftest import random_chain, two_state


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
        lazy = geometric_compose(fam, 0.25)
        np.testing.assert_allclose(family_kernel_derivative(lazy, 0.3),
                                   0.25 * family_kernel_derivative(fam, 0.3),
                                   atol=1e-15)
        zeta, delta = 0.3, 1e-3
        fd = (lazy.kernel_at(zeta + delta).entries
              - lazy.kernel_at(zeta - delta).entries) / (2 * delta)
        assert np.abs(fd - family_kernel_derivative(lazy, zeta)).max() <= 5e-5


class TestLinearModel:
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
        lazy = geometric_compose(fam, 1.0 / 3.0)
        model = linearize(lazy, 0.25)
        np.testing.assert_allclose(b_adjoint_form(lazy, 0.25), model.b,
                                   atol=1e-13)
        np.testing.assert_allclose(model.b,
                                   (1.0 / 3.0) * linearize(fam, 0.25).b,
                                   atol=1e-13)

    def test_linearize_evaluates_design_rate_once(self, monkeypatch):
        # the rate feeds both b and the time-reversal cross-check; on an ODE
        # family each evaluation is an invariant solve plus a Poisson solve
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

    def test_response_shapes(self):
        model, _, _ = two_state_model()
        resp = positive_real_check(model, theta_count=64, label="demo")
        assert len(resp.theta_grid) == 64
        assert resp.theta_grid[0] == 0.0
        assert resp.theta_grid[-1] == pytest.approx(math.pi)
        assert resp.label == "demo"


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


class TestBodeExport:
    def test_empty_is_header_only(self):
        text = bode_export([])
        assert text == "theta_rad\n"

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
