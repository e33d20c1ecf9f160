import json
import math

import numpy as np
import pytest

from ddispatch import design as design_module
from ddispatch import markov
from ddispatch.design import (
    DesignFamily,
    FamilyStructure,
    LoadStateSpace,
    _design_rate,
    build_exponential_family,
    family_optimality_residual,
    ipd_map,
    lift_control,
    load_family,
    optimality_residual,
    reward_value,
    save_family,
    solve_design_ode,
    spd_map,
    tilt,
)
from ddispatch.errors import (
    AdjointProductReducible,
    IntegrationDiverged,
    NonFinite,
    NotIrreducible,
    OutOfGrid,
    SingularSystem,
    ValidationError,
)
from ddispatch.linearize import linearize
from ddispatch.loads import (PoolModelSpec, TclModelSpec, build_pool_model,
                             build_tcl_model, synthesis_inputs)
from ddispatch.markov import (
    StateFunction,
    StochasticMatrix,
    _lu_invariant,
    _poisson_raw,
    adjoint_product,
    invariant_pmf,
    relative_entropy_rate,
)
from ddispatch.sim import FleetState, fleet_step

from conftest import composed, cycle_chain, random_chain, sparse_random_chain, two_state


def simple_space(util, anchor=0):
    u = np.asarray(util, dtype=float)
    return LoadStateSpace(n_control=len(u), n_exo=1,
                          util=StateFunction(u), anchor=anchor)


def product_space(rng, n_control=2, n_exo=2, seed_util=None):
    """Random factorized model: controllable kernel x exogenous kernel."""
    d = n_control * n_exo
    r0 = rng.dirichlet(np.ones(n_control) * 3.0, size=n_control)
    q0 = rng.dirichlet(np.ones(n_exo) * 3.0, size=d)
    base = np.zeros((d, d))
    for x in range(d):
        for c in range(n_control):
            for e in range(n_exo):
                base[x, c * n_exo + e] = r0[x // n_exo, c] * q0[x, e]
    util = seed_util if seed_util is not None else rng.normal(size=d)
    space = LoadStateSpace(n_control=n_control, n_exo=n_exo,
                           util=StateFunction(np.asarray(util, dtype=float)),
                           exo_kernel=StochasticMatrix(q0))
    return space, StochasticMatrix(base), r0, q0


class TestLoadStateSpace:
    def test_product_indexing(self, rng):
        space, _, _, _ = product_space(rng, n_control=3, n_exo=4)
        assert space.dim == 12

    def test_rejects_bad_anchor(self):
        with pytest.raises(ValidationError):
            LoadStateSpace(2, 1, StateFunction(np.zeros(2)), anchor=5)

    def test_rejects_missing_exo_kernel(self):
        with pytest.raises(ValidationError):
            LoadStateSpace(2, 2, StateFunction(np.zeros(4)))

    def test_rejects_util_length(self):
        with pytest.raises(ValidationError):
            LoadStateSpace(3, 1, StateFunction(np.zeros(2)))


class TestLift:
    def test_no_exo_is_successor_value(self, rng):
        space = simple_space(rng.normal(size=4))
        h = rng.normal(size=4)
        pair = lift_control(space, h)
        assert pair.shape == (4, 4)
        for x in range(4):
            np.testing.assert_array_equal(pair[x], h)

    def test_exo_lift_averages_successor_noise(self, rng):
        space, _, _, q0 = product_space(rng)
        h = rng.normal(size=space.dim)
        pair = lift_control(space, h)
        hmat = h.reshape(space.n_control, space.n_exo)
        for x in range(space.dim):
            for xp in range(space.dim):
                want = sum(q0[x, e] * hmat[xp // space.n_exo, e]
                           for e in range(space.n_exo))
                assert pair[x, xp] == pytest.approx(want, abs=1e-14)

    def test_exo_lift_ignores_exo_successor(self, rng):
        # columns sharing a controllable successor must be identical
        space, _, _, _ = product_space(rng, n_control=3, n_exo=2)
        pair = lift_control(space, rng.normal(size=space.dim))
        for c in range(3):
            np.testing.assert_array_equal(pair[:, 2 * c], pair[:, 2 * c + 1])

    def test_wrong_length_refused(self):
        with pytest.raises(ValidationError):
            lift_control(simple_space([1.0, 0.0]), [1.0, 2.0, 3.0])


class TestTilt:
    def test_wrong_shape_refused(self):
        with pytest.raises(ValidationError):
            tilt(two_state(0.3, 0.2), np.zeros((3, 3)))

    def test_two_state_closed_form(self):
        base = StochasticMatrix(np.full((2, 2), 0.5))
        pair = np.tile([0.0, 1.0], (2, 1))
        tilted, log_norm = tilt(base, pair)
        e = math.e
        for x in range(2):
            assert tilted.entries[x, 0] == pytest.approx(1.0 / (1.0 + e), abs=1e-15)
            assert tilted.entries[x, 1] == pytest.approx(e / (1.0 + e), abs=1e-15)
            assert log_norm.values[x] == pytest.approx(
                math.log(0.5 * (1.0 + e)), abs=1e-14)

    def test_zero_pair_is_identity(self, rng):
        for _ in range(10):
            base = random_chain(rng, 6)
            tilted, log_norm = tilt(base, np.zeros((6, 6)))
            assert np.abs(tilted.entries - base.entries).max() <= 1e-15
            assert np.abs(log_norm.values).max() <= 1e-14

    def test_constant_shift_invariance(self, rng):
        base = random_chain(rng, 5)
        pair = rng.normal(size=(5, 5))
        a, _ = tilt(base, pair)
        b, log_norm = tilt(base, pair + 7.25)
        assert np.abs(a.entries - b.entries).max() <= 1e-12
        # the normalizer absorbs the shift exactly
        _, log_norm0 = tilt(base, pair)
        np.testing.assert_allclose(log_norm.values,
                                   log_norm0.values + 7.25,
                                   rtol=0.0, atol=1e-12)

    def test_support_preserved(self, rng):
        base = cycle_chain(5)
        pair = rng.normal(size=(5, 5))
        tilted, _ = tilt(base, pair)
        np.testing.assert_array_equal(tilted.support, base.support)

    def test_definition_matches(self, rng):
        base = random_chain(rng, 4)
        pair = rng.normal(size=(4, 4)) * 2.0
        tilted, log_norm = tilt(base, pair)
        lam = log_norm.values
        want = base.entries * np.exp(pair - lam[:, None])
        np.testing.assert_allclose(tilted.entries, want, rtol=0.0, atol=1e-13)

    def test_extreme_pair_values_stay_finite(self, rng):
        base = random_chain(rng, 3)
        tilted, _ = tilt(base, np.array([[500.0, -200.0, 0.0]] * 3))
        assert np.all(np.isfinite(tilted.entries))
        np.testing.assert_allclose(tilted.entries[:, 0], 1.0, atol=1e-12)

    def test_non_finite_pair_rejected(self):
        base = StochasticMatrix(np.full((2, 2), 0.5))
        with pytest.raises(NonFinite):
            tilt(base, np.array([[0.0, np.inf], [0.0, 0.0]]))

    def test_normalizer_is_constrained_maximum(self, rng):
        # Lambda(x) = max over row pmfs of  E_nu[pair] - D(nu | base row);
        # the maximizer is the tilted row itself, any other pmf does worse.
        base = random_chain(rng, 4)
        pair = rng.normal(size=(4, 4))
        tilted, log_norm = tilt(base, pair)
        for x in range(4):
            row0 = base.entries[x]
            star = tilted.entries[x]
            value = star @ pair[x] - star @ np.log(star / row0)
            assert value == pytest.approx(log_norm.values[x], abs=1e-10)
            for _ in range(20):
                nu = rng.dirichlet(np.ones(4))
                trial = nu @ pair[x] - nu @ np.log(nu / row0)
                assert trial <= log_norm.values[x] + 1e-12


def dense_tilt(base, pair):
    """Oracle: base * exp(pair - Lambda) and Lambda, on the full d x d table."""
    lam = np.log((base * np.exp(pair)).sum(axis=1))
    return base * np.exp(pair - lam[:, None]), lam


def sparse_product_space(rng, n_control=4, n_exo=3):
    """Product space whose controllable kernel has zeros (n_exo > 1)."""
    space, _, r0, q0 = product_space(rng, n_control, n_exo)
    r0 = r0 * (rng.random(r0.shape) < 0.6)
    r0[np.arange(n_control), (np.arange(n_control) + 1) % n_control] += 0.3
    r0 /= r0.sum(axis=1, keepdims=True)
    base = np.einsum("xc,xe->xce", r0[np.arange(space.dim) // n_exo], q0)
    return space, StochasticMatrix(base.reshape(space.dim, space.dim))


class TestSupportTilt:
    """The tilt works on the base's nonzeros only; the oracle is the dense
    formula base * exp(pair - Lambda) over the whole table."""

    def test_random_sparse_chains(self, rng):
        for d in (1, 2, 5, 12, 40):
            for _ in range(5):
                base = sparse_random_chain(rng, d)
                pair = 3.0 * rng.normal(size=(d, d))
                tilted, log_norm = tilt(base, pair)
                want, lam = dense_tilt(base.entries, pair)
                np.testing.assert_allclose(tilted.entries, want, rtol=0.0, atol=1e-13)
                np.testing.assert_allclose(log_norm.values, lam, rtol=0.0, atol=1e-13)
                np.testing.assert_array_equal(tilted.support, base.support)

    def test_pair_off_the_support_is_ignored(self, rng):
        base = cycle_chain(5)
        pair = rng.normal(size=(5, 5))
        pair[~base.support] = np.nan
        tilted, _ = tilt(base, pair)
        want, _ = dense_tilt(base.entries, np.where(base.support, pair, 0.0))
        np.testing.assert_allclose(tilted.entries, want, rtol=0.0, atol=1e-13)

    def test_product_space_family(self, rng):
        space, base = sparse_product_space(rng)
        assert not base.support.all()
        gen = rng.normal(size=space.dim)
        grid = np.linspace(-1.0, 1.0, 9)
        fam = DesignFamily(space, base, "custom", FamilyStructure(), grid,
                           grid[:, None] * gen)
        for zeta in (-1.0, -0.3, 0.0, 0.6, 1.0):
            want, _ = dense_tilt(base.entries, lift_control(space, zeta * gen))
            got = fam.jump_kernel_at(zeta).entries
            np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-13)
            np.testing.assert_array_equal(fam.jump_values_at(zeta),
                                          got[fam.support.rows, fam.support.cols])

    def test_pool_jump_kernel(self, rng):
        model = build_pool_model(PoolModelSpec())
        base, _ = synthesis_inputs(model, "compose")
        space = model.space
        assert base.support.sum() == 190
        for scale in (0.1, 1.0, 5.0):
            h = scale * rng.normal(size=space.dim)
            want, lam = dense_tilt(base.entries, lift_control(space, h))
            tilted, log_norm = tilt(base, lift_control(space, h))
            np.testing.assert_allclose(tilted.entries, want, rtol=0.0, atol=1e-13)
            np.testing.assert_allclose(log_norm.values, lam, rtol=0.0, atol=1e-13)

    def test_nonzeros_built_once(self, rng, monkeypatch):
        # a family reads its base's nonzeros; tilting that base again, or
        # checking a design on it, builds nothing
        base = sparse_random_chain(rng, 8)
        space = simple_space(rng.normal(size=8))
        fam = solve_design_ode(base, space, "ipd", 0.2, step=0.1)
        assert fam.support is fam.base.nonzeros
        h = fam.h_at(0.2)
        tilt(base, lift_control(space, h))
        calls = []
        nonzero = np.nonzero
        monkeypatch.setattr(np, "nonzero", lambda *a: calls.append(1) or nonzero(*a))
        tilt(base, lift_control(space, h))
        optimality_residual(h, 0.0, 0.2, base, space)
        assert calls == []
        StochasticMatrix(base.entries).nonzeros  # the counter does count
        assert calls == [1]

    def test_underflow_is_caught_on_every_path(self):
        base = StochasticMatrix(np.full((2, 2), 0.5))
        with pytest.raises(NonFinite, match="support of the tilted kernel shrank"):
            tilt(base, np.array([[0.0, 800.0], [0.0, 0.0]]))
        fam = build_exponential_family(base, simple_space([0.0, 800.0]), "myopic",
                                       1.0, step=1.0)
        fleet = FleetState.from_states([0, 1], 2)
        for use in (fam.jump_values_at, fam.jump_kernel_at, fam.step_values_at,
                    fam.kernel_at, fam.pi_at,
                    lambda z: fleet_step(fleet, z, fam, np.random.default_rng(0))):
            with pytest.raises(NonFinite):
                use(1.0)
        fam.jump_kernel_at(0.0)


class TestDesignMaps:
    def test_ipd_is_centered_potential(self, rng):
        p = random_chain(rng, 5)
        util = rng.normal(size=5)
        h = ipd_map(p, util, anchor=2)
        pi = invariant_pmf(p)
        resid = h.values - p.entries @ h.values - (util - pi.mean(util))
        assert np.abs(resid).max() <= 1e-10
        assert h.values[2] == 0.0

    def test_spd_solves_doubled_equation(self, rng):
        p = random_chain(rng, 4)
        util = rng.normal(size=4)
        h = spd_map(p, util)
        pi = invariant_pmf(p)
        doubled = adjoint_product(p, pi)
        resid = h.values - doubled.entries @ h.values - (util - pi.mean(util))
        assert np.abs(resid).max() <= 1e-9

    def test_spd_checks_its_poisson_residual(self, rng, monkeypatch):
        solve = markov._solve

        def perturbed(a, b, what):
            x = solve(a, b, what)
            return x + 1e-6 * (what == "poisson") * np.arange(x.size)

        monkeypatch.setattr(markov, "_solve", perturbed)
        with pytest.raises(SingularSystem, match="poisson residual"):
            spd_map(random_chain(rng, 4), rng.normal(size=4))

    def test_spd_rejects_reducible_doubled_kernel(self):
        with pytest.raises(AdjointProductReducible):
            spd_map(cycle_chain(4), np.array([1.0, 0.0, 0.0, -1.0]))

    def test_spd_rejects_reducible_kernel(self):
        with pytest.raises(NotIrreducible):
            spd_map(StochasticMatrix(np.eye(2)), [1.0, 0.0])

    def test_maps_agree_for_reversible_lazy_chain(self):
        # for a reversible kernel the doubled kernel is P^2; the two rules
        # still differ unless P^2 = P, so only check both anchor and units
        p = two_state(0.3, 0.2)
        util = StateFunction(np.array([1.0, 0.0]), units="kW")
        hi = ipd_map(p, util)
        hs = spd_map(p, util)
        assert hi.units == "kW" and hs.units == "kW"
        assert hi.values[0] == 0.0 and hs.values[0] == 0.0

    @pytest.mark.parametrize("kind,route", [("pool", "direct"), ("tcl", "compose"),
                                            ("tcl", "direct")])
    def test_spd_map_is_the_design_rate_at_zero(self, kind, route):
        # both form the doubled kernel with one helper: bitwise equal (the
        # pool's composed doubled kernel is reducible, so spd_map rejects it)
        if kind == "pool":
            model = build_pool_model(PoolModelSpec())
        else:
            model = build_tcl_model(TclModelSpec(), samples_per_state=1000, seed=0)
        base, _ = synthesis_inputs(model, route)
        space = model.space
        rate = _design_rate("spd", space, base.nonzeros, base.nonzeros.values)
        assert np.array_equal(spd_map(base, space.util, space.anchor).values, rate)


def ode_family(d=3, zeta_max=1.0, step=0.01, kind="ipd", util=None,
               chain=None, anchor=0):
    if chain is None:
        chain = random_chain(np.random.default_rng(7), d)
    if util is None:
        util = np.linspace(1.0, -1.0, chain.dim)
    space = simple_space(util, anchor=anchor)
    return solve_design_ode(chain, space, kind, zeta_max, step=step)


class TestDesignOde:
    @pytest.mark.parametrize("kind,d", [("myopic", 2), ("ipd", 3)],
                             ids=["generator_kind", "base_larger_than_space"])
    def test_refusals(self, kind, d):
        with pytest.raises(ValidationError):
            solve_design_ode(random_chain(np.random.default_rng(7), d),
                             simple_space([1.0, 0.0]), kind, 0.1)

    def test_zero_command_is_nominal(self):
        fam = ode_family()
        assert np.abs(fam.h_at(0.0)).max() == 0.0
        assert np.abs(fam.kernel_at(0.0).entries - fam.base.entries).max() <= 1e-15

    def test_anchor_pinned_along_family(self):
        fam = ode_family(anchor=1)
        assert np.abs(fam.h_grid[:, 1]).max() == 0.0

    def test_ipd_family_solves_optimality_equation(self):
        fam = ode_family(zeta_max=1.0, step=0.01)
        for zeta in (-1.0, -0.4, 0.5, 1.0):
            assert family_optimality_residual(fam, zeta) <= 1e-4

    def test_residual_shrinks_at_fourth_order(self):
        coarse = ode_family(step=0.04)
        fine = ode_family(step=0.02)
        r1 = family_optimality_residual(coarse, 1.0)
        r2 = family_optimality_residual(fine, 1.0)
        assert 8.0 <= r1 / r2 <= 32.0

    def test_rate_matches_finite_difference(self):
        fam = ode_family(step=0.005, zeta_max=0.5)
        for zeta in (0.2, -0.3):
            fd = (fam.h_at(zeta + 0.02) - fam.h_at(zeta - 0.02)) / 0.04
            rate = fam.h_rate_at(zeta)
            assert np.abs(fd - rate).max() <= 5e-3

    def test_finite_difference_error_is_second_order(self):
        fam = ode_family(step=0.005, zeta_max=0.5)
        zeta = 0.25
        rate = fam.h_rate_at(zeta)
        errs = []
        for delta in (0.08, 0.04):
            fd = (fam.h_at(zeta + delta) - fam.h_at(zeta - delta)) / (2 * delta)
            errs.append(np.abs(fd - rate).max())
        assert 2.5 <= errs[0] / errs[1] <= 5.5

    def test_off_grid_matches_quarter_step_family(self):
        # fourth order between grid points: 9e-8 measured, where a linear
        # fill of the same grid errs by 1.7e-4
        coarse, fine = ode_family(step=0.04), ode_family(step=0.01)
        for k in range(len(fine.zeta_grid)):
            if k % 4:
                gap = np.abs(coarse.h_at(fine.zeta_grid[k]) - fine.h_grid[k]).max()
                assert gap <= 1e-6

    def test_optimality_holds_between_grid_points(self):
        # 1e-11 to 1.1e-10 measured, where a linear fill of h gives 2e-6 to 1e-5
        fam = ode_family(zeta_max=1.0, step=0.01)
        for zeta in (-0.733, 0.005, 0.4567):
            assert family_optimality_residual(fam, zeta) <= 1e-9

    def test_mean_output_increases_with_command(self):
        fam = ode_family(zeta_max=2.0, step=0.02)
        ubars = [fam.ubar_at(z) for z in np.linspace(-2.0, 2.0, 21)]
        assert np.all(np.diff(ubars) > 0.0)

    def test_payoff_level_is_convex_in_command(self):
        fam = ode_family(zeta_max=1.0, step=0.01)
        zs = np.linspace(-1.0, 1.0, 11)
        eta = []
        for z in zs:
            kern = fam.jump_kernel_at(z)
            pi = invariant_pmf(kern)
            eta.append(z * pi.mean(fam.space.util)
                       - relative_entropy_rate(kern, fam.base, pi))
        second = np.diff(eta, 2)
        assert second.min() >= -1e-8

    def test_spd_family_runs(self):
        fam = ode_family(kind="spd", zeta_max=0.5, step=0.01)
        assert family_optimality_residual(fam, 0.0) <= 1e-12

    def test_diverging_run_reports_last_good_command(self):
        base = two_state(0.5, 0.5)
        space = simple_space([0.0, 800.0])
        with pytest.raises(IntegrationDiverged) as info:
            solve_design_ode(base, space, "ipd", 2.0, step=0.01)
        assert info.value.zeta_reached is not None
        assert 0.0 < info.value.zeta_reached < 2.0

    def test_rejects_reducible_base(self):
        blocks = StochasticMatrix(np.array([
            [0.5, 0.5, 0.0, 0.0],
            [0.5, 0.5, 0.0, 0.0],
            [0.0, 0.0, 0.5, 0.5],
            [0.0, 0.0, 0.5, 0.5],
        ]))
        with pytest.raises(NotIrreducible):
            solve_design_ode(blocks, simple_space([0, 1, 2, 3.0]), "ipd", 0.5)

    def test_rejects_bad_step(self):
        base = two_state(0.3, 0.4)
        space = simple_space([0.0, 1.0])
        with pytest.raises(ValidationError):
            solve_design_ode(base, space, "ipd", 1.0, step=-0.01)
        with pytest.raises(ValidationError):
            solve_design_ode(base, space, "ipd", 1.0, step=0.3)

    def test_grid_above_maximum_rejected(self):
        # refused before the grid is allocated: 1e9 / 0.01 would be 1.6 TB
        base = two_state(0.3, 0.4)
        space = simple_space([0.0, 1.0])
        for zeta_max in (1e5, 1e9, math.inf):
            for build in (lambda: solve_design_ode(base, space, "ipd", zeta_max, step=0.01),
                          lambda: build_exponential_family(base, space, "myopic", zeta_max,
                                                           step=0.01)):
                with pytest.raises(ValidationError, match="more than 60001"):
                    build()
        top = 0.01 * (design_module.MAX_GRID_POINTS - 1) / 2
        fam = build_exponential_family(base, space, "myopic", top, step=0.01)
        assert fam.zeta_grid.size == design_module.MAX_GRID_POINTS

    def test_spd_with_exo_warns(self, rng):
        space, base, _, _ = product_space(rng)
        with pytest.warns(UserWarning):
            solve_design_ode(base, space, "spd", 0.2, step=0.02)


class TestExponentialFamilies:
    @pytest.mark.parametrize("kind,step", [
        ("myopic", 0.5), ("ipd", 0.01), ("custom", 0.01),
    ], ids=["step_above_zeta_max", "ode_kind", "custom_kind"])
    def test_refusals(self, kind, step):
        with pytest.raises(ValidationError):
            build_exponential_family(two_state(0.3, 0.2), simple_space([1.0, 0.0]),
                                     kind, 0.1, step=step)

    def test_myopic_generator_is_output(self, rng):
        base = random_chain(rng, 4)
        util = rng.normal(size=4)
        fam = build_exponential_family(base, simple_space(util), "myopic", 1.0)
        np.testing.assert_array_equal(fam.h_grid, np.multiply.outer(fam.zeta_grid, util))
        np.testing.assert_allclose(fam.h_at(0.62), 0.62 * util, atol=1e-12)

    def test_frozen_direction_matches_map_at_base(self, rng):
        base = random_chain(rng, 5)
        util = rng.normal(size=5)
        fam = build_exponential_family(base, simple_space(util), "ipd0", 1.0)
        np.testing.assert_allclose(
            fam.h_grid, np.multiply.outer(fam.zeta_grid, ipd_map(base, util).values),
            atol=1e-14)

    def test_frozen_family_tracks_adapted_family(self):
        # same direction at zero, so kernels drift apart quadratically and
        # the payoff gap is two orders beyond that
        rows = np.random.default_rng(5).dirichlet(np.ones(5) * 5.0, size=5)
        chain = StochasticMatrix(rows)
        util = np.linspace(-1.0, 1.0, 5)
        space = simple_space(util)
        adapted = solve_design_ode(chain, space, "ipd", 0.4, step=0.0025)
        frozen = build_exponential_family(chain, space, "ipd0", 0.4, step=0.0025)

        def kernel_gap(z):
            return np.abs(adapted.kernel_at(z).entries
                          - frozen.kernel_at(z).entries).max()

        def payoff_gap(z):
            a = reward_value(adapted.jump_kernel_at(z), chain, util, z)
            f = reward_value(frozen.jump_kernel_at(z), chain, util, z)
            return a - f

        for z in (0.4, 0.2, 0.1):
            assert 3.5 <= kernel_gap(z) / kernel_gap(z / 2) <= 4.5
            gap, half = payoff_gap(z), payoff_gap(z / 2)
            assert half > 0.0
            assert 12.0 <= gap / half <= 20.0


class TestFamilyContainer:
    @pytest.mark.parametrize("zeta_grid,h_grid", [
        ([], np.zeros((0, 2))), ([-0.1, 0.0, 0.1], [[0.0, 0.0], [0.0, 0.0], [math.inf, 0.0]]),
    ], ids=["empty_grid", "infinite_h"])
    def test_refusals(self, zeta_grid, h_grid):
        with pytest.raises(ValidationError):
            DesignFamily(simple_space([1.0, 0.0]), two_state(0.3, 0.2), "ipd",
                         FamilyStructure(), zeta_grid, h_grid)

    def test_out_of_grid(self):
        fam = ode_family(zeta_max=0.5)
        with pytest.raises(OutOfGrid):
            fam.h_at(0.51)
        with pytest.raises(OutOfGrid):
            fam.kernel_at(-2.0)

    def test_nan_command_is_out_of_grid(self):
        fam = ode_family(zeta_max=0.5)
        for call in (fam.h_at, fam.kernel_at, fam.ubar_at):
            with pytest.raises(OutOfGrid):
                call(math.nan)

    def test_grid_snap_and_interp(self):
        fam = ode_family(zeta_max=0.5, step=0.01)
        on = fam.h_at(0.25)
        near = fam.h_at(0.25 + 1e-10)
        np.testing.assert_array_equal(on, near)
        # halfway between grid points the cubic Hermite interpolant is the
        # chord's midpoint plus step / 8 times the difference of the slopes
        i = 75
        assert fam.zeta_grid[i] == pytest.approx(0.25, abs=1e-12)
        h, m = fam.h_grid[i:i + 2], fam.h_slopes[i:i + 2]
        np.testing.assert_allclose(
            fam.h_at(0.255), 0.5 * (h[0] + h[1]) + fam.step / 8.0 * (m[0] - m[1]),
            rtol=0.0, atol=1e-15)

    def test_rejects_nonuniform_grid(self):
        base = two_state(0.3, 0.4)
        space = simple_space([0.0, 1.0])
        grid = np.array([-0.1, 0.0, 0.15])
        with pytest.raises(ValidationError):
            DesignFamily(space, base, "ipd", FamilyStructure(),
                         grid, np.zeros((3, 2)))

    def test_one_point_family(self, tmp_path):
        # a grid of one command loads, evaluates there and nowhere else
        base = two_state(0.3, 0.4)
        h = np.array([0.0, 0.7])
        fam = DesignFamily(simple_space([0.0, 1.0]), base, "ipd", FamilyStructure(),
                           [0.25], h[None])
        save_family(fam, tmp_path / "f.json")
        loaded = load_family(tmp_path / "f.json")
        assert np.array_equal(loaded.h_at(0.25), h)
        want, _ = tilt(base, lift_control(loaded.space, h))
        assert np.abs(loaded.kernel_at(0.25).entries - want.entries).max() <= 1e-15
        assert loaded.ubar_at(0.25) == pytest.approx(invariant_pmf(want).weights[1],
                                                     abs=1e-15)
        for zeta in (-0.25, 0.75):
            with pytest.raises(OutOfGrid):
                loaded.h_at(zeta)

    def test_one_point_family_is_flat(self):
        # no neighbour to difference against: slope zero, so b = 0
        base = two_state(0.3, 0.4)
        fam = DesignFamily(simple_space([0.0, 1.0]), base, "ipd", FamilyStructure(),
                           [0.25], np.array([[0.0, 0.7]]))
        assert np.array_equal(fam.h_slopes, np.zeros((1, 2)))
        assert np.array_equal(fam.h_rate_at(0.25), np.zeros(2))
        assert np.array_equal(linearize(fam, 0.25).b, np.zeros(2))

    def test_structure_validation(self):
        with pytest.raises(ValidationError):
            FamilyStructure(sampling="composed")
        with pytest.raises(ValidationError):
            FamilyStructure(sampling="direct", gamma=0.5)
        with pytest.raises(ValidationError):
            FamilyStructure(sampling="lazy")

    def test_trivial_flag_for_flat_output(self):
        base = two_state(0.3, 0.4)
        fam = build_exponential_family(base, simple_space([2.0, 2.0]),
                                       "myopic", 1.0)
        assert np.abs(fam.kernel_at(1.0).entries - base.entries).max() <= 1e-12


def polynomial_family(coefs, n, step=0.1):
    """Family whose h at command z is sum_k coefs[k] * z**k (one column per
    state), on the n-point grid step * (-1, 0, 1, ..., n - 2)."""
    zeta = step * (np.arange(n) - 1.0)
    h = np.polynomial.polynomial.polyval(zeta, np.asarray(coefs, dtype=float)).T
    return DesignFamily(simple_space([0.0, 1.0]), two_state(0.3, 0.4), "ipd",
                        FamilyStructure(), zeta, h)


def polynomial_rate(coefs, zeta):
    return np.polynomial.polynomial.polyval(
        zeta, np.polynomial.polynomial.polyder(np.asarray(coefs, dtype=float)))


def numpy_scalar_locate(fam, zeta):
    """``DesignFamily._locate`` computed on the grid's numpy scalars, with
    ``np.floor``; None where it raises OutOfGrid."""
    g, snap = fam.zeta_grid, design_module._GRID_SNAP
    lo_edge, hi_edge = g[0], g[-1]
    slack = snap * fam.step
    if not lo_edge - slack <= zeta <= hi_edge + slack:
        return None
    pos = (zeta - lo_edge) / fam.step
    nearest = min(max(int(round(pos)), 0), len(g) - 1)
    if abs(pos - nearest) <= snap:
        return nearest, None
    lo = min(int(np.floor(pos)), len(g) - 2)
    return lo, pos - lo


class TestInterpolant:
    """Between grid points h is the cubic Hermite interpolant on ``h_slopes``,
    and ``h_rate_at`` is its derivative, whatever the kind."""

    @pytest.mark.parametrize("n", [5, 6, 9])
    def test_slopes_exact_for_quartics(self, n):
        # fourth-order differences, the two points at each end included
        coefs = [[0.3, -1.2], [2.0, 0.5], [-0.7, 1.1], [0.4, -0.9], [1.5, 0.8]]
        fam = polynomial_family(coefs, n)
        want = polynomial_rate(coefs, fam.zeta_grid)
        np.testing.assert_allclose(fam.h_slopes, want.T, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("n", [5, 9])
    def test_interpolant_exact_for_cubics(self, n):
        coefs = [[0.3, -1.2], [2.0, 0.5], [-0.7, 1.1], [0.4, -0.9]]
        fam = polynomial_family(coefs, n)
        for zeta in np.linspace(fam.zeta_grid[0], fam.zeta_grid[-1], 4 * n + 1)[1::2]:
            want = np.polynomial.polynomial.polyval(zeta, np.asarray(coefs))
            np.testing.assert_allclose(fam.h_at(zeta), want, rtol=0.0, atol=1e-13)
            np.testing.assert_allclose(fam.h_rate_at(zeta), polynomial_rate(coefs, zeta),
                                       rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("start, step, n", [(-0.37, 0.013, 57), (-3.0, 0.01, 601)])
    def test_locate_matches_numpy_scalars(self, start, step, n):
        # the same (index, fraction), bitwise, on ~1 000 commands: random
        # ones, both ends +- the snap slack, and nodes +- the snap
        zeta = start + step * np.arange(n)
        fam = DesignFamily(simple_space([0.0, 1.0]), two_state(0.3, 0.4), "ipd",
                           FamilyStructure(), zeta, np.zeros((n, 2)))
        snap, (lo, hi) = design_module._GRID_SNAP, fam.zeta_grid[[0, -1]]
        slack = snap * fam.step
        rng = np.random.default_rng(139)
        near = np.array([1.0 - 1e-6, 1.0, 1.0 + 1e-6])
        nodes = fam.zeta_grid[rng.integers(0, n, size=40)]
        commands = np.concatenate([
            rng.uniform(lo - 2.0 * slack - step, hi + 2.0 * slack + step, size=700),
            lo + np.outer([-1.0, 0.0, 1.0], near * slack).ravel(),
            hi + np.outer([-1.0, 0.0, 1.0], near * slack).ravel(),
            (nodes[:, None] + np.concatenate([-near, near]) * slack).ravel(),
            nodes])
        for command in commands.tolist():
            want = numpy_scalar_locate(fam, command)
            if want is None:
                with pytest.raises(OutOfGrid):
                    fam._locate(command)
            else:
                assert fam._locate(command) == want

    def test_one_point_grid_locates_within_slack(self):
        # the only grid point, for every command the slack lets in
        fam = DesignFamily(simple_space([0.0, 1.0]), two_state(0.3, 0.4), "ipd",
                           FamilyStructure(), [0.25], [[0.5, -0.5]])
        for command in (0.25, 0.2500001, 0.2499999):
            assert fam._locate(command) == (0, None)
            np.testing.assert_array_equal(fam.h_at(command), [0.5, -0.5])
            np.testing.assert_array_equal(fam.h_rate_at(command), [0.0, 0.0])
        for command in (0.2500002, 0.2499998):
            with pytest.raises(OutOfGrid):
                fam._locate(command)

    @pytest.mark.parametrize("n", [2, 3, 4, 7])
    def test_generator_family_on_small_grids(self, n):
        # h = zeta * generator is linear, so every slope rule gives the
        # generator; grids below five points take second-order differences
        gen = np.array([0.0, 1.5, -0.4])
        base = random_chain(np.random.default_rng(13), 3)
        zeta = 0.25 * (np.arange(n) - n // 2)
        fam = DesignFamily(simple_space([1.0, 0.0, -1.0]), base, "custom",
                           FamilyStructure(), zeta, zeta[:, None] * gen)
        for z in (zeta[0], zeta[-1], zeta[0] + 0.1, zeta[-1] - 0.03):
            np.testing.assert_allclose(fam.h_rate_at(z), gen, rtol=1e-14, atol=0.0)
            np.testing.assert_allclose(fam.h_at(z), z * gen, rtol=0.0, atol=1e-15)


def count_solves(monkeypatch):
    """Record every np.linalg.solve call from now on; returns the record."""
    calls = []
    solve = np.linalg.solve

    def counting(*args, **kwargs):
        calls.append(None)
        return solve(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "solve", counting)
    return calls


class TestOneFactorization:
    def test_rate_evaluation_solves_twice(self, rng, monkeypatch):
        # one Poisson system, plus the invariant system that spd's time
        # reversal needs; each factorized once
        p = random_chain(rng, 6)
        space = simple_space(rng.normal(size=6))
        calls = count_solves(monkeypatch)
        for kind, solves in (("ipd", 1), ("spd", 2)):
            calls.clear()
            _design_rate(kind, space, p.nonzeros, p.nonzeros.values)
            assert len(calls) == solves

    def test_residual_margin_at_small_mass(self):
        # a tilted pool jump kernel whose invariant pmf reaches 1.5e-8: the
        # residuals sit far inside INVARIANT_TOL (1e-12) and POISSON_TOL
        # (1e-10), so a loss of accuracy shows before a check would trip
        model = build_pool_model(PoolModelSpec())
        base, _ = synthesis_inputs(model, "compose")
        space = model.space
        u = space.util.values
        p = tilt(base, lift_control(space, (u.mean() - u) / np.ptp(u)))[0].entries
        pi = _lu_invariant(p).weights
        assert 0.0 < pi.min() < 1e-7
        assert np.abs(pi @ p - pi).sum() <= 1e-14
        h = _poisson_raw(p, u, space.anchor)
        assert np.abs(p @ h - (h - u + pi @ u)).max() <= 1e-12

    def test_design_classifies_its_base_once(self, monkeypatch):
        calls = []
        classify = markov._classify
        monkeypatch.setattr(markov, "_classify",
                            lambda succ: calls.append(1) or classify(succ))
        base = random_chain(np.random.default_rng(7), 3)
        space = simple_space([1.0, 0.0, -1.0])
        ipd_map(base, space.util)  # what --util-scale auto evaluates
        solve_design_ode(base, space, "ipd", 0.1, step=0.05)
        assert calls == [1]


def count_pmf_solves(monkeypatch):
    """Record the batch width of every GTH pmf solve a family makes."""
    widths = []
    gth = design_module._gth

    def counting(schedule, support, values):
        widths.append(values.shape[1])
        return gth(schedule, support, values)

    monkeypatch.setattr(design_module, "_gth", counting)
    return widths


class TestPmfsOnDemand:
    def test_load_solves_nothing(self, tmp_path, monkeypatch):
        fam = build_exponential_family(random_chain(np.random.default_rng(3), 4),
                                       simple_space([0.0, 1.0, 2.0, 3.0]),
                                       "myopic", 3.0, step=0.01)
        assert fam.zeta_grid.size == 601
        save_family(fam, tmp_path / "family.json")
        calls = count_solves(monkeypatch)
        pmfs = count_pmf_solves(monkeypatch)
        back = load_family(tmp_path / "family.json")
        assert len(calls) == 0 and pmfs == []
        back.pi_at(1.5)
        assert len(calls) == 0 and pmfs == [1]  # one pmf evaluation, no LU

    def test_ubars_is_ubar_at_over_the_grid(self, monkeypatch):
        fam = ode_family(zeta_max=0.5)
        want = np.array([fam.ubar_at(z) for z in fam.zeta_grid])
        got = fam.ubars
        assert got.tobytes() == want.tobytes()
        calls = count_solves(monkeypatch)
        assert fam.ubars is got
        assert len(calls) == 0


def dense_gth(p):
    """Invariant pmf of a dense kernel by GTH, eliminating states 0, 1, ... in turn."""
    a = np.array(p, dtype=float)
    d = len(a)
    for k in range(d - 1):
        a[k + 1:, k] /= a[k, k + 1:].sum()
        a[k + 1:, k + 1:] += np.outer(a[k + 1:, k], a[k, k + 1:])
    x = np.zeros(d)
    x[-1] = 1.0
    for k in range(d - 2, -1, -1):
        x[k] = x[k + 1:] @ a[k + 1:, k]
    return x / x.sum()


@pytest.fixture(scope="module")
def raw_pool_family():
    """Pool ipd family at raw utility scale: pmfs reach 9e-62 at commands +-3."""
    model = build_pool_model(PoolModelSpec())
    base, structure = synthesis_inputs(model, "compose")
    return solve_design_ode(base, model.space, "ipd", 3.0, step=0.01,
                            structure=structure)


class TestGthPmfs:
    def test_batched_gth_matches_lu(self, raw_pool_family):
        fam = raw_pool_family
        zetas = fam.zeta_grid[::20]
        values = np.stack([fam.step_values_at(z) for z in zetas], axis=1)
        solves = markov._gth(fam.schedule, fam.step_support, values)
        assert len(solves) == len(zetas)
        for zeta, solve in zip(zetas, solves):
            lu = _lu_invariant(fam.kernel_at(zeta).entries).weights
            assert np.abs(solve.weights - lu).sum() <= 1e-14
            assert solve.residual <= 1e-15

    def test_ubars_is_ubar_at_on_long_rows(self):
        # rows of 12 nonzeros: sums over more than 8 terms change order with
        # the batch width unless every reduction fixes it
        fam = ode_family(chain=random_chain(np.random.default_rng(11), 12),
                         zeta_max=0.2)
        want = np.array([fam.ubar_at(z) for z in fam.zeta_grid])
        assert fam.ubars.tobytes() == want.tobytes()

    def test_nearly_decomposable_chain(self):
        # leaving a state has probability 1e-13: one minus the self-loop
        # keeps 3 digits of it, the summed off-diagonal mass all of them
        a, b = 1e-13, 3e-13
        chain = StochasticMatrix(np.array([[1.0 - a, a], [b, 1.0 - b]]))
        fam = build_exponential_family(chain, simple_space([0.0, 1.0]), "myopic",
                                       0.1, step=0.1)
        w = fam.pi_at(0.0).weights
        want = np.array([b, a]) / (a + b)
        assert (np.abs(w - want) / want).max() <= 1e-14

    def test_ubars_solves_in_blocks(self, raw_pool_family, monkeypatch):
        fam = DesignFamily(raw_pool_family.space, raw_pool_family.base, "ipd",
                           raw_pool_family.structure, raw_pool_family.zeta_grid,
                           raw_pool_family.h_grid)
        widths = count_pmf_solves(monkeypatch)
        fam.ubars
        assert widths == [64] * 9 + [25]

    @pytest.mark.parametrize("zeta", [-3.0, 3.0])
    def test_raw_scale_pmf_is_entrywise_accurate(self, raw_pool_family, zeta):
        # LU clips one entry of pi(-3) to 0; GTH keeps every entry to a few
        # ulps of itself, down to 9e-62
        w = raw_pool_family.pi_at(zeta).weights
        want = dense_gth(raw_pool_family.kernel_at(zeta).entries)
        assert (w < 1e-30).sum() == 25
        assert w.min() > 0.0
        assert (np.abs(w - want) / want).max() <= 1e-12


class TestComposedFamilies:
    def test_compose_mixes_identity(self):
        fam = ode_family(zeta_max=0.5)
        lazy = composed(fam, 1.0 / 6.0)
        for z in (0.0, 0.3, -0.5):
            jump = lazy.jump_kernel_at(z).entries
            want = (5.0 / 6.0) * np.eye(fam.space.dim) + (1.0 / 6.0) * jump
            np.testing.assert_allclose(lazy.kernel_at(z).entries, want, atol=1e-15)

    def test_compose_preserves_invariant_and_output(self):
        fam = ode_family(zeta_max=0.5)
        lazy = composed(fam, 0.25)
        for z in (-0.5, 0.1, 0.5):
            np.testing.assert_allclose(lazy.pi_at(z).weights,
                                       fam.pi_at(z).weights, atol=1e-10)
            assert lazy.ubar_at(z) == pytest.approx(fam.ubar_at(z), abs=1e-10)

    def test_factorized_tilt_keeps_exo_conditional(self, rng):
        # tilting a factorized jump kernel by a lifted pair must not change
        # the conditional law of the exogenous successor coordinate
        space, base, r0, q0 = product_space(rng, n_control=3, n_exo=2)
        fam = build_exponential_family(base, space, "myopic", 1.0)
        s = fam.jump_kernel_at(0.8).entries
        marg = fam.controllable_kernel_at(0.8).entries
        for x in range(space.dim):
            for c in range(3):
                if marg[x, c] <= 0.0:
                    continue
                for e in range(2):
                    cond = s[x, 2 * c + e] / marg[x, c]
                    assert cond == pytest.approx(q0[x, e], abs=1e-12)

    def test_controllable_marginal_is_tilt_of_factor(self, rng):
        space, base, r0, q0 = product_space(rng, n_control=3, n_exo=2)
        fam = build_exponential_family(base, space, "myopic", 1.0)
        h = fam.h_at(0.8)
        cond = q0 @ h.reshape(3, 2).T
        weights = r0[np.repeat(np.arange(3), 2)] * np.exp(cond)
        want = weights / weights.sum(axis=1, keepdims=True)
        np.testing.assert_allclose(fam.controllable_kernel_at(0.8).entries,
                                   want, atol=1e-12)


class TestRewardValue:
    def test_zero_at_nominal(self, rng):
        base = random_chain(rng, 4)
        assert reward_value(base, base, rng.normal(size=4), 0.0) == pytest.approx(0.0, abs=1e-14)

    def test_adapted_family_beats_other_kernels(self):
        # at each command the adapted family kernel attains the best payoff
        chain = random_chain(np.random.default_rng(23), 4)
        util = np.array([1.0, 0.3, -0.2, -1.0])
        fam = solve_design_ode(chain, simple_space(util), "ipd", 1.0, step=0.005)
        rng = np.random.default_rng(5)
        for zeta in (0.5, 1.0):
            best = reward_value(fam.jump_kernel_at(zeta), chain, util, zeta)
            for _ in range(10):
                other, _ = tilt(chain, rng.normal(size=(4, 4)))
                assert reward_value(other, chain, util, zeta) <= best + 1e-6

    def test_myopic_family_is_suboptimal(self):
        chain = random_chain(np.random.default_rng(31), 4)
        util = np.array([2.0, 0.5, -0.5, -2.0])
        space = simple_space(util)
        adapted = solve_design_ode(chain, space, "ipd", 1.0, step=0.005)
        myopic = build_exponential_family(chain, space, "myopic", 1.0)
        assert family_optimality_residual(adapted, 1.0) <= 1e-4
        assert family_optimality_residual(myopic, 1.0) > 1e-3


class TestSerialization:
    def test_round_trip_in_memory(self, rng):
        fam = ode_family(zeta_max=0.5, step=0.01)
        doc = fam.to_json()
        back = DesignFamily.from_json(json.loads(json.dumps(doc)))
        np.testing.assert_array_equal(back.zeta_grid, fam.zeta_grid)
        np.testing.assert_array_equal(back.h_grid, fam.h_grid)
        np.testing.assert_array_equal(back.base.entries, fam.base.entries)
        for z in (-0.5, 0.13, 0.5):
            np.testing.assert_allclose(back.kernel_at(z).entries,
                                       fam.kernel_at(z).entries, atol=1e-15)
        assert back.kind == fam.kind
        assert back.structure.sampling == fam.structure.sampling

    def test_round_trip_on_disk(self, tmp_path, rng):
        space, base, _, _ = product_space(rng)
        lazy = build_exponential_family(base, space, "myopic", 0.5,
                                        structure=FamilyStructure("composed", gamma=0.5),
                                        model_hash="abc123")
        path = tmp_path / "family.json"
        save_family(lazy, path)
        back = load_family(path)
        assert back.model_hash == "abc123"
        assert back.structure.gamma == 0.5
        assert back.space.n_exo == 2
        np.testing.assert_allclose(back.kernel_at(0.3).entries,
                                   lazy.kernel_at(0.3).entries, atol=1e-15)
        np.testing.assert_array_equal(back.h_grid, lazy.h_grid)

    def test_generator_key_is_ignored(self, tmp_path, rng):
        # documents of fixed-direction families once carried their direction
        # as a "generator" key; it loads as the grid alone and saves without it
        space, base, _, _ = product_space(rng)
        fam = build_exponential_family(base, space, "ipd0", 0.5)
        doc = fam.to_json()
        assert "generator" not in doc
        path = tmp_path / "family.json"
        save_family(DesignFamily.from_json(dict(doc, generator=[9.0] * space.dim)), path)
        back = load_family(path)
        np.testing.assert_array_equal(back.h_grid, fam.h_grid)
        assert back.to_json() == doc

    def test_rejects_foreign_documents(self):
        with pytest.raises(ValidationError):
            DesignFamily.from_json({"payload": "nonsense"})
        fam = ode_family(zeta_max=0.5)
        doc = fam.to_json()
        doc["format_version"] = 99
        with pytest.raises(ValidationError):
            DesignFamily.from_json(doc)


class TestOptimalityResidual:
    def test_exact_solution_has_zero_residual(self, rng):
        # build (h, eta) from a one-dimensional eigen problem and verify the
        # defect identity directly: scale exp by hand
        base = random_chain(rng, 5)
        util = rng.normal(size=5)
        space = simple_space(util)
        zeta = 0.7
        weighted = np.exp(zeta * util)[:, None] * base.entries
        eigvals, eigvecs = np.linalg.eig(weighted)
        k = int(np.argmax(eigvals.real))
        lam = eigvals.real[k]
        w = np.abs(eigvecs[:, k].real)
        h = np.log(w) - np.log(w[0])
        eta = math.log(lam)
        assert optimality_residual(h, eta, zeta, base, space) <= 1e-9

    def test_wrong_candidate_has_large_residual(self, rng):
        base = random_chain(rng, 4)
        space = simple_space([1.0, 0.5, -0.5, -1.0])
        assert optimality_residual(np.zeros(4), 0.0, 1.0, base, space) > 0.4


def perron_h(base, util, zeta, anchor=0):
    """log v - log v[anchor], v the Perron vector of diag(exp(zeta util)) P0."""
    eigvals, eigvecs = np.linalg.eig(np.exp(zeta * util)[:, None] * base.entries)
    v = np.abs(eigvecs[:, np.argmax(eigvals.real)].real)
    return np.log(v) - np.log(v[anchor])


def perron_error(fam):
    """Worst gap between the ODE's h and the Perron h at a few commands."""
    util = fam.space.util.values
    return max(np.abs(fam.h_at(z) - perron_h(fam.base, util, z, fam.space.anchor)).max()
               for z in (-1.0, -0.5, 0.5, 1.0))


class TestIpdPerronOracle:
    """For n_exo = 1 the ipd design solves a multiplicative Poisson equation:
    exp(h) is the Perron eigenvector of diag(exp(zeta util)) P0 (Kontoyiannis
    and Meyn, Ann. Appl. Probab. 13(1), 2003), independent of the ODE."""

    @pytest.mark.parametrize("d", [3, 5, 8])
    def test_dirichlet_chains(self, d):
        for step in (0.02, 0.01):
            assert perron_error(ode_family(d=d, step=step)) <= 0.05 * step ** 4

    def test_error_is_fourth_order(self):
        ratio = (perron_error(ode_family(d=3, step=0.02))
                 / perron_error(ode_family(d=3, step=0.01)))
        assert 12.0 <= ratio <= 20.0

    def test_scaled_pool_jump_kernel(self):
        pool = build_pool_model(PoolModelSpec())
        base, structure = synthesis_inputs(pool, "compose")
        scale = np.abs(ipd_map(base, pool.space.util).values).max()
        space = simple_space(pool.space.util.values / scale, anchor=pool.space.anchor)
        fam = solve_design_ode(base, space, "ipd", 1.0, step=0.01,
                               structure=structure)
        assert perron_error(fam) <= 0.05 * 0.01 ** 4

    def test_raw_pool_jump_kernel(self):
        # unscaled utility: the LU invariant pmf's least entry reads 0 by
        # command -1, but the Poisson solve needs no pmf (measured 2.1e-8)
        pool = build_pool_model(PoolModelSpec())
        base, structure = synthesis_inputs(pool, "compose")
        fam = solve_design_ode(base, pool.space, "ipd", 1.0, step=0.01,
                               structure=structure)
        assert perron_error(fam) <= 5e-8


class TestRawScale:
    def test_raw_pool_is_util_scale_in_other_units(self):
        # dividing the utility by 16 and multiplying commands and step by 16
        # scales every float by a power of two, so the families agree bitwise
        pool = build_pool_model(PoolModelSpec())
        base, structure = synthesis_inputs(pool, "compose")
        u = pool.space.util.values
        raw = solve_design_ode(base, simple_space(u, pool.space.anchor), "ipd",
                               1.5, step=0.05, structure=structure)
        scaled = solve_design_ode(base, simple_space(u / 16.0, pool.space.anchor),
                                  "ipd", 16.0 * 1.5, step=16.0 * 0.05,
                                  structure=structure)
        assert raw.h_grid.tobytes() == scaled.h_grid.tobytes()
