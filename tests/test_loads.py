import io
import json
import math
import time

import numpy as np
import pytest

from ddispatch import (
    InfeasibleDutyCycle,
    LatticeMismatch,
    NotIrreducible,
    ValidationError,
)
from ddispatch import loads as loads_module
from ddispatch.design import FamilyStructure, build_exponential_family
from ddispatch.fileio import write_json
from ddispatch.loads import (
    MAX_SAMPLES_PER_STATE,
    LoadModel,
    _mode_policy,
    PoolModelSpec,
    TclModelSpec,
    _hazard,
    _mean_sojourn,
    _sojourn_cdf,
    build_pool_model,
    build_tcl_model,
    deterministic_cycle_steps,
    drift_per_step,
    estimate_q0,
    fit_sojourn_hazard,
    load_model,
    save_model,
    synthesis_inputs,
    tcl_switch_curves,
    tcl_trajectory,
    thermal_decay,
    trajectory_to_csv,
)
from ddispatch.markov import (
    adjoint_product,
    check_irreducible_aperiodic,
    geometric_mix,
    invariant_pmf,
)


def sojourn_mean_from_hazard(hazard):
    # E[T] = sum_k P(T > k) with survival = prod(1 - p[:k])
    survival = np.cumprod(1.0 - hazard)
    return 1.0 + survival[:-1].sum()


def bisected_sojourn_scale(rungs, target_steps, shape):
    """The sojourn fit's scale after a fixed 200 bisection steps."""
    distance = (rungs - np.arange(1, rungs + 1, dtype=float)) / rungs
    lo, hi = -8.0, 8.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if _mean_sojourn(_sojourn_cdf(distance, 10.0 ** mid, shape)) > target_steps:
            lo = mid
        else:
            hi = mid
    return 10.0 ** (0.5 * (lo + hi))


class TestSojournFit:
    def test_fixed_point_is_the_200_step_fit(self):
        # bisection stops once its bracket stops changing; every later
        # step would repeat that bracket, so the fit is bitwise the one a
        # fixed 200 steps give, on the pool's default targets and at random
        rng = np.random.default_rng(28)
        cases = [(48, 24.0, 2.0)] + [
            (rungs, float(rng.uniform(1.05, rungs - 0.05)), float(rng.uniform(0.5, 5.0)))
            for rungs in rng.integers(2, 200, size=200).tolist()]
        for rungs, target, shape in cases:
            sigma, hazard = fit_sojourn_hazard(rungs, target, shape)
            expected = bisected_sojourn_scale(rungs, target, shape)
            distance = (rungs - np.arange(1, rungs + 1, dtype=float)) / rungs
            assert sigma == expected, (rungs, target, shape)
            assert np.array_equal(hazard, _hazard(_sojourn_cdf(distance, expected, shape)))

    def test_mean_hits_target(self):
        for target in (5.0, 24.0, 40.0):
            sigma, hazard = fit_sojourn_hazard(48, target)
            assert sigma > 0
            assert hazard[-1] == 1.0
            assert np.all(hazard >= 0) and np.all(hazard <= 1)
            assert sojourn_mean_from_hazard(hazard) == pytest.approx(target, abs=1e-5)

    def test_survival_matches_cdf(self):
        # the hazard construction reproduces the sojourn law exactly
        from ddispatch.loads import _sojourn_cdf

        sigma, hazard = fit_sojourn_hazard(48, 24.0)
        cdf = _sojourn_cdf((48 - np.arange(1, 49)) / 48, sigma, 2.0)
        survival = np.cumprod(1.0 - hazard)
        assert np.allclose(survival, 1.0 - cdf, atol=1e-12)

    def test_mean_decreasing_in_scale(self):
        from ddispatch.loads import _mean_sojourn, _sojourn_cdf

        distance = (48 - np.arange(1, 49)) / 48
        means = [_mean_sojourn(_sojourn_cdf(distance, s, 2.0)) for s in (0.1, 0.3, 0.6, 1.5)]
        assert all(a > b for a, b in zip(means, means[1:]))

    def test_hazard_is_one_once_nothing_survives(self):
        # past the step where the CDF reaches 1 there is no mass to divide by
        np.testing.assert_array_equal(_hazard(np.array([0.5, 1.0, 1.0, 1.0])),
                                      [0.5, 1.0, 1.0, 1.0])

    def test_small_shape_reaches_its_target(self):
        # sigma**shape spans 10**(+-8 shape) over a log10 bracket of +-8, so
        # the bracket widens as 1/shape for shapes below 1
        sigma, hazard = fit_sojourn_hazard(48, 2.0, 0.05)
        assert hazard[-1] == 1.0
        assert sojourn_mean_from_hazard(hazard) == pytest.approx(2.0, abs=1e-5)

    def test_infeasible_targets(self):
        with pytest.raises(InfeasibleDutyCycle):
            fit_sojourn_hazard(48, 48.0)
        with pytest.raises(InfeasibleDutyCycle):
            fit_sojourn_hazard(48, 1.0)
        with pytest.raises(InfeasibleDutyCycle):
            fit_sojourn_hazard(10, 30.0)


class TestPoolSpec:
    def test_defaults(self):
        spec = PoolModelSpec()
        assert spec.rungs == 48
        assert spec.slot_minutes / spec.gamma == 30.0

    def test_validation(self):
        with pytest.raises(ValidationError):
            PoolModelSpec(rungs=1)
        with pytest.raises(ValidationError):
            PoolModelSpec(gamma=0.0)
        with pytest.raises(ValidationError):
            PoolModelSpec(cycle_hours=24.0)

    def test_json_round_trip(self):
        spec = PoolModelSpec(rungs=20, cycle_hours=8.0)
        assert PoolModelSpec.from_json(spec.to_json()) == spec


@pytest.fixture(scope="module")
def pool():
    return build_pool_model(PoolModelSpec())


class TestPoolModel:
    @pytest.mark.parametrize("shape", [12.0, 20.0])
    def test_switch_certain_below_the_top_refused(self, shape):
        # the fitted CDF reaches 1 below the top rung, so the rungs above it
        # are unreachable; the spec is refused by the field that did it
        with pytest.raises(InfeasibleDutyCycle, match="hazard_shape"):
            build_pool_model(PoolModelSpec(hazard_shape=shape))

    @pytest.mark.parametrize("shape", [0.2, 10.0])
    def test_hazard_shapes_that_build(self, shape):
        pool = build_pool_model(PoolModelSpec(hazard_shape=shape))
        assert check_irreducible_aperiodic(pool.p0).irreducible

    @pytest.mark.parametrize("shape, hours", [(0.05, 20.0), (0.1, 1.0)])
    def test_small_shapes_build(self, shape, hours):
        pool = build_pool_model(PoolModelSpec(hazard_shape=shape, cycle_hours=hours))
        assert check_irreducible_aperiodic(pool.p0).irreducible

    def test_one_epoch_cycle_refused_by_its_target(self):
        # half an hour is one 30-minute epoch, the least mean sojourn there is
        with pytest.raises(InfeasibleDutyCycle, match="mean sojourn of 1 epochs"):
            build_pool_model(PoolModelSpec(hazard_shape=0.1, cycle_hours=0.5))

    def test_unreachable_tiny_shape_refused_by_name(self):
        # 8 / shape decades would overflow 10.0 ** mid; the bracket stops at
        # 300, where the off target of 8 epochs is out of reach
        with pytest.raises(InfeasibleDutyCycle, match="hazard_shape 0.001"):
            build_pool_model(PoolModelSpec(hazard_shape=1e-3, cycle_hours=20.0))

    def test_digests_by_hazard_shape(self):
        # the bracket widens only below shape 1, and the fits on both sides
        # of that keep their bytes
        digests = {
            0.2: "b994558b79237c24c5eaf9ef2da60aea898a1be64b487f49eb812e664fe97bff",
            2.0: "643b0478ba733883b1a2d7dcf97daba661c0d170a80f4580f6a90c29baf8bf4d",
            10.0: "f195c50bf347d45f956ba7645384fa18db1a79fcea781a9a8a8712cea2149173",
        }
        for shape, digest in digests.items():
            assert build_pool_model(PoolModelSpec(hazard_shape=shape)).digest == digest

    def test_shapes_and_power(self, pool):
        assert pool.dim == 96
        assert pool.space.n_exo == 1
        u = pool.space.util.values
        assert np.array_equal(u[:48], np.zeros(48))
        assert np.array_equal(u[48:], np.ones(48))
        assert pool.space.util.units == "kW"

    def test_jump_kernel_structure(self, pool):
        s = pool.s0.entries
        assert np.array_equal(np.diag(s), np.zeros(96))
        # forced switches at the top rung
        assert s[47, 48] == 1.0
        assert s[95, 0] == 1.0
        # each idle row splits between advance and start
        for k in range(46):
            assert s[k, k + 1] + s[k, 48] == pytest.approx(1.0, abs=1e-15)

    def test_mean_epoch_is_thirty_minutes(self, pool):
        # zero jump-kernel diagonal means the holding time is purely the
        # sampling clock: geometric with mean slot/gamma
        assert np.all(np.diag(pool.s0.entries) == 0.0)
        assert pool.diagnostics["epoch_minutes"] == 30.0

    def test_duty_cycle_half(self, pool):
        pi = invariant_pmf(pool.p0)
        duty = pi.weights[48:].sum()
        assert duty == pytest.approx(0.5, abs=1e-9)
        assert pool.diagnostics["duty_cycle"] == pytest.approx(duty, abs=1e-12)

    def test_asymmetric_duty_cycle(self):
        model = build_pool_model(PoolModelSpec(cycle_hours=8.0))
        pi = invariant_pmf(model.p0)
        assert pi.weights[48:].sum() == pytest.approx(8.0 / 24.0, abs=0.02)

    def test_per_step_kernel_structure(self, pool):
        report = check_irreducible_aperiodic(pool.p0)
        assert report.irreducible and report.aperiodic
        # at unit sampling rate the slot itself is the epoch
        full = build_pool_model(PoolModelSpec(gamma=1.0, slot_minutes=30.0))
        assert np.array_equal(full.p0.entries, full.s0.entries)

    def test_doubled_jump_kernel_reducible(self, pool):
        # the time-reversed round trip through the jump kernel splits the
        # ladder into two closed halves, while the lazy per-step kernel
        # keeps one communicating class
        pi = invariant_pmf(pool.p0)
        doubled_jump = adjoint_product(pool.s0, pi)
        assert not check_irreducible_aperiodic(doubled_jump).irreducible
        doubled_step = adjoint_product(pool.p0, pi)
        assert check_irreducible_aperiodic(doubled_step).irreducible

    def test_infeasible_build(self):
        with pytest.raises(InfeasibleDutyCycle):
            build_pool_model(PoolModelSpec(rungs=10, cycle_hours=12.0))

    def test_round_trip(self, pool, tmp_path):
        path = tmp_path / "pool.json"
        save_model(pool, path)
        back = load_model(path)
        assert np.array_equal(back.s0.entries, pool.s0.entries)
        assert back.gamma == pool.gamma
        assert back.digest == pool.digest
        assert back.space.n_control == 96

    @pytest.mark.parametrize("excess,refused", [(1e-11, True), (-1e-11, True),
                                                (1e-13, False)])
    def test_row_sum_tolerance_edge(self, pool, tmp_path, excess, refused):
        # ROW_SUM_TOL is 1e-12: a kernel row summing to 1 +- 1e-11 is refused,
        # one summing to 1 + 1e-13 loads
        doc = pool.to_json()
        row = doc["s0"][0]
        k = int(np.argmax(row))
        row[k] += excess
        path = tmp_path / "model.json"
        write_json(path, doc)
        if refused:
            with pytest.raises(ValidationError, match="row sums deviate from 1"):
                load_model(path)
        else:
            assert load_model(path).s0.entries[0, k] == row[k]

    def test_synthesis_routes(self, pool):
        base, structure = synthesis_inputs(pool, "compose")
        assert base is pool.s0
        assert structure.sampling == "composed"
        assert structure.gamma == pool.gamma
        base, structure = synthesis_inputs(pool, "direct")
        assert base is pool.p0
        assert structure.sampling == "direct"
        with pytest.raises(ValidationError):
            synthesis_inputs(pool, "other")


class TestTclSpec:
    def test_defaults(self):
        spec = TclModelSpec()
        assert spec.cells == 21
        grid = spec.lattice
        assert grid[0] == 19.5
        assert grid[-1] == pytest.approx(20.5, abs=1e-12)
        assert np.allclose(np.diff(grid), 0.05, atol=1e-12)

    def test_lattice_mismatch(self):
        with pytest.raises(LatticeMismatch):
            TclModelSpec(state_count=43)
        with pytest.raises(LatticeMismatch):
            TclModelSpec(lattice_step=0.04)
        with pytest.raises(LatticeMismatch):
            TclModelSpec(state_count=40)  # implies 0.0526..., not 0.05

    def test_validation(self):
        with pytest.raises(ValidationError):
            TclModelSpec(theta_set=21.0)
        with pytest.raises(ValidationError):
            TclModelSpec(theta_a=20.0)
        with pytest.raises(ValidationError):
            TclModelSpec(resistance=0.0)

    def test_broadcast_period_is_whole_samples(self):
        # the nature kernel and the trajectory read one epoch length
        assert TclModelSpec().broadcast_steps == 10
        with pytest.raises(ValidationError,
                           match="broadcast_period_s 25 .* sample_period_s 2$"):
            TclModelSpec(broadcast_period_s=25.0)

    def test_json_round_trip(self):
        spec = TclModelSpec(noise_var=0.0)
        assert TclModelSpec.from_json(spec.to_json()) == spec

    def test_thermal_decay_values(self):
        spec = TclModelSpec()
        assert math.isclose(thermal_decay(spec), math.exp(-1.0 / 720.0),
                            rel_tol=1e-15)
        assert math.isclose(thermal_decay(spec, 2.0), math.exp(-1.0 / 7200.0),
                            rel_tol=1e-15)

    def test_drift_magnitudes(self):
        spec = TclModelSpec()
        fall_on, rise_off = drift_per_step(spec)
        leak = 1.0 - math.exp(-1.0 / 7200.0)
        assert fall_on == pytest.approx(16.0 * leak, rel=1e-12)
        assert rise_off == pytest.approx(12.0 * leak, rel=1e-12)


class TestSwitchCurves:
    def test_edges_forced(self):
        start, stop = tcl_switch_curves(TclModelSpec())
        assert start[-1] == 1.0
        assert stop[0] == 1.0
        assert np.all(start >= 0) and np.all(start <= 1)
        assert np.all(stop >= 0) and np.all(stop <= 1)

    def test_survival_reproduces_switch_law(self):
        # sweeping upward through the cells, the chance of not having
        # started by cell j equals one minus the designed law at cell j
        spec = TclModelSpec()
        start, _ = tcl_switch_curves(spec)
        grid = spec.lattice
        denom = 2.0 * spec.sigma ** spec.rho
        cdf = np.exp(-((spec.band_high - grid) ** spec.rho) / denom)
        assert np.allclose(np.cumprod(1.0 - start), 1.0 - cdf, atol=1e-12)

    def test_cell_past_the_band_edge(self):
        # a lattice step within the 1e-9 tolerance puts the top cell past
        # band_high; its distance to the edge counts as 0, not NaN
        spec = TclModelSpec(lattice_step=0.05 + 9e-10)
        assert spec.lattice[-1] > spec.band_high
        start, stop = tcl_switch_curves(spec)
        assert start[-1] == 1.0
        assert np.all(np.isfinite(stop))

    def test_switch_certain_inside_the_band(self):
        # a steep law is certain before the band edge: the hazards from there
        # on are 1, not 0/0, and the model still builds
        spec = TclModelSpec(rho=30.0, sigma=0.2)
        start, stop = tcl_switch_curves(spec)
        assert (start[:-1] == 1.0).any()
        assert np.all(np.isfinite(stop))
        build_tcl_model(spec, samples_per_state=1000)

    def test_mirror_symmetry(self):
        start, stop = tcl_switch_curves(TclModelSpec())
        assert np.allclose(stop, start[::-1], atol=1e-15)


class TestEstimateQ0:
    def test_rows_normalized(self):
        q = estimate_q0(TclModelSpec(), samples_per_state=2000, seed=3).entries
        assert q.shape == (42, 21)
        assert np.allclose(q.sum(axis=1), 1.0, rtol=0.0, atol=1e-12)
        assert q.min() >= 0.0
        model = build_tcl_model(TclModelSpec(), samples_per_state=2000, seed=3)
        assert np.array_equal(model.space.exo_kernel.entries, q)
        assert model.diagnostics["q0_provenance"] == {"method": "monte_carlo",
                                                      "samples": 2000, "seed": 3}

    def test_deterministic_given_seed(self):
        a = estimate_q0(TclModelSpec(), samples_per_state=1500, seed=9)
        b = estimate_q0(TclModelSpec(), samples_per_state=1500, seed=9)
        c = estimate_q0(TclModelSpec(), samples_per_state=1500, seed=10)
        assert np.array_equal(a.entries, b.entries)
        assert not np.array_equal(a.entries, c.entries)

    def test_zero_noise_boundary_point_masses(self):
        spec = TclModelSpec(noise_var=0.0)
        q = estimate_q0(spec, samples_per_state=2000, seed=0).entries
        # idle drifts up: the top cell is absorbing under clamping; running
        # drifts down: the bottom cell is absorbing
        assert q[20, 20] == 1.0
        assert q[21, 0] == 1.0
        # no backward motion anywhere without noise
        assert np.array_equal(np.tril(q[:21], -1), np.zeros((21, 21)))
        assert np.array_equal(np.triu(q[21:], 1), np.zeros((21, 21)))

    def test_interior_motion_matches_epoch_law(self):
        # with zero noise the landing cell is a deterministic function of
        # the geometric epoch length, so row moments follow from that law
        spec = TclModelSpec(noise_var=0.0)
        q = estimate_q0(spec, samples_per_state=4000, seed=1).entries
        fall_on, rise_off = drift_per_step(spec, spec.broadcast_period_s)
        lengths = np.arange(1, 201)
        weights = spec.gamma * (1.0 - spec.gamma) ** (lengths - 1)
        for x, signed in ((5, rise_off), (10, rise_off),
                          (26, -fall_on), (31, -fall_on)):
            steps = np.rint(lengths * signed / spec.lattice_step)
            expect = float(weights @ steps)
            got = q[x] @ (np.arange(21) - (x % 21))
            assert abs(got - expect) < 0.08
        # staying put means no opportunity landed past the rounding radius,
        # which for these drifts is exactly the one-period epoch chance
        for x in (5, 10, 15, 26, 31, 36):
            assert abs(q[x, x % 21] - spec.gamma) < 0.03

    def test_doubling_samples_shrinks_error(self):
        spec = TclModelSpec()

        def tv_gap(n, s1, s2):
            a = estimate_q0(spec, samples_per_state=n, seed=s1).entries
            b = estimate_q0(spec, samples_per_state=n, seed=s2).entries
            return 0.5 * np.abs(a - b).sum(axis=1).max()

        # average a few independent pairs to stabilize the ratio near 1/sqrt(2)
        small = np.mean([tv_gap(2000, 2 * i, 2 * i + 1) for i in range(4)])
        large = np.mean([tv_gap(8000, 100 + 2 * i, 101 + 2 * i) for i in range(4)])
        assert 0.3 <= large / small <= 0.8

    def test_sample_floor(self):
        with pytest.raises(ValidationError):
            estimate_q0(TclModelSpec(), samples_per_state=500)

    @pytest.mark.parametrize("samples", [MAX_SAMPLES_PER_STATE + 1, 10**12])
    def test_sample_ceiling(self, samples):
        with pytest.raises(ValidationError, match="samples per state"):
            estimate_q0(TclModelSpec(), samples_per_state=samples)


@pytest.fixture(scope="module")
def tcl():
    return build_tcl_model(TclModelSpec(), samples_per_state=4000, seed=0)


class TestTclModel:
    def test_factorization_exact(self, tcl):
        s = tcl.s0.entries
        q = tcl.space.exo_kernel.entries
        r = _mode_policy(TclModelSpec())
        for x in (0, 7, 20, 21, 30, 41):
            for m in (0, 1):
                assert np.array_equal(s[x, m * 21:(m + 1) * 21], r[x, m] * q[x])

    def test_mode_marginal(self, tcl):
        s = tcl.s0.entries
        marg = s.reshape(42, 2, 21).sum(axis=2)
        assert np.allclose(marg, _mode_policy(TclModelSpec()), atol=1e-12)

    def test_per_step_kernel_structure(self, tcl):
        report = check_irreducible_aperiodic(tcl.p0)
        assert report.irreducible and report.aperiodic
        mixed = geometric_mix(tcl.s0, tcl.gamma)
        assert np.array_equal(tcl.p0.entries, mixed.entries)

    def test_power_function(self, tcl):
        u = tcl.space.util.values
        assert np.array_equal(u[:21], np.zeros(21))
        assert np.array_equal(u[21:], 14.0 * np.ones(21))
        assert u.min() >= 0.0

    def test_invariant_duty_near_deterministic(self, tcl):
        # long-run fraction of time running should match the duty implied
        # by the deterministic band-crossing legs
        pi = invariant_pmf(tcl.p0)
        on_steps, off_steps = deterministic_cycle_steps(TclModelSpec(), "exact")
        duty = on_steps / (on_steps + off_steps)
        assert abs(pi.weights[21:].sum() - duty) < 0.05

    def test_cycle_periods_agree(self, tcl):
        exact_on, exact_off = tcl.diagnostics["cycle_steps_exact"]
        drift_on, drift_off = tcl.diagnostics["cycle_steps_drift"]
        assert abs(exact_on - drift_on) <= 0.05 * exact_on
        assert abs(exact_off - drift_off) <= 0.05 * exact_off
        # full cycle close to 35 minutes at the 2 s step
        cycle_min = (exact_on + exact_off) * 2.0 / 60.0
        assert cycle_min == pytest.approx(35.0, abs=1.0)

    def test_cycle_step_helper(self):
        spec = TclModelSpec()
        assert deterministic_cycle_steps(spec, "exact") == (451, 601)
        with pytest.raises(ValidationError):
            deterministic_cycle_steps(spec, "euler")

    @pytest.mark.parametrize("mode", ["exact", "drift"])
    @pytest.mark.parametrize("power_kw", [6.125, 6.0])  # floor 19.75 in the band; 20.0, no drift
    def test_uncrossable_band_refused(self, mode, power_kw):
        with pytest.raises(ValidationError, match="running floor .* not below"):
            deterministic_cycle_steps(TclModelSpec(power_kw=power_kw), mode)

    def test_uncrossable_band_refused_before_sampling(self, monkeypatch):
        def sample(*args, **kwargs):
            raise AssertionError("estimate_q0 ran")
        monkeypatch.setattr(loads_module, "estimate_q0", sample)
        with pytest.raises(ValidationError, match="running floor"):
            build_tcl_model(TclModelSpec(power_kw=6.125), samples_per_state=1000)

    def test_round_trip(self, tcl, tmp_path):
        path = tmp_path / "tcl.json"
        save_model(tcl, path)
        back = load_model(path)
        assert np.array_equal(back.s0.entries, tcl.s0.entries)
        assert np.array_equal(back.space.exo_kernel.entries,
                              tcl.space.exo_kernel.entries)
        assert back.digest == tcl.digest

    def test_old_document_with_mode_policy_loads(self, tcl, tmp_path):
        # documents once carried the mode policy as "r0"; it is ignored
        path = tmp_path / "old.json"
        doc = dict(tcl.to_json(), r0=_mode_policy(TclModelSpec()).tolist())
        path.write_text(json.dumps(doc))
        back = load_model(path)
        assert np.array_equal(back.s0.entries, tcl.s0.entries)
        assert "r0" not in back.to_json()
        assert back.digest == tcl.digest

    def test_digest_tracks_content(self, tcl):
        other = build_tcl_model(TclModelSpec(), samples_per_state=4000, seed=1)
        assert other.digest != tcl.digest

    def test_synthesis_route_compose(self, tcl):
        base, structure = synthesis_inputs(tcl, "compose")
        assert base is tcl.s0
        assert structure.gamma == pytest.approx(1.0 / 3.0)

    def test_foreign_document_rejected(self, tcl):
        doc = tcl.to_json()
        doc["payload"] = "design-family"
        with pytest.raises(ValidationError):
            LoadModel.from_json(doc)


def stepped_cycle_steps(spec, model):
    """Band crossings stepped one sample at a time, the way they were
    counted before the closed form (without that loop's 10^7-step cap)."""
    retain = thermal_decay(spec, spec.sample_period_s)
    fall_on, rise_off = drift_per_step(spec)
    floor = spec.theta_a - spec.resistance * spec.power_kw
    counts = []
    for mode in (1, 0):
        theta = spec.band_high if mode == 1 else spec.band_low
        target = spec.band_low if mode == 1 else spec.band_high
        steps = 0
        while True:
            if model == "exact":
                pull = floor if mode == 1 else spec.theta_a
                theta = theta + (1.0 - retain) * (pull - theta)
            else:
                theta = theta + (-fall_on if mode == 1 else rise_off)
            steps += 1
            if (mode == 1 and theta <= target) or (mode == 0 and theta >= target):
                break
        counts.append(steps)
    return counts[0], counts[1]


def random_tcl_specs(count, seed):
    """Valid cooling units whose legs stay under ~10^4 steps.

    A leg takes at most (samples per time constant) x (band width) /
    (distance from the band to its pull) steps, so the samples per time
    constant are 10^-1 to 10^4 (log-uniform) times the nearer pull's
    distance over the width.
    """
    rng = np.random.default_rng(seed)
    specs = []
    for _ in range(count):
        low, width = float(rng.uniform(0.0, 30.0)), float(rng.uniform(0.1, 5.0))
        cells = int(rng.integers(2, 40))
        above, below = float(rng.uniform(0.5, 20.0)), float(rng.uniform(0.05, 10.0))
        theta_a, floor = low + width + above, low - below
        resistance = 10.0 ** float(rng.uniform(-1.0, 1.0))
        period = float(rng.uniform(0.5, 30.0))
        samples_per_tau = 10.0 ** float(rng.uniform(-1.0, 4.0)) * min(above, below) / width
        specs.append(TclModelSpec(
            band_low=low, band_high=low + width,
            theta_set=float(rng.uniform(low, low + width)), theta_a=theta_a,
            resistance=resistance,
            capacitance=samples_per_tau * period / (resistance * 3600.0),
            power_kw=(theta_a - floor) / resistance, sample_period_s=period,
            broadcast_period_s=period, state_count=2 * cells,
            lattice_step=width / (cells - 1)))
    return specs


def assert_crossings(spec, model, counts):
    """Each count k puts the recursion's solution on the near side of its
    target after k - 1 steps and at or past it after k."""
    r = thermal_decay(spec, spec.sample_period_s)
    fall_on, rise_off = drift_per_step(spec)
    floor = spec.theta_a - spec.resistance * spec.power_kw
    if model == "exact":
        def running(k):
            return floor + (spec.band_high - floor) * r ** k

        def idle(k):
            return spec.theta_a - (spec.theta_a - spec.band_low) * r ** k
    else:
        def running(k):
            return spec.band_high - k * fall_on

        def idle(k):
            return spec.band_low + k * rise_off
    on, off = counts
    assert running(on - 1) > spec.band_low >= running(on), (model, on)
    assert idle(off - 1) < spec.band_high <= idle(off), (model, off)


class TestCycleSteps:
    """The closed-form band crossings against the stepped recursion.

    The two can differ in two ways only: where a log ratio or a drift
    ratio is an exact integer, the loop's rounding decides the last step;
    and a leg the loop refused at its former 10^7-step cap has a count
    here (``capacitance=1e5`` drift gives exactly 22 500 000).
    """

    @pytest.mark.parametrize("model", ["exact", "drift"])
    def test_default_unit(self, model):
        spec = TclModelSpec()
        assert deterministic_cycle_steps(spec, model) == (451, 601)
        assert stepped_cycle_steps(spec, model) == (451, 601)
        assert_crossings(spec, model, (451, 601))

    @pytest.mark.parametrize("model, counts", [("exact", (2_250_733, 3_001_738)),
                                               ("drift", (2_250_001, 3_000_001))])
    def test_slow_unit_pinned(self, model, counts):
        # the stepped loop gives these counts too, after ~5 M steps
        spec = TclModelSpec(capacitance=1e4)
        assert deterministic_cycle_steps(spec, model) == counts
        assert_crossings(spec, model, counts)

    def test_random_units_match_the_stepped_loop(self):
        for spec in random_tcl_specs(400, seed=28):
            for model in ("exact", "drift"):
                counts = deterministic_cycle_steps(spec, model)
                assert counts == stepped_cycle_steps(spec, model), (spec, model)
                assert_crossings(spec, model, counts)

    @pytest.mark.parametrize("change", [{"capacitance": 1e-8}, {"power_kw": 1e308}])
    def test_one_step_legs(self, change):
        # retention 0, or a running floor of -inf: the running leg crosses
        # in one step, as the stepped loop does
        spec = TclModelSpec(**change)
        for model in ("exact", "drift"):
            assert deterministic_cycle_steps(spec, model) == stepped_cycle_steps(spec, model)
        assert deterministic_cycle_steps(spec, "exact")[0] == 1

    def test_very_slow_unit(self):
        # the stepped loop refused this valid unit at its 10^7-step cap
        spec = TclModelSpec(capacitance=1e5)
        start = time.perf_counter()
        counts = {model: deterministic_cycle_steps(spec, model)
                  for model in ("exact", "drift")}
        assert time.perf_counter() - start < 0.25
        assert counts == {"exact": (22_507_329, 30_017_380),
                          "drift": (22_500_000, 30_000_000)}
        for model, legs in counts.items():
            assert min(legs) > 10**7
            assert_crossings(spec, model, legs)

    @pytest.mark.parametrize("model", ["exact", "drift"])
    def test_motionless_unit_refused(self, model):
        # one sample's retention rounds to 1, so no sample moves the unit
        spec = TclModelSpec(capacitance=1e13)
        assert thermal_decay(spec, spec.sample_period_s) == 1.0
        with pytest.raises(ValidationError, match="a sample moves nothing"):
            deterministic_cycle_steps(spec, model)


def myopic_tcl_family(tcl, zeta_max=1.0):
    base, structure = synthesis_inputs(tcl, "compose")
    return build_exponential_family(base, tcl.space, "myopic", zeta_max,
                                    step=0.05, structure=structure)


class TestTrajectory:
    def test_thermostat_sawtooth(self):
        # no noise, no sampling: pure threshold cycling with a fixed period
        spec = TclModelSpec(noise_var=0.0)
        traj = tcl_trajectory(spec, steps=4000, seed=0)
        assert traj.epoch_count == 0
        fall_on, rise_off = drift_per_step(spec)
        assert traj.theta.max() <= spec.band_high + rise_off + 1e-12
        assert traj.theta.min() >= spec.band_low - fall_on - 1e-12
        flips = np.nonzero(np.diff(traj.mode) != 0)[0]
        assert len(flips) >= 3
        periods = np.diff(flips)[1:]  # first stretch starts mid-band
        on_steps, off_steps = deterministic_cycle_steps(spec, "drift")
        # threshold overshoot can stretch a leg by one step
        for p in periods.tolist():
            assert min(abs(p - on_steps), abs(p - off_steps)) <= 1
        # edge switching is the thermostat's own law, not an override
        assert traj.override_count == 0

    def test_reproducible(self, tcl):
        fam = myopic_tcl_family(tcl)
        spec = TclModelSpec()
        a = tcl_trajectory(spec, steps=500, seed=4, family=fam, zeta=0.3)
        b = tcl_trajectory(spec, steps=500, seed=4, family=fam, zeta=0.3)
        assert np.array_equal(a.theta, b.theta)
        assert np.array_equal(a.mode, b.mode)

    def test_override_rate_small(self, tcl):
        fam = myopic_tcl_family(tcl)
        traj = tcl_trajectory(TclModelSpec(), steps=10_000, seed=1,
                              family=fam, zeta=0.0)
        # opportunities land only on broadcast boundaries, one fine decade
        boundary = (np.arange(10_000) + 1) % 10 == 0
        assert not traj.opportunity[~boundary].any()
        assert traj.epoch_count > 250
        assert traj.override_rate < 0.05
        # the unit keeps cycling instead of freezing in one mode
        assert 0.1 < traj.mode.mean() < 0.9

    def test_band_respected(self, tcl):
        fam = myopic_tcl_family(tcl)
        spec = TclModelSpec()
        traj = tcl_trajectory(spec, steps=10_000, seed=2, family=fam, zeta=0.0)
        slack = 0.05
        frac_out = np.mean((traj.theta > spec.band_high + slack)
                           | (traj.theta < spec.band_low - slack))
        assert frac_out < 0.01

    def test_zeta_signal_array(self, tcl):
        fam = myopic_tcl_family(tcl)
        spec = TclModelSpec()
        signal = np.concatenate([np.zeros(250), 0.5 * np.ones(250)])
        traj = tcl_trajectory(spec, steps=500, seed=3, family=fam, zeta=signal)
        assert np.array_equal(traj.zeta, signal)
        with pytest.raises(ValidationError):
            tcl_trajectory(spec, steps=0, seed=0)

    def test_csv_export(self, tmp_path):
        spec = TclModelSpec(noise_var=0.0)
        traj = tcl_trajectory(spec, steps=50, seed=0)
        path = tmp_path / "traj.csv"
        text = trajectory_to_csv(traj, path)
        assert path.read_text() == text
        lines = text.strip().split("\n")
        assert lines[0] == "time_s,theta_c,mode,zeta"
        assert len(lines) == 51
        first = lines[1].split(",")
        assert float(first[0]) == 2.0
        assert first[2] in ("0", "1")
