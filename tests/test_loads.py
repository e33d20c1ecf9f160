import io
import json
import math

import numpy as np
import pytest

from ddispatch import (
    InfeasibleDutyCycle,
    LatticeMismatch,
    NotIrreducible,
    ValidationError,
)
from ddispatch.design import FamilyStructure, build_exponential_family
from ddispatch.fileio import write_json
from ddispatch.loads import (
    MAX_SAMPLES_PER_STATE,
    LoadModel,
    _mode_policy,
    PoolModelSpec,
    TclModelSpec,
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


class TestSojournFit:
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
        cdf = _sojourn_cdf(48, sigma, 2.0)
        survival = np.cumprod(1.0 - hazard)
        assert np.allclose(survival, 1.0 - cdf, atol=1e-12)

    def test_mean_decreasing_in_scale(self):
        from ddispatch.loads import _mean_sojourn, _sojourn_cdf

        means = [_mean_sojourn(_sojourn_cdf(48, s, 2.0)) for s in (0.1, 0.3, 0.6, 1.5)]
        assert all(a > b for a, b in zip(means, means[1:]))

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
        assert spec.dim == 96
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

    def test_mirror_symmetry(self):
        start, stop = tcl_switch_curves(TclModelSpec())
        assert np.allclose(stop, start[::-1], atol=1e-15)


class TestEstimateQ0:
    def test_rows_normalized(self):
        nk = estimate_q0(TclModelSpec(), samples_per_state=2000, seed=3)
        q = nk.kernel.entries
        assert q.shape == (42, 21)
        assert np.allclose(q.sum(axis=1), 1.0, rtol=0.0, atol=1e-12)
        assert q.min() >= 0.0
        assert nk.provenance == {"method": "monte_carlo", "samples": 2000, "seed": 3}

    def test_deterministic_given_seed(self):
        a = estimate_q0(TclModelSpec(), samples_per_state=1500, seed=9)
        b = estimate_q0(TclModelSpec(), samples_per_state=1500, seed=9)
        c = estimate_q0(TclModelSpec(), samples_per_state=1500, seed=10)
        assert np.array_equal(a.kernel.entries, b.kernel.entries)
        assert not np.array_equal(a.kernel.entries, c.kernel.entries)

    def test_zero_noise_boundary_point_masses(self):
        spec = TclModelSpec(noise_var=0.0)
        q = estimate_q0(spec, samples_per_state=2000, seed=0).kernel.entries
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
        q = estimate_q0(spec, samples_per_state=4000, seed=1).kernel.entries
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
            a = estimate_q0(spec, samples_per_state=n, seed=s1).kernel.entries
            b = estimate_q0(spec, samples_per_state=n, seed=s2).kernel.entries
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
