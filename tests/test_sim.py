import math
import time
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from ddispatch import BadCutoffs, NonFinite, OutOfGrid, ValidationError
from ddispatch import design, markov, sim
from ddispatch.design import (DesignFamily, LoadStateSpace, build_exponential_family,
                              solve_design_ode)
from ddispatch.linearize import dc_gain, linearize, transfer_eval
from ddispatch.markov import (Nonzeros, Pmf, StateFunction, StochasticMatrix, geometric_mix,
                              invariant_pmf)
from ddispatch.sim import (
    MAX_FLEET_SIZE,
    FleetState,
    SignalSet,
    TrackingConfig,
    fleet_init,
    fleet_rollout,
    fleet_step,
    frequency_decompose,
    meanfield_rollout,
    meanfield_step,
    track,
    tracking_metrics,
)

from conftest import composed


def random_family(d=4, seed=7, zeta_max=1.0, step=0.02):
    rng = np.random.default_rng(seed)
    chain = StochasticMatrix(rng.dirichlet(np.ones(d) * 2.0, size=d))
    util = StateFunction(np.linspace(0.5, 2.5, d), units="kW")
    space = LoadStateSpace(n_control=d, n_exo=1, util=util, anchor=0)
    return solve_design_ode(chain, space, "ipd", zeta_max, step=step)


@pytest.fixture(scope="module")
def fam():
    return random_family()


class TestMeanfieldStep:
    def test_invariant_fixed_point(self, fam):
        for z in (-0.5, 0.0, 0.7):
            pi = fam.pi_at(z)
            out, y = meanfield_step(pi, z, fam)
            assert np.allclose(out.weights, pi.weights, atol=1e-12)
            assert y == pytest.approx(fam.ubar_at(z), abs=1e-10)

    def test_convergence_to_nominal(self, fam):
        d = fam.space.dim
        mu = Pmf(np.eye(d)[2])
        y, mu_end = meanfield_rollout(fam, np.zeros(300), mu0=mu)
        assert abs(y[-1] - fam.ubar_at(0.0)) < 1e-8
        assert np.allclose(mu_end.weights, fam.pi_at(0.0).weights, atol=1e-8)
        # the transient contracts quickly for this well-mixed chain
        dev = np.abs(y - fam.ubar_at(0.0))
        assert dev[10] < dev[0]

    def test_pmf_stays_valid_long_run(self, fam):
        rng = np.random.default_rng(0)
        zetas = 0.8 * np.sin(0.2 * np.arange(2000)) + 0.1 * rng.random(2000)
        y, mu = meanfield_rollout(fam, zetas)
        assert abs(mu.weights.sum() - 1.0) <= 1e-12
        assert mu.weights.min() >= 0.0
        assert np.all(np.isfinite(y))

    def test_out_of_grid(self, fam):
        with pytest.raises(OutOfGrid):
            meanfield_step(fam.pi_at(0.0), 2.0, fam)

    def test_wrong_dimension_rejected(self, fam):
        d = fam.space.dim
        for size in (d + 1, d - 1):
            mu = Pmf(np.ones(size) / size)
            with pytest.raises(ValidationError, match=f"pmf has {size} states, expected {d}"):
                meanfield_step(mu, 0.0, fam)
            with pytest.raises(ValidationError, match=f"pmf has {size} states, expected {d}"):
                meanfield_rollout(fam, np.zeros(3), mu0=mu)

    @staticmethod
    def _families(fam):
        """Direct, composed and exogenous-coordinate families."""
        rng = np.random.default_rng(4)
        q0 = rng.dirichlet(np.ones(2), size=6)
        r0 = rng.dirichlet(np.ones(3), size=3) * (rng.random((3, 3)) < 0.7)
        r0[np.arange(3), (np.arange(3) + 1) % 3] += 0.2
        r0 /= r0.sum(axis=1, keepdims=True)
        base = np.einsum("xc,xe->xce", r0[np.arange(6) // 2], q0).reshape(6, 6)
        space = LoadStateSpace(n_control=3, n_exo=2,
                               util=StateFunction(rng.normal(size=6)),
                               exo_kernel=StochasticMatrix(q0))
        exo = build_exponential_family(StochasticMatrix(base), space, "myopic", 1.0,
                                       step=0.1)
        return [fam, composed(fam, 0.3), exo, composed(exo, 0.6)]

    def test_matches_dense_kernel_product(self, fam):
        rng = np.random.default_rng(8)
        for family in self._families(fam):
            d = family.space.dim
            util = family.space.util.values
            for zeta in (-0.7, -0.13, 0.0, 0.45, 1.0):
                mu = Pmf(rng.dirichlet(np.ones(d)))
                want = mu.weights @ family.kernel_at(zeta).entries
                want = want / want.sum()
                out, y = meanfield_step(mu, zeta, family)
                assert np.abs(out.weights - want).max() <= 1e-15
                assert y == pytest.approx(want @ util, rel=1e-14, abs=1e-15)

    def test_kernel_is_the_lazy_mix_of_the_jump_kernel(self, fam):
        # the per-step kernel read off its nonzeros is bitwise the dense mix
        for family in self._families(fam):
            rate = family.structure.sampling_rate
            for zeta in (-0.7, -0.13, 0.0, 0.45, 1.0):
                want = geometric_mix(family.jump_kernel_at(zeta), rate).entries
                assert family.kernel_at(zeta).entries.tobytes() == want.tobytes()

    def test_underflowing_tilt_rejected(self, fam):
        h_grid = fam.h_grid.copy()
        h_grid[-1, 1] = 800.0  # the tilt loses entries at the last command
        bad = DesignFamily(fam.space, fam.base, fam.kind, fam.structure,
                           fam.zeta_grid, h_grid)
        meanfield_step(fam.pi_at(0.0), fam.zeta_grid[-2], bad)
        with pytest.raises(NonFinite, match="shrank"):
            meanfield_step(fam.pi_at(0.0), fam.zeta_grid[-1], bad)

    @pytest.mark.parametrize("name", ["ROW_SUM_TOL", "PMF_TOL"])
    def test_row_sum_and_pmf_checks_run(self, fam, monkeypatch, name):
        mu = fam.pi_at(0.0)
        monkeypatch.setattr(markov, name, -1.0)  # no sum can pass
        with pytest.raises(ValidationError):
            meanfield_step(mu, 0.3, fam)
        if name == "ROW_SUM_TOL":  # a fleet step builds no pmf, but it tilts
            with pytest.raises(ValidationError):
                fleet_step(FleetState.from_states([0, 1], fam.space.dim), 0.3, fam,
                           np.random.default_rng(0))

    def test_rollout_builds_no_kernel(self, fam, monkeypatch):
        # both plants step on the kernels' nonzeros: no d x d kernel, none validated
        counts = {"kernel_at": 0, "matrices": 0}
        kernel_at = DesignFamily.kernel_at
        post_init = StochasticMatrix.__post_init__

        def counted_kernel_at(self, zeta):
            counts["kernel_at"] += 1
            return kernel_at(self, zeta)

        def counted_post_init(self):
            counts["matrices"] += 1
            post_init(self)

        mu0 = fam.pi_at(0.0)
        zetas = 0.8 * np.sin(0.05 * np.arange(200))
        monkeypatch.setattr(DesignFamily, "kernel_at", counted_kernel_at)
        monkeypatch.setattr(StochasticMatrix, "__post_init__", counted_post_init)
        y_mf, _ = meanfield_rollout(fam, zetas, mu0=mu0)
        y_fleet, _ = fleet_rollout(fam, zetas, n=500, seed=1, mu0=mu0)
        assert counts == {"kernel_at": 0, "matrices": 0}
        assert np.all(np.isfinite(y_mf)) and np.all(np.isfinite(y_fleet))
        fam.kernel_at(0.5)  # the counters do count
        assert counts["kernel_at"] == 1 and counts["matrices"] >= 1

    def test_impulse_matches_linearization_to_second_order(self, fam):
        # nonlinear impulse response minus linear prediction scales like
        # the squared impulse size
        model = linearize(fam, 0.0)
        k_max = 40
        coef = np.empty(k_max)
        x = model.b.copy()
        for k in range(k_max):
            coef[k] = model.c @ x
            x = model.a @ x

        def sup_gap(a):
            zetas = np.zeros(k_max)
            zetas[0] = a
            y, _ = meanfield_rollout(fam, zetas)
            return np.abs((y - fam.ubar_at(0.0)) - a * coef).max()

        big, small = sup_gap(0.2), sup_gap(0.1)
        assert big < 0.01
        assert 2.5 < big / small < 6.0


class TestFleet:
    @pytest.mark.parametrize("call", [
        lambda: FleetState.from_states([[0, 1], [1, 0]], 2),
    ], ids=["states_2d"])
    def test_refusals(self, call):
        with pytest.raises(ValidationError):
            call()

    def test_bitwise_deterministic(self, fam):
        zetas = 0.5 * np.sin(0.1 * np.arange(50))
        y1, end1 = fleet_rollout(fam, zetas, n=200, seed=11)
        y2, end2 = fleet_rollout(fam, zetas, n=200, seed=11)
        assert np.array_equal(y1, y2)
        assert np.array_equal(end1.counts, end2.counts)
        y3, _ = fleet_rollout(fam, zetas, n=200, seed=12)
        assert not np.array_equal(y1, y3)

    def test_single_agent_is_plain_chain(self, fam):
        # an N = 1 fleet's power names its state (the utilities differ), so
        # its path gives every row's next-state frequencies: chi-square
        # against the kernel row, and nothing off the row's support
        d, zeta, steps = fam.space.dim, 0.3, 12_000
        util = fam.space.util.values
        assert np.unique(util).size == d
        y, _ = fleet_rollout(fam, zeta * np.ones(steps), n=1, seed=3)
        path = np.searchsorted(util, y)
        assert np.array_equal(util[path], y)
        seen = np.zeros((d, d))
        np.add.at(seen, (path[:-1], path[1:]), 1.0)
        p = fam.kernel_at(zeta).entries
        for x in range(d):
            total = seen[x].sum()
            assert total > 500
            on = p[x] > 0.0
            assert np.all(seen[x, ~on] == 0.0)
            expect = total * p[x, on]
            chi2 = float(((seen[x, on] - expect) ** 2 / expect).sum())
            df = on.sum() - 1
            assert (chi2 - df) / math.sqrt(2 * max(df, 1)) < 5.0, (x, chi2, df)

    @staticmethod
    def _kernel_family(p):
        """A family whose per-step kernel is ``p`` at every command, its
        values taken as they are (no row-sum check)."""
        d = p.shape[0]
        rows, cols = np.nonzero(p)
        support = Nonzeros(rows, cols, p[rows, cols], np.searchsorted(rows, np.arange(d)))
        return SimpleNamespace(
            step_support=support, step_values_at=lambda zeta: support.values,
            row_layout=markov._row_layout(support),
            space=SimpleNamespace(dim=d, util=StateFunction(np.arange(d) + 1.0)))

    def test_draws_match_dense_kernel(self, fam):
        # from fixed counts c, a step's counts have mean c P and covariance
        # sum_x c_x (diag P_x - P_x^T P_x), P_x row x of the dense kernel:
        # over 1500 draws every sample mean and covariance entry lies within
        # 5 standard errors (Gaussian approximation for the covariance)
        rng = np.random.default_rng(9)
        draws = 1500
        for family in TestMeanfieldStep._families(fam):
            d = family.space.dim
            c = rng.integers(50, 400, d)
            c[rng.integers(0, d)] = 0                      # an empty row
            state = FleetState(c)
            for zeta in (-0.7, 0.45):
                p = family.kernel_at(zeta).entries
                mean = c @ p
                cov = np.diag(mean) - p.T @ (c[:, None] * p)
                sample = np.array([fleet_step(state, zeta, family, rng)[0].counts
                                   for _ in range(draws)], dtype=float)
                var = np.diag(cov)
                got_mean = sample.mean(axis=0)
                assert np.all(np.abs(got_mean - mean) <= 5.0 * np.sqrt(var / draws) + 1e-9)
                got_cov = np.cov(sample, rowvar=False)
                se = np.sqrt((np.outer(var, var) + cov ** 2) / draws)
                assert np.all(np.abs(got_cov - cov) <= 5.0 * se + 1e-9)

    @pytest.mark.parametrize("d", [1, 2, 7, 8, 9, 96])
    def test_step_conserves_n_on_support(self, d):
        # random sparse kernels with zero columns and a last column that is
        # never used: every step keeps N, and counts land only in columns
        # that some occupied row reaches
        rng = np.random.default_rng(d)
        p = rng.dirichlet(np.ones(d), size=d)
        p[rng.random((d, d)) < 0.5] = 0.0
        if d > 1:
            p[:, -1] = 0.0
        p[:, 0] += 1e-3                    # keep every row nonempty
        p /= p.sum(axis=1, keepdims=True)
        family = self._kernel_family(p)
        for n in (1, 7, 10**6):
            state = FleetState(rng.multinomial(n, np.ones(d) / d))
            for _ in range(5):
                reach = (state.counts > 0) @ (p > 0.0)
                state, y = fleet_step(state, 0.0, family, rng)
                assert state.n == n
                assert np.all(state.counts[~reach] == 0)
                assert y == float(state.counts @ (np.arange(d) + 1.0)) / n

    def test_dust_above_row_total(self):
        # a row's dust (one minus its sum) goes to its last nonzero: on
        # rows summing to 1 - 1e-13 or 1 + 1e-13, and on rows 1e-2 short,
        # where a trailing padding column would catch ~1% of the fleet, no
        # count lands off the occupied rows' supports.  A single nonzero
        # above one (numpy refuses it as a probability) is capped at one.
        rng = np.random.default_rng(2)
        d, n = 11, 10**6
        p = rng.dirichlet(np.ones(d), size=d)
        p[rng.random((d, d)) < 0.5] = 0.0
        p[:, 5] += 0.1
        p[:, -1] = 0.0
        p[2, -1] = 0.2
        p[7] = 0.0
        p[7, 3] = 1.0                       # a single nonzero
        p /= p.sum(axis=1, keepdims=True)
        for scale in (1.0 - 1e-13, 1.0 + 1e-13, 1.0 - 1e-2):
            family = self._kernel_family(p * scale)
            for x in range(d):
                counts = np.zeros(d, dtype=np.int64)
                counts[x] = n
                out, _ = fleet_step(FleetState(counts), 0.0, family, rng)
                assert out.n == n
                assert np.all(out.counts[p[x] == 0.0] == 0)

    def test_last_column_in_every_row(self):
        # the layout right-aligns every row, so the table's last column
        # holds each row's last nonzero, and the padding carries no mass
        rng = np.random.default_rng(3)
        d = 10
        p = rng.dirichlet(np.ones(d), size=d)
        p[rng.random((d, d)) < 0.5] = 0.0
        p[:, -1] += 0.1
        p[4] = 0.0
        p[4, -1] = 1.0                     # a row whose only mass is the last column
        p /= p.sum(axis=1, keepdims=True)
        support = StochasticMatrix(p).nonzeros
        layout = markov._row_layout(support)
        width = layout.width
        assert width == (p > 0.0).sum(axis=1).max()
        table = np.zeros(d * width)
        table[layout.slots] = support.values
        table = table.reshape(d, width)
        last = [np.flatnonzero(row)[-1] for row in p]
        assert np.array_equal(layout.columns.reshape(d, width)[:, -1], last)
        assert np.array_equal(table[:, -1], p[np.arange(d), last])
        dense = np.zeros((d, d))
        np.add.at(dense, (np.arange(d).repeat(width), layout.columns), table.ravel())
        assert np.array_equal(dense, p)
        out, _ = fleet_step(FleetState.from_states([4] * 1000, d), 0.0,
                            self._kernel_family(p), rng)
        assert out.counts[-1] == 1000

    def test_time_average_approaches_mean_power(self, fam):
        z = 0.4
        y, _ = fleet_rollout(fam, z * np.ones(4000), n=50, seed=5)
        avg = y[500:].mean()
        assert abs(avg - fam.ubar_at(z)) < 0.05

    def test_fleet_approaches_meanfield(self, fam):
        zetas = 0.4 * np.sin(2 * np.pi * np.arange(200) / 50.0)
        y_mf, _ = meanfield_rollout(fam, zetas)

        def sup_err(n, seeds):
            errs = []
            for s in seeds:
                y_n, _ = fleet_rollout(fam, zetas, n=n, seed=s)
                errs.append(np.abs(y_n - y_mf).max())
            return float(np.mean(errs))

        errs = [sup_err(n, (1, 2, 3)) for n in (200, 800, 3200)]
        assert errs[0] > errs[1] > errs[2]
        slope = np.polyfit(np.log([200, 800, 3200]), np.log(errs), 1)[0]
        assert -0.8 < slope < -0.2

    def test_inverse_sqrt_n_at_scale(self, fam):
        # the 1/sqrt(N) law up to a million agents, within two seconds: a
        # step's cost does not grow with N
        t0 = time.perf_counter()
        zetas = 0.4 * np.sin(2 * np.pi * np.arange(200) / 50.0)
        y_mf, _ = meanfield_rollout(fam, zetas)
        sizes = (10**4, 10**5, 10**6)
        sups = [np.mean([np.abs(fleet_rollout(fam, zetas, n, seed)[0] - y_mf).max()
                         for seed in range(6)]) for n in sizes]
        assert sups[0] > sups[1] > sups[2]
        slope = np.polyfit(np.log(sizes), np.log(sups), 1)[0]
        assert -0.65 <= slope <= -0.35
        assert time.perf_counter() - t0 < 2.0

    def test_bad_fleet_size(self, fam):
        for n in (0, MAX_FLEET_SIZE + 1, 10**12):
            with pytest.raises(ValidationError, match="fleet size"):
                fleet_init(fam, n, seed=0)

    def test_states_out_of_range_rejected(self, fam):
        d = fam.space.dim
        for states in ([-1, 0], [d, 0], [0, 1, d + 5]):
            with pytest.raises(ValidationError, match="agent states"):
                FleetState.from_states(states, d)

    def test_bad_counts_rejected(self, fam):
        d = fam.space.dim
        for counts, match in (([1, -1, 2, 0], "nonnegative"),
                              ([1.5, 0, 0, 0], "whole numbers"),
                              ([np.nan, 1, 0, 0], "whole numbers"),
                              ([True, False, True, True], "numbers"),
                              ([[1, 2], [3, 4]], "1-d"),
                              ([0, 0, 0, 0], "fleet size"),
                              ([MAX_FLEET_SIZE, 1, 0, 0], "fleet size")):
            with pytest.raises(ValidationError, match=match):
                FleetState(counts)
        for counts in ([1, 2, 3], [1] * (d + 1)):
            with pytest.raises(ValidationError, match="state counts, expected"):
                fleet_step(FleetState(counts), 0.0, fam, np.random.default_rng(0))
        assert FleetState([2.0, 0.0, 1.0, 0.0]).n == 3

    def test_step_leaves_its_input(self, fam):
        state, rng = fleet_init(fam, 500, seed=4)
        before = state.counts.copy()
        out, _ = fleet_step(state, 0.3, fam, rng)
        assert np.array_equal(state.counts, before)
        assert not np.shares_memory(out.counts, state.counts)
        assert not np.array_equal(out.counts, before)

    @staticmethod
    def _chain(family, zetas, n, seed, mu0):
        """Power and final counts of ``fleet_step`` called once per command."""
        state, rng = fleet_init(family, n, seed, mu0=mu0)
        y = []
        for z in zetas:
            state, y_t = fleet_step(state, float(z), family, rng)
            y.append(y_t)
        return np.array(y), state.counts

    def test_rollout_is_a_chain_of_steps(self, fam):
        zetas = 0.7 * np.sin(0.3 * np.arange(40))
        for family in TestMeanfieldStep._families(fam):
            mu0 = family.pi_at(0.2)
            y, end = fleet_rollout(family, zetas, n=700, seed=6, mu0=mu0)
            y_chain, end_chain = self._chain(family, zetas, 700, 6, mu0)
            assert y.tobytes() == y_chain.tobytes()
            assert end.counts.tobytes() == end_chain.tobytes()

    def test_tracking_fleet_is_a_chain_of_steps(self, fam, monkeypatch):
        # the loop's commands replayed through fleet_step give its output
        # and its final counts bitwise
        reference = 0.03 * np.sin(0.2 * np.arange(40))
        for family in TestMeanfieldStep._families(fam):
            states = []

            def recorded(*args):
                out = fleet_step(*args)
                states.append(out[0])
                return out

            with monkeypatch.context() as patch:
                patch.setattr(sim, "fleet_step", recorded)
                out = track(family, reference, plant="fleet", n=700, seed=8)
            y_chain, end_chain = self._chain(family, out["zeta"], 700, 8,
                                             linearize(family, 0.0).pi)
            assert out["output"].tobytes() == y_chain.tobytes()
            assert states[-1].counts.tobytes() == end_chain.tobytes()

    def test_one_fleet_step_per_command(self, fam, monkeypatch):
        # both fleet loops step through sim.fleet_step, once per command
        commands = []

        def counted(state, zeta, family, rng):
            commands.append(zeta)
            return fleet_step(state, zeta, family, rng)

        monkeypatch.setattr(sim, "fleet_step", counted)
        zetas = 0.5 * np.sin(0.3 * np.arange(25))
        fleet_rollout(fam, zetas, n=300, seed=1)
        assert commands == zetas.tolist()
        commands.clear()
        out = track(fam, 0.02 * np.ones(17), plant="fleet", n=300, seed=1)
        assert commands == out["zeta"].tolist()

    def test_steps_allocate_only_the_draws(self, fam, monkeypatch):
        # a step allocates nothing that scales with N: the tracemalloc peak
        # rise over steps 2 to 20 of a run is the same at N = 10^3 and 10^6
        def peak_rise(n):
            calls, marks = [], {}

            def marked(self, zeta):
                calls.append(zeta)
                if len(calls) == 2:        # step 1 done
                    marks["after_first"] = tracemalloc.get_traced_memory()[0]
                    tracemalloc.reset_peak()
                elif len(calls) == 21:     # steps 2 to 20 done
                    marks["peak"] = tracemalloc.get_traced_memory()[1]
                return step_values_at(self, zeta)

            with monkeypatch.context() as patch:
                patch.setattr(DesignFamily, "step_values_at", marked)
                tracemalloc.start()
                try:
                    fleet_rollout(fam, 0.3 * np.ones(21), n=n, seed=2)
                finally:
                    tracemalloc.stop()
            return marks["peak"] - marks["after_first"]

        step_values_at = DesignFamily.step_values_at
        small, big = peak_rise(10**3), peak_rise(10**6)
        assert abs(big - small) <= 256, (small, big)


class TestTracking:
    def test_unknown_plant_refused(self, fam):
        with pytest.raises(ValidationError, match="unknown plant"):
            track(fam, np.zeros(10), plant="swarm")

    def test_constant_output_refused(self):
        chain = StochasticMatrix(np.random.default_rng(3).dirichlet(np.ones(3), size=3))
        space = LoadStateSpace(n_control=3, n_exo=1, util=StateFunction(np.full(3, 2.0)))
        flat = build_exponential_family(chain, space, "myopic", 0.5, step=0.1)
        with pytest.raises(ValidationError, match="zero DC gain"):
            track(flat, np.zeros(10))

    def test_equilibrium_zero_reference(self, fam):
        out = track(fam, np.zeros(100))
        assert np.abs(out["zeta"]).max() < 1e-12
        assert np.allclose(out["output"], fam.ubar_at(0.0), atol=1e-9)

    def test_step_reference_settles(self, fam):
        out = track(fam, 0.03 * np.ones(400))
        ubar = fam.ubar_at(0.0)
        err_frac = out["error"] / ubar
        assert abs(err_frac[-1]) < 0.003
        assert np.abs(err_frac[-50:]).max() < 0.003

    def test_open_loop_sinusoid_matches_transfer_gain(self, fam):
        model = linearize(fam, 0.0)
        theta = 2.0 * math.pi / 40.0
        g_mag = abs(transfer_eval(model, np.exp(1j * theta))[0])
        gain = None
        az = 0.05
        # reference chosen so the open-loop command is az*sin(theta*t)
        from ddispatch.linearize import dc_gain

        gain = dc_gain(model) / fam.ubar_at(0.0)
        t = np.arange(480)
        r_frac = gain * az * np.sin(theta * t)
        out = track(fam, r_frac, TrackingConfig(kind="open_loop"))
        assert np.allclose(out["zeta"], az * np.sin(theta * t), atol=1e-12)
        tail = out["output"][-160:] - fam.ubar_at(0.0)
        tt = t[-160:]
        # project on the quadrature pair over whole cycles
        amp = 2.0 * abs(np.mean(tail * np.exp(-1j * theta * tt)))
        assert amp == pytest.approx(g_mag * az, rel=0.10)

    def test_square_wave_bounded_error(self, fam):
        t = np.arange(600)
        r = 0.05 * np.sign(np.sin(2 * np.pi * t / 150.0))
        out = track(fam, r)
        m = tracking_metrics(out, settle=100)
        ubar = fam.ubar_at(0.0)
        assert m["rms_error"] < 0.05 * ubar
        assert m["zeta_max"] <= 0.9 * fam.zeta_grid[-1] + 1e-12

    def test_saturation_and_antiwindup_recovery(self, fam):
        r = np.concatenate([5.0 * np.ones(150), np.zeros(250)])
        out = track(fam, r)
        hi = 0.9 * fam.zeta_grid[-1]
        assert out["zeta"].max() == pytest.approx(hi, abs=1e-12)
        # once the reference drops, the loop must unwind promptly
        err_frac = out["error"] / fam.ubar_at(0.0)
        assert np.abs(err_frac[250:]).max() < 0.02

    def test_integrator_winds_up_without_antiwindup(self, fam):
        # the same run without back-calculation keeps integrating while the
        # command is held at its limit, so it stays saturated for longer
        # after the reference drops, and is still off when the other has settled
        r = np.concatenate([5.0 * np.ones(150), np.zeros(250)])
        hi = 0.9 * fam.zeta_grid[-1]
        runs = {aw: track(fam, r, TrackingConfig(anti_windup=aw)) for aw in (True, False)}
        held = {aw: int(np.count_nonzero(out["zeta"] == hi)) for aw, out in runs.items()}
        assert held[True] <= 150 < held[False]
        late = {aw: np.abs(out["error"][250:]).max() for aw, out in runs.items()}
        assert late[False] > 10.0 * late[True]

    def test_unsaturated_loop_can_leave_grid(self, fam):
        cfg = TrackingConfig(zeta_limit=50.0)
        with pytest.raises(OutOfGrid):
            track(fam, 5.0 * np.ones(50), cfg)

    def test_fleet_plant_deterministic(self, fam):
        r = 0.02 * np.ones(60)
        a = track(fam, r, plant="fleet", n=300, seed=9)
        b = track(fam, r, plant="fleet", n=300, seed=9)
        assert np.array_equal(a["output"], b["output"])
        assert np.array_equal(a["zeta"], b["zeta"])

    @pytest.mark.parametrize("k", [0.25, 1.0])
    @pytest.mark.parametrize("r", [0.01, 0.02])
    def test_proportional_loop_settles_at_static_law(self, fam, r, k):
        # with loop gain k = kp * (fractional DC gain), a constant reference
        # r settles at the fractional deviation k r / (1 + k)
        ubar0 = fam.ubar_at(0.0)
        kp = k * ubar0 / dc_gain(linearize(fam, 0.0))
        out = track(fam, r * np.ones(300), TrackingConfig(kind="proportional", kp=kp))
        settled = out["output"][-1] / ubar0 - 1.0
        assert settled == pytest.approx(k * r / (1.0 + k), rel=0.02)

    @pytest.mark.parametrize("plant", ["meanfield", "fleet"])
    def test_one_nominal_pmf_solve_per_call(self, fam, monkeypatch, plant):
        solves = []
        checked = design._checked_invariant_raw

        def counted(p, where=""):
            solves.append(where)
            return checked(p, where)

        monkeypatch.setattr(design, "_checked_invariant_raw", counted)
        track(fam, 0.01 * np.ones(5), plant=plant, n=50)
        assert solves == [" at command 0"]

    def test_zero_nominal_power_rejected(self):
        space = LoadStateSpace(n_control=3, n_exo=1, util=StateFunction(np.zeros(3)))
        chain = StochasticMatrix(np.full((3, 3), 1.0 / 3.0))
        family = build_exponential_family(chain, space, "myopic", 0.5, step=0.1)
        with pytest.raises(ValidationError, match="nominal average power is zero"):
            track(family, np.zeros(10))

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            TrackingConfig(kind="bang_bang")
        with pytest.raises(ValidationError):
            TrackingConfig(kp=math.inf)
        with pytest.raises(ValidationError):
            TrackingConfig(zeta_limit=-1.0)


class TestSignalSet:
    def test_validation(self):
        with pytest.raises(ValidationError):
            SignalSet(period_s=0.0, samples={"a": [1.0]})
        with pytest.raises(ValidationError):
            SignalSet(period_s=1.0, samples={})
        with pytest.raises(ValidationError):
            SignalSet(period_s=1.0, samples={"a": [1.0, 2.0], "b": [1.0]})
        with pytest.raises(ValidationError):
            SignalSet(period_s=1.0, samples={"a": [[1.0, 2.0]]})

    def test_csv_round_trip(self):
        rng = np.random.default_rng(2)
        s = SignalSet(period_s=2.5, samples={
            "reference": rng.normal(size=37),
            "zeta": rng.normal(size=37),
        })
        back = SignalSet.from_csv(s.to_csv())
        assert back.period_s == 2.5
        assert list(back.samples) == ["reference", "zeta"]
        for name in s.samples:
            assert np.array_equal(back[name], s[name])

    def test_csv_round_trip_numpy_period(self):
        # a numpy scalar period is written as its number, not its repr
        s = SignalSet(period_s=np.float64(60.0), samples={"y": [1.0, 2.0]})
        assert "# period_s=60.0\n" in s.to_csv()
        assert SignalSet.from_csv(s.to_csv()).period_s == 60.0

    def test_csv_period_inferred_from_times(self):
        back = SignalSet.from_csv("t_s,y\n0,1.0\n60,2.0\n")
        assert back.period_s == 60.0
        assert np.array_equal(back["y"], [1.0, 2.0])

    def test_csv_write_to_disk(self, tmp_path):
        s = SignalSet(period_s=1.0, samples={"y": [1.0, 2.0, 3.0]})
        path = tmp_path / "sig.csv"
        text = s.to_csv(path)
        assert path.read_text() == text
        assert text.startswith("# format_version=")

    def test_csv_rejects_garbage(self):
        with pytest.raises(ValidationError):
            SignalSet.from_csv("no header here\n")
        with pytest.raises(ValidationError):
            SignalSet.from_csv("t_s,y\n")
        for text in ("y,t_s\n0,1\n", "t_s\n0\n1\n", "# period_s=x\nt_s,y\n0,1\n"):
            with pytest.raises(ValidationError):
                SignalSet.from_csv(text)


class TestDecompose:
    @pytest.mark.parametrize("values,period_s", [(np.ones((2, 50)), 1.0), (np.ones(50), 0.0)],
                             ids=["signal_2d", "period_zero"])
    def test_refusals(self, values, period_s):
        with pytest.raises(ValidationError):
            frequency_decompose(values, 1e-3, 1e-2, period_s)

    def test_telescoping_exact(self):
        rng = np.random.default_rng(4)
        x = 4.0 + rng.normal(size=5000).cumsum() * 0.01
        low, mid, high = frequency_decompose(x, 1e-4, 1e-3, 60.0)
        # the middle band is the residual by definition, so the identity
        # holds bitwise in that grouping; the free-order sum is exact to
        # rounding
        assert np.array_equal((x - low) - high, mid)
        assert np.allclose(low + mid + high, x, rtol=0.0,
                           atol=1e-12 * np.abs(x).max())

    def test_constant_converges(self):
        x = 4.0 * np.ones(6000)
        low, mid, high = frequency_decompose(x, 1e-3, 1e-2, 1.0)
        assert abs(low[-1] - 4.0) < 1e-3
        assert abs(mid[-1]) < 1e-3
        assert abs(high[-1]) < 1e-6

    def test_zero_signal(self):
        low, mid, high = frequency_decompose(np.zeros(100), 1e-3, 1e-2, 1.0)
        assert np.array_equal(low, np.zeros(100))
        assert np.array_equal(mid, np.zeros(100))
        assert np.array_equal(high, np.zeros(100))

    def test_bad_cutoffs(self):
        x = np.zeros(10)
        with pytest.raises(BadCutoffs):
            frequency_decompose(x, 1e-2, 1e-3, 1.0)   # inverted
        with pytest.raises(BadCutoffs):
            frequency_decompose(x, 0.0, 1e-3, 1.0)    # lp not positive
        with pytest.raises(BadCutoffs):
            frequency_decompose(x, 1e-3, 0.6, 1.0)    # hp above Nyquist

    def test_fast_bands_have_small_mean(self):
        # synthetic wind-like input: slow diurnal swing plus mid-period
        # oscillation plus jitter
        dt = 60.0
        t = dt * np.arange(30000)
        rng = np.random.default_rng(8)
        x = (4.0 + 1.5 * np.sin(2 * np.pi * t / 86400.0)
             + 0.8 * np.sin(2 * np.pi * t / 3500.0)
             + 0.3 * rng.normal(size=t.size))
        low, mid, high = frequency_decompose(x, 1.0 / (6 * 3600.0),
                                             1.0 / 1800.0, dt)
        rms = float(np.sqrt(np.mean(x ** 2)))
        assert abs(mid.mean()) < 0.02 * rms
        assert abs(high.mean()) < 0.02 * rms

    def test_band_separation(self):
        # a pure slow tone lands in the low band, a pure fast tone in the
        # high band (energy split after the transient)
        dt = 1.0
        t = np.arange(20000.0)
        slow = np.sin(2 * np.pi * t / 5000.0)
        fast = np.sin(2 * np.pi * t / 8.0)
        low_s, mid_s, high_s = frequency_decompose(slow, 1e-3, 5e-2, dt)
        low_f, mid_f, high_f = frequency_decompose(fast, 1e-3, 5e-2, dt)
        tail = slice(5000, None)

        def power(v):
            return float(np.mean(v[tail] ** 2))

        assert power(low_s) > 0.6 * power(slow)
        assert power(high_s) < 0.05 * power(slow)
        assert power(high_f) > 0.6 * power(fast)
        assert power(low_f) < 0.05 * power(fast)
