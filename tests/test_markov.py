"""Chain algebra: structure checks, invariant pmfs, adjoints, Poisson solves."""

import re

import numpy as np
import pytest

from ddispatch import markov
from ddispatch.errors import (
    NotIrreducible,
    SingularSystem,
    SupportViolation,
    ValidationError,
    ZeroMass,
)
from ddispatch.markov import (
    INVARIANT_TOL,
    PMF_TOL,
    InvariantSolve,
    Pmf,
    StateFunction,
    StochasticMatrix,
    adjoint,
    adjoint_product,
    check_irreducible_aperiodic,
    compose,
    fundamental_matrix,
    geometric_mix,
    invariant_pmf,
    poisson_solve,
    relative_entropy_rate,
    _checked_invariant_raw,
)

from conftest import cycle_chain, random_chain, sparse_random_chain, two_state


class TestTypes:
    def test_row_sum_validation(self):
        with pytest.raises(ValidationError):
            StochasticMatrix(np.array([[0.5, 0.5], [0.3, 0.6]]))

    def test_negative_entry_rejected(self):
        with pytest.raises(ValidationError):
            StochasticMatrix(np.array([[1.2, -0.2], [0.5, 0.5]]))

    def test_rectangular_rows_allowed(self):
        q = StochasticMatrix(np.array([[0.25, 0.75], [1.0, 0.0], [0.5, 0.5]]))
        assert q.shape == (3, 2)
        assert not q.is_square

    def test_support_mask_matches_positivity(self):
        p = two_state(0.3, 0.0)
        assert p.support.tolist() == [[True, True], [False, True]]

    @pytest.mark.parametrize("shape", [(1, 1), (2, 2), (7, 7), (40, 40), (5, 3), (3, 8)])
    def test_nonzeros_oracle(self, shape):
        rng = np.random.default_rng(sum(shape))
        m = rng.dirichlet(np.ones(shape[1]), size=shape[0])
        m[rng.random(shape) < 0.6] = 0.0
        m[np.arange(shape[0]), rng.integers(0, shape[1], shape[0])] += 0.1  # no empty row
        p = StochasticMatrix(m / m.sum(axis=1, keepdims=True))
        nz = p.nonzeros
        rows, cols = np.nonzero(p.entries > 0.0)  # row-major order
        assert np.array_equal(nz.rows, rows) and np.array_equal(nz.cols, cols)
        assert np.array_equal(nz.values, p.entries[rows, cols])
        assert nz.starts.tolist() == [np.flatnonzero(rows == x)[0] for x in range(shape[0])]
        assert p.nonzeros is nz and p.support is p.support
        for a in (*nz, p.support):
            assert not a.flags.writeable

    def test_entries_immutable(self):
        p = two_state(0.3, 0.4)
        with pytest.raises(ValueError):
            p.entries[0, 0] = 0.0

    def test_pmf_validation(self):
        with pytest.raises(ValidationError):
            Pmf(np.array([0.7, 0.2]))
        with pytest.raises(ValidationError):
            Pmf(np.array([1.2, -0.2]))

    def test_state_function_units(self):
        f = StateFunction(np.array([0.0, 1.0]), units="kW")
        assert f.units == "kW"
        assert f.dim == 2


class TestStructure:
    def test_identity_not_irreducible(self):
        rep = check_irreducible_aperiodic(StochasticMatrix(np.eye(2)))
        assert not rep.irreducible
        assert rep.aperiodic  # self loops give period one in both components

    def test_pure_two_cycle_periodic(self):
        p = StochasticMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
        rep = check_irreducible_aperiodic(p)
        assert rep.irreducible
        assert not rep.aperiodic

    def test_lazy_cycle_chain(self):
        rep = check_irreducible_aperiodic(cycle_chain(4))
        assert rep.irreducible
        assert rep.aperiodic

    def test_two_block_chain(self):
        m = np.zeros((4, 4))
        m[0, 1] = m[1, 0] = 1.0
        m[2, 3] = m[3, 2] = 1.0
        rep = check_irreducible_aperiodic(StochasticMatrix(m))
        assert not rep.irreducible
        assert not rep.aperiodic

    def test_random_supported_chains_irreducible(self, rng):
        for _ in range(20):
            d = int(rng.integers(2, 12))
            rep = check_irreducible_aperiodic(random_chain(rng, d))
            assert rep.irreducible and rep.aperiodic

    def test_report_is_kept(self, rng):
        p = sparse_random_chain(rng, 7)
        assert check_irreducible_aperiodic(p) is check_irreducible_aperiodic(p)
        assert p.structure is check_irreducible_aperiodic(p)

    def test_rectangular_rejected(self):
        p = StochasticMatrix(np.full((2, 3), 1.0 / 3.0))
        for _ in range(2):
            with pytest.raises(ValidationError, match="structure check needs a square"):
                check_irreducible_aperiodic(p)


class TestInvariantPmf:
    def test_hand_computed_two_state(self):
        # pi P = pi for P = [[.9, .1], [.2, .8]] gives pi = (2/3, 1/3)
        pi = invariant_pmf(two_state(0.1, 0.2))
        np.testing.assert_allclose(pi.weights, [2.0 / 3.0, 1.0 / 3.0], atol=1e-14)

    def test_birth_death_chain(self):
        p = StochasticMatrix(
            np.array([[0.5, 0.5, 0.0], [0.25, 0.5, 0.25], [0.0, 0.5, 0.5]])
        )
        pi = invariant_pmf(p)
        np.testing.assert_allclose(pi.weights, [0.25, 0.5, 0.25], atol=1e-14)

    def test_power_iteration_cross_check(self, rng):
        p = random_chain(rng, 8)
        pi = invariant_pmf(p)
        mu = np.full(8, 1.0 / 8.0)
        for _ in range(4000):
            mu = mu @ p.entries
        np.testing.assert_allclose(pi.weights, mu, atol=1e-12)

    def test_residual_and_positivity(self, rng):
        for _ in range(25):
            d = int(rng.integers(2, 30))
            p = sparse_random_chain(rng, d)
            pi = invariant_pmf(p)
            assert np.abs(pi.weights @ p.entries - pi.weights).sum() <= 1e-12
            assert pi.weights.min() > 0.0

    def test_reducible_rejected(self):
        with pytest.raises(NotIrreducible):
            invariant_pmf(StochasticMatrix(np.eye(3)))

    @pytest.mark.parametrize("weights,residual,message", [
        ([0.5, np.nan, 0.5], 0.0, "non-normalizable vector"),
        ([0.5, 0.5], 2.0 * INVARIANT_TOL, "invariant residual"),
        ([1.0 + 10 * PMF_TOL, -10 * PMF_TOL], 0.0, "weight -1.000e-11 < 0"),
    ], ids=["non_finite", "residual", "negative"])
    def test_checked_solve_refusals(self, weights, residual, message):
        # each refusal names the place its caller gave
        solve = InvariantSolve(np.array(weights), residual)
        with pytest.raises(SingularSystem, match=f"{message}.* at command 0.25$"):
            _checked_invariant_raw(solve, " at command 0.25")

    def test_residual_tolerance_edge(self, rng, monkeypatch):
        # INVARIANT_TOL is 1e-12: a solve off by 1e-11 in two weights, which
        # leaves a residual 10 to 100 times the tolerance, is refused
        p = random_chain(rng, 5)
        solve = markov._solve

        def perturbed(a, b, what):
            return solve(a, b, what) + 1e-11 * np.array([1.0, -1.0, 0.0, 0.0, 0.0])

        monkeypatch.setattr(markov, "_solve", perturbed)
        with pytest.raises(SingularSystem, match="invariant residual") as info:
            invariant_pmf(p)
        assert 1e-11 <= reported(info, "residual") <= 1e-10


def reported(info, name):
    """The number an error message gives after ``name``."""
    return float(re.search(rf"{name} ([-+.e\d]+)", str(info.value)).group(1))


class TestFundamentalMatrix:
    def test_inverse_identity(self, rng):
        p = random_chain(rng, 6)
        pi = invariant_pmf(p)
        z = fundamental_matrix(p, pi)
        m = np.eye(6) - p.entries + np.outer(np.ones(6), pi.weights)
        np.testing.assert_allclose(z @ m, np.eye(6), atol=1e-10)
        np.testing.assert_allclose(m @ z, np.eye(6), atol=1e-10)

    def test_series_representation(self, rng):
        # Z = sum over n of (P - 1 pi)^n, summable because the deflated
        # spectral radius is below one.
        p = random_chain(rng, 5)
        pi = invariant_pmf(p)
        z = fundamental_matrix(p, pi)
        dev = p.entries - np.outer(np.ones(5), pi.weights)
        acc = np.eye(5)
        term = np.eye(5)
        for _ in range(1, 400):
            term = term @ dev
            acc = acc + term
        np.testing.assert_allclose(z, acc, atol=1e-10)

    def test_rows_sum_to_one(self, rng):
        p = sparse_random_chain(rng, 9)
        z = fundamental_matrix(p, invariant_pmf(p))
        np.testing.assert_allclose(z.sum(axis=1), np.ones(9), atol=1e-10)

    def test_residual_tolerance_edge(self, rng, monkeypatch):
        # FUNDAMENTAL_TOL is 1e-10: an inverse off by 2e-9 times the
        # identity, so 10 to 100 times the tolerance off, is refused
        p = random_chain(rng, 4)
        pi = invariant_pmf(p)
        solve = markov._solve
        monkeypatch.setattr(markov, "_solve",
                            lambda a, b, what: solve(a, b, what) + 2e-9 * np.eye(4))
        with pytest.raises(SingularSystem, match="fundamental matrix residual") as info:
            fundamental_matrix(p, pi)
        assert 1e-9 <= reported(info, "residual") <= 1e-8

    def test_singular_system_reported(self, rng, monkeypatch):
        p = random_chain(rng, 4)
        pi = invariant_pmf(p)

        def singular(a, b):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "solve", singular)
        with pytest.raises(SingularSystem,
                           match="^fundamental matrix solve failed: Singular matrix$"):
            fundamental_matrix(p, pi)


class TestAdjoint:
    def test_reversible_chain_self_adjoint(self):
        p = StochasticMatrix(
            np.array([[0.5, 0.5, 0.0], [0.25, 0.5, 0.25], [0.0, 0.5, 0.5]])
        )
        rev = adjoint(p, invariant_pmf(p))
        np.testing.assert_allclose(rev.entries, p.entries, atol=1e-13)

    def test_involution(self, rng):
        for _ in range(10):
            p = sparse_random_chain(rng, int(rng.integers(3, 15)))
            pi = invariant_pmf(p)
            back = adjoint(adjoint(p, pi), pi)
            assert np.abs(back.entries - p.entries).max() <= 1e-12

    def test_invariant_pmf_shared(self, rng):
        p = random_chain(rng, 7)
        pi = invariant_pmf(p)
        rev = adjoint(p, pi)
        prod = adjoint_product(p, pi)
        assert np.abs(pi.weights @ rev.entries - pi.weights).sum() <= 1e-10
        assert np.abs(pi.weights @ prod.entries - pi.weights).sum() <= 1e-10

    def test_lazy_cycle_adjoint_runs_backwards(self):
        # Time reversal of the lazy 4-cycle: interior states step backwards
        # with probability one; the lazy state splits between its two sources.
        p = cycle_chain(4)
        pi = invariant_pmf(p)
        np.testing.assert_allclose(pi.weights, [0.2, 0.2, 0.2, 0.4], atol=1e-14)
        rev = adjoint(p, pi)
        assert rev.entries[1, 0] == pytest.approx(1.0, abs=1e-14)
        assert rev.entries[2, 1] == pytest.approx(1.0, abs=1e-14)
        assert rev.entries[0, 3] == pytest.approx(1.0, abs=1e-14)
        # the lazy state reverses into its predecessor or itself, half each
        assert rev.entries[3, 2] == pytest.approx(0.5, abs=1e-14)
        assert rev.entries[3, 3] == pytest.approx(0.5, abs=1e-14)

    def test_lazy_cycle_product_reducible(self):
        # Interior states of the reversal product are absorbing, so the
        # product kernel cannot be irreducible.
        p = cycle_chain(4)
        pi = invariant_pmf(p)
        prod = adjoint_product(p, pi)
        assert prod.entries[1, 1] == pytest.approx(1.0, abs=1e-14)
        assert prod.entries[2, 2] == pytest.approx(1.0, abs=1e-14)
        assert not check_irreducible_aperiodic(prod).irreducible

    def test_zero_mass_rejected(self):
        p = two_state(0.5, 0.5)
        with pytest.raises(ZeroMass):
            adjoint(p, Pmf(np.array([1.0, 0.0])))


class TestPoisson:
    def test_hand_computed_two_state(self):
        # For P = [[.9, .1], [.2, .8]] and f = (1, 0): pi(f) = 2/3 and the
        # anchored solution is h = (0, -10/3).
        p = two_state(0.1, 0.2)
        h = poisson_solve(p, np.array([1.0, 0.0]), anchor=0)
        np.testing.assert_allclose(h.values, [0.0, -10.0 / 3.0], atol=1e-12)

    def test_residual_identity(self, rng):
        for _ in range(10):
            d = int(rng.integers(2, 20))
            p = sparse_random_chain(rng, d)
            f = rng.normal(size=d)
            h = poisson_solve(p, f, anchor=int(rng.integers(0, d)))
            pi = invariant_pmf(p)
            fbar = pi.weights @ f
            err = np.abs(p.entries @ h.values - (h.values - f + fbar)).max()
            assert err <= 1e-10

    def test_anchor_vanishes(self, rng):
        p = random_chain(rng, 6)
        h = poisson_solve(p, rng.normal(size=6), anchor=3)
        assert h.values[3] == 0.0

    def test_constant_function_gives_zero(self, rng):
        p = random_chain(rng, 5)
        h = poisson_solve(p, np.full(5, 3.7), anchor=0)
        np.testing.assert_allclose(h.values, np.zeros(5), atol=1e-10)


class TestEntropyRate:
    def test_identical_chains_rate_zero(self, rng):
        p = random_chain(rng, 6)
        assert relative_entropy_rate(p, p, invariant_pmf(p)) == 0.0

    def test_direct_summation_oracle(self, rng):
        p0 = random_chain(rng, 5)
        p = random_chain(rng, 5)
        pi = invariant_pmf(p)
        expected = 0.0
        for x in range(5):
            for y in range(5):
                if p.entries[x, y] > 0:
                    expected += pi.weights[x] * p.entries[x, y] * np.log(
                        p.entries[x, y] / p0.entries[x, y]
                    )
        got = relative_entropy_rate(p, p0, pi)
        assert got == pytest.approx(expected, abs=1e-13)
        assert got >= 0.0

    @staticmethod
    def dense_rate(p, p0, pi):
        """sum_x pi(x) sum_y p log(p / p0), masked to p > 0 over d x d."""
        mask = p > 0.0
        ratio = np.ones_like(p)
        np.divide(p, p0, out=ratio, where=mask)
        return pi @ np.where(mask, p * np.log(ratio), 0.0).sum(axis=1)

    @staticmethod
    def sparser_tilt(rng, p0):
        """A kernel on part of the support of ``p0``, every row nonempty."""
        d = p0.dim
        m = p0.entries * np.exp(rng.normal(size=(d, d)))
        drop = rng.random((d, d)) < 0.3
        drop[np.arange(d), m.argmax(axis=1)] = False
        m[drop] = 0.0
        return StochasticMatrix(m / m.sum(axis=1, keepdims=True))

    @pytest.mark.parametrize("d", [1, 2, 5, 9, 17, 40])
    def test_matches_dense_masked_formula(self, d):
        rng = np.random.default_rng(d)
        for _ in range(20):
            p0 = sparse_random_chain(rng, d, extra_edges=3)
            p = self.sparser_tilt(rng, p0)
            pi = Pmf(rng.dirichlet(np.ones(d)))
            want = self.dense_rate(p.entries, p0.entries, pi.weights)
            assert relative_entropy_rate(p, p0, pi) == pytest.approx(want, rel=1e-15)

    def test_support_violation_on_sparse_chain(self, rng):
        p0 = sparse_random_chain(rng, 12)
        m = self.sparser_tilt(rng, p0).entries.copy()
        x, y = np.argwhere(~p0.support)[0]
        m[x, y] = 0.5
        p = StochasticMatrix(m / m.sum(axis=1, keepdims=True))
        with pytest.raises(SupportViolation):
            relative_entropy_rate(p, p0, Pmf(np.full(12, 1.0 / 12)))

    def test_support_violation(self):
        p0 = two_state(0.5, 0.0)  # second row has no mass on state 0
        p = two_state(0.5, 0.5)
        with pytest.raises(SupportViolation):
            relative_entropy_rate(p, p0, invariant_pmf(p))

    def test_zero_rows_in_p_are_fine(self):
        p0 = two_state(0.5, 0.5)
        p = two_state(0.5, 0.0)
        pi = Pmf(np.array([0.5, 0.5]))
        value = relative_entropy_rate(p, p0, pi)
        assert np.isfinite(value) and value > 0.0


class TestComposition:
    def test_product_row_stochastic(self, rng):
        a = random_chain(rng, 6)
        b = sparse_random_chain(rng, 6)
        c = compose(a, b)
        np.testing.assert_allclose(c.entries.sum(axis=1), np.ones(6), atol=1e-12)

    def test_geometric_mix_preserves_invariant(self, rng):
        s = sparse_random_chain(rng, 8)
        pi = invariant_pmf(s)
        p = geometric_mix(s, 1.0 / 6.0)
        assert np.abs(pi.weights @ p.entries - pi.weights).sum() <= 1e-12

    def test_geometric_mix_range_checked(self, rng):
        s = random_chain(rng, 3)
        with pytest.raises(ValidationError):
            geometric_mix(s, 0.0)
        with pytest.raises(ValidationError):
            geometric_mix(s, 1.5)
