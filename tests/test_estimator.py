import json

import numpy as np
import pytest
from scipy import integrate
from scipy import special as sc

from invarcdf.errors import DivergentMoment, DivergentObjective, NonMonotoneResult, TiesDetected
from invarcdf.estimator import (
    StepEstimator,
    WeightVector,
    balanced_combine,
    best_invariant,
    constrained_weights,
    fit,
    genuineness_check,
    maxima_lse_weights,
    median_nom_weights,
    minima_weights,
    mle_nomination_weights,
    sel_tau_weights,
    solve_weight,
    weighted_solve,
)
from invarcdf.estimator import _mean_tau
from invarcdf.model import BalancedSpec, LossSpec, Transform, WeightFunction
from invarcdf.special import BetaIndex


class TestWeightVector:
    def test_rejects_decreasing(self):
        with pytest.raises(ValueError):
            WeightVector.from_array([0.5, 0.3, 0.8])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            WeightVector.from_array([0.0, 0.5, 1.2])

    def test_round_trip(self):
        v = WeightVector.from_array([0.1, 0.4, 0.9])
        np.testing.assert_array_equal(v.as_array(), [0.1, 0.4, 0.9])


class TestSolveWeight:
    def test_squared_identity_posterior_mean(self):
        for i, n in [(0, 2), (1, 2), (3, 5)]:
            u = solve_weight(BetaIndex(i, n), LossSpec("squared"))
            assert u == pytest.approx((i + 1) / (n + 2), abs=1e-8)

    def test_absolute_is_beta_median(self):
        u = solve_weight(BetaIndex(1, 2), LossSpec("absolute"))
        assert u == pytest.approx(0.5, abs=1e-8)

    def test_absolute_medians_n10(self):
        n = 10
        for i in range(1, n):
            u = solve_weight(BetaIndex(i, n), LossSpec("absolute"))
            assert u == pytest.approx(sc.betaincinv(i + 1, n - i + 1, 0.5), abs=1e-8)

    def test_odds_divergence_at_top(self):
        with pytest.raises(DivergentObjective) as exc:
            solve_weight(BetaIndex(2, 2), LossSpec("lp", p=2.0), Transform("odds"))
        assert exc.value.index == 2

    def test_concave_lp_with_odds_is_finite(self):
        u = solve_weight(BetaIndex(2, 2), LossSpec("lp", p=0.5), Transform("odds"))
        assert 0.0 < u < 1.0

    def test_entropy_ratio_is_posterior_mean(self):
        # minimizing E[t/u + log u] gives u = E[T_i]
        u = solve_weight(BetaIndex(2, 5), LossSpec("entropy_ratio"))
        assert u == pytest.approx(3 / 7, abs=1e-7)

    def test_linex_finite_and_interior(self):
        u = solve_weight(BetaIndex(1, 3), LossSpec("linex", a=2.0))
        assert 0.0 < u < 1.0


class TestClosedForms:
    def test_aggarwal(self):
        v = best_invariant(2, LossSpec("squared"))
        np.testing.assert_allclose(v.as_array(), [0.25, 0.5, 0.75], atol=1e-14)

    def test_lp2_equals_squared(self):
        a = best_invariant(5, LossSpec("squared")).as_array()
        b = best_invariant(5, LossSpec("lp", p=2.0)).as_array()
        np.testing.assert_allclose(a, b, atol=1e-10)

    def test_sel_tau_identity(self):
        n = 7
        sel = sel_tau_weights(n, Transform("identity"))
        np.testing.assert_allclose(sel.tau_scale, (np.arange(n + 1) + 1) / (n + 2), atol=1e-13)

    def test_sel_tau_power_product_formula(self):
        # E[T_i^(1/k)] = prod_{j=i+1..n+1} j / (j + 1/k)
        n, k = 10, 5
        sel = sel_tau_weights(n, Transform("power", m=1.0 / k))
        for i in range(n + 1):
            j = np.arange(i + 1, n + 2, dtype=float)
            assert sel.tau_scale[i] == pytest.approx(np.prod(j / (j + 1.0 / k)), rel=1e-12)

    def test_sel_tau_log_odds_symmetry(self):
        sel = sel_tau_weights(2, Transform("log_odds"))
        psi = sc.digamma
        expected = [psi(i + 1) - psi(3 - i) for i in range(3)]
        np.testing.assert_allclose(sel.tau_scale, expected, atol=1e-12)
        assert sel.tau_scale[1] == pytest.approx(0.0, abs=1e-13)

    def test_sel_tau_odds_divergent(self):
        with pytest.raises(DivergentMoment):
            sel_tau_weights(3, Transform("odds"))


class TestMaximaLse:
    def test_small_product(self):
        v = maxima_lse_weights(1, 5)
        assert v.u[0] == pytest.approx((0.2 / 0.4) * (1.2 / 1.4), rel=1e-12)

    def test_top_level_single_factor(self):
        v = maxima_lse_weights(10, 5)
        assert v.u[10] == pytest.approx(10.2 / 10.4, rel=1e-12)

    def test_k1_telescopes_to_aggarwal(self):
        n = 8
        v = maxima_lse_weights(n, 1)
        np.testing.assert_allclose(v.as_array(), (np.arange(n + 1) + 1) / (n + 2), rtol=1e-12)

    def test_matches_moment_ratio(self):
        # u_i = E[T_i^{-(k-2)/k}] / E[T_i^{-(k-1)/k}]
        from invarcdf.special import beta_moment

        n, k = 6, 5
        v = maxima_lse_weights(n, k)
        for i in range(n + 1):
            idx = BetaIndex(i, n)
            ratio = beta_moment(idx, -(k - 2) / k) / beta_moment(idx, -(k - 1) / k)
            assert v.u[i] == pytest.approx(ratio, rel=1e-11)


class TestMinima:
    def test_k1_telescopes(self):
        n = 6
        u1, u2 = minima_weights(n, 1)
        expected = (np.arange(n + 1) + 1) / (n + 2)
        np.testing.assert_allclose(u1.as_array(), expected, rtol=1e-11)
        np.testing.assert_allclose(u2.as_array(), expected, rtol=1e-11)

    def test_reflection_of_maxima(self):
        n, k = 10, 5
        u1, u2 = minima_weights(n, k)
        sel = sel_tau_weights(n, Transform("power", m=1.0 / k))
        np.testing.assert_allclose(u1.as_array(), 1.0 - sel.tau_scale[::-1], atol=1e-11)
        np.testing.assert_allclose(
            u2.as_array(), 1.0 - maxima_lse_weights(n, k).as_array()[::-1], atol=1e-11
        )

    def test_small_value(self):
        u1, _ = minima_weights(1, 5)
        assert u1.u[1] == pytest.approx(1.0 - (1 / 1.2) * (2 / 2.2), rel=1e-10)


class TestMedianNom:
    def test_center_symmetry(self):
        for variant in ("L1", "L2"):
            v = median_nom_weights(10, 5, variant)
            assert v.u[5] == pytest.approx(0.5, abs=1e-12)
            np.testing.assert_allclose(v.as_array(), 1.0 - v.as_array()[::-1], atol=1e-12)

    def test_rejects_bad_variant(self):
        with pytest.raises(ValueError):
            median_nom_weights(10, 5, "L3")

    @staticmethod
    def _t_space_oracle(n, k):
        """L1 and L2 levels from the original t-space integrals by adaptive
        quadrature, with Psi^-1 from scipy's betaincinv.  Each integral is split
        at 1/2 and the upper half is written in s = 1 - t, so that t near 1 is
        resolved (Psi^-1(1 - s) = 1 - Psi^-1(s) by symmetry of Beta(a, a))."""
        a = (k + 1) / 2

        def integral(g, i):
            log_c = -np.log(n + 1) - sc.betaln(i + 1, n - i + 1)

            def half(r, mirror):
                lo = sc.betaincinv(a, a, r)
                h = np.exp(log_c + sc.xlogy(i, 1 - r if mirror else r) + sc.xlogy(n - i, r if mirror else 1 - r))
                H = np.exp(sc.betaln(a, a) - (a - 1) * (np.log(lo) + np.log1p(-lo)))  # (Psi^-1)'
                return g(1 - lo if mirror else lo, h, H)

            return sum(
                integrate.quad(half, 0, 0.5, args=(m,), epsabs=1e-15, epsrel=1e-14, limit=200)[0]
                for m in (False, True)
            )

        u1 = [(n + 1) * integral(lambda x, h, H: x * h, i) for i in range(n + 1)]
        u2 = [integral(lambda x, h, H: x * H * h, i) / integral(lambda x, h, H: H * h, i) for i in range(n + 1)]
        return np.array(u1), np.array(u2)

    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    @pytest.mark.parametrize("n,k", [(1, 3), (10, 3), (10, 5), (30, 7)])
    def test_against_t_space_oracle(self, n, k):
        u1, u2 = self._t_space_oracle(n, k)
        np.testing.assert_allclose(median_nom_weights(n, k, "L1").as_array(), u1, rtol=0, atol=1e-12)
        # the L2 endpoints i in {0, n} were off by 5.65e-7 at (10, 5) under
        # adaptive quadrature of H = (Psi^-1)', which is singular at 0 and 1
        np.testing.assert_allclose(median_nom_weights(n, k, "L2").as_array(), u2, rtol=0, atol=1e-12)
        tau = Transform("median_nom", k=k)
        mean_tau = [_mean_tau(BetaIndex(i, n), tau) for i in range(n + 1)]
        np.testing.assert_allclose(mean_tau, u1, rtol=0, atol=1e-12)

    def test_rejects_bad_size(self):
        with pytest.raises(ValueError):
            median_nom_weights(10, 4)
        with pytest.raises(ValueError):
            median_nom_weights(0, 5)


class TestMle:
    def test_maxima(self):
        v = mle_nomination_weights(10, "maxima", 5)
        assert v.u[0] == 0.0
        assert v.u[5] == pytest.approx(0.5**0.2, rel=1e-12)
        assert v.u[10] == pytest.approx(1.0)

    def test_median_row(self):
        v = mle_nomination_weights(10, "median", 5)
        expected = [0.000, 0.247, 0.327, 0.390, 0.446, 0.500]
        np.testing.assert_allclose(np.asarray(v.u[:6]), expected, atol=5e-4)

    def test_minima(self):
        v = mle_nomination_weights(10, "minima", 5)
        assert v.u[0] == 0.0 and v.u[10] == pytest.approx(1.0)

    def test_median_requires_odd(self):
        with pytest.raises(ValueError):
            mle_nomination_weights(10, "median", 4)


class TestWeightedSolve:
    def test_recip_recovers_empirical(self):
        n = 5
        loss = LossSpec("squared", H=WeightFunction("recip"))
        u = [weighted_solve(BetaIndex(i, n), loss) for i in range(n + 1)]
        np.testing.assert_allclose(u, np.arange(n + 1) / n, atol=1e-9)

    def test_trivial_weight_is_uniform_prior(self):
        loss = LossSpec("squared", H=WeightFunction("one"))
        assert weighted_solve(BetaIndex(2, 5), loss) == pytest.approx(3 / 7, abs=1e-10)

    def test_pow_weight_gives_product_levels(self):
        # tau-scale levels under H(z) = (1/k) z^(1/k - 1) equal the product formula
        n, k = 5, 5
        tau = Transform("power", m=1.0 / k)
        loss = LossSpec("squared", H=WeightFunction("pow", c=1.0 / k))
        expected = maxima_lse_weights(n, k).as_array()
        got = np.array([tau.eval(weighted_solve(BetaIndex(i, n), loss, tau)) for i in range(n + 1)])
        np.testing.assert_allclose(got, expected, atol=1e-8)


class TestConstrainedBalanced:
    def test_constrained_example(self):
        v = constrained_weights(best_invariant(3, LossSpec("squared")))
        np.testing.assert_allclose(v.as_array(), [0.0, 0.4, 0.6, 1.0], atol=1e-13)

    def test_idempotent(self):
        v = constrained_weights(best_invariant(4, LossSpec("squared")))
        np.testing.assert_array_equal(
            constrained_weights(v).as_array(), v.as_array()
        )

    def test_balanced_extremes(self):
        d0_star = best_invariant(3, LossSpec("squared"))
        target = mle_nomination_weights(3, "maxima", 2)
        zero = BalancedSpec(target_weights=target.u, w=(0.0,) * 4)
        one = BalancedSpec(target_weights=target.u, w=(1.0,) * 4)
        np.testing.assert_allclose(
            balanced_combine(zero, d0_star).as_array(), d0_star.as_array()
        )
        np.testing.assert_allclose(
            balanced_combine(one, d0_star).as_array(), target.as_array()
        )

    def test_case_study_recipe(self):
        n, k = 14, 5
        d0 = mle_nomination_weights(n, "maxima", k)
        d0_star = maxima_lse_weights(n, k)
        w = np.full(n + 1, 0.5)
        w[-1] = 1.0
        spec = BalancedSpec(target_weights=d0.u, w=tuple(w))
        out = balanced_combine(spec, d0_star).as_array()
        np.testing.assert_allclose(
            out[:-1], 0.5 * (np.asarray(d0.u[:-1]) + np.asarray(d0_star.u[:-1])), atol=1e-14
        )
        assert out[-1] == 1.0

    def test_non_monotone_raises(self):
        spec = BalancedSpec(target_weights=(0.0, 0.95, 1.0), w=(0.0, 1.0, 0.0))
        with pytest.raises(NonMonotoneResult):
            balanced_combine(spec, WeightVector.from_array([0.3, 0.4, 0.5]))


class TestGenuineness:
    def test_empirical_vs_aggarwal(self):
        n = 5
        fn = WeightVector.from_array(np.arange(n + 1) / n)
        assert genuineness_check(fn, best_invariant(n, LossSpec("squared")))

    def test_identical_vectors(self):
        v = best_invariant(4, LossSpec("squared"))
        assert genuineness_check(v, v)

    def test_failure_reported_with_index(self):
        report = genuineness_check(
            WeightVector.from_array([0.0, 0.9, 1.0]),
            WeightVector.from_array([0.25, 0.5, 0.75]),
        )
        assert not report
        assert report.failing_indices == (1,)


class TestStepEstimator:
    def test_evaluate_conventions(self):
        v = WeightVector.from_array([0.2, 0.5, 0.8])
        est = fit([3.0, 1.0], v)
        assert est.evaluate(0.5) == 0.2  # below the smallest knot
        assert est.evaluate(1.0) == 0.5  # right-continuity at a knot
        assert est.evaluate(10.0) == 0.8

    def test_tail_override(self):
        est = fit([1.0, 2.0], WeightVector.from_array([0.2, 0.5, 0.8]), tail=1.0)
        assert est.evaluate(5.0) == 1.0

    def test_quantile_generalized_inverse(self):
        est = fit([1.0, 2.0, 3.0], WeightVector.from_array([0.0, 0.3, 0.6, 1.0]))
        assert est.quantile(0.5) == 2.0
        assert est.quantile(0.61) == 3.0

    def test_json_round_trip_bit_exact(self):
        v = best_invariant(3, LossSpec("squared"))
        est = fit([0.1, 1.7, np.pi], v, tail=1.0)
        back = StepEstimator.from_json(est.to_json())
        assert back.knots == est.knots
        assert back.values.u == est.values.u
        assert back.tail_value == est.tail_value
        assert json.loads(est.to_json())["n"] == 3

    def test_ties_warn_and_break(self):
        v = WeightVector.from_array([0.25, 0.5, 0.75])
        with pytest.warns(TiesDetected):
            est = fit([1.0, 1.0], v)
        assert est.knots[0] < est.knots[1]

    def test_ties_leave_untied_values_bit_identical(self):
        rng = np.random.default_rng(7)
        data = rng.normal(size=1000)
        data[10] = data[20] = data[30]  # one run of three
        data[40] = data[50]  # and one of two
        v = WeightVector.from_array(np.linspace(0.0, 1.0, 1001))
        with pytest.warns(TiesDetected):
            knots = np.array(fit(data, v).knots)
        moved = knots != np.sort(data)
        assert moved.sum() == 3  # the second and third of the run, the second of the pair
        np.testing.assert_array_equal(np.sort(knots[~moved]), np.sort(np.unique(data)))
        shift = knots[moved] - np.sort(data)[moved]
        assert np.all(shift > 0) and np.all(shift < 3e-9 * np.ptp(data))

    def test_ties_stay_below_a_close_next_value(self):
        # the spread of a run must not reach the next distinct value
        v = WeightVector.from_array([0.0, 0.2, 0.4, 0.6, 0.8, 1.0])
        with pytest.warns(TiesDetected):
            est = fit([0.0, 1.0, 1.0, 1.0 + 1e-12, 1000.0], v)
        assert est.knots[:2] == (0.0, 1.0)
        assert 1.0 < est.knots[2] < 1.0 + 1e-12 == est.knots[3]

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            fit([1.0, 2.0, 3.0], WeightVector.from_array([0.2, 0.8]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_data(self, bad):
        with pytest.raises(ValueError, match="finite"):
            fit([1.0, bad, 2.0], WeightVector.from_array([0.2, 0.4, 0.6, 0.8]))

    def test_quantile_at_or_below_first_level_is_minus_inf(self):
        est = fit([1.0, 2.0, 3.0], WeightVector.from_array([0.2, 0.3, 0.6, 1.0]))
        assert est.quantile(0.1) == -np.inf
        assert est.quantile(0.2) == -np.inf
        assert est.quantile(0.25) == 1.0

    def test_quantile_rejects_nan(self):
        est = fit([1.0, 2.0, 3.0], WeightVector.from_array([0.0, 0.3, 0.6, 1.0]))
        with pytest.raises(ValueError):
            est.quantile(np.nan)
