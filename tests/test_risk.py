import numpy as np
import pytest
from scipy.integrate import quad

from invarcdf import risk
from invarcdf.estimator import WeightVector, best_invariant, constrained_weights, fit
from invarcdf.model import BalancedSpec, LossSpec, Transform, WeightFunction
from invarcdf.risk import (
    Sampler,
    balanced_quad_risk,
    balanced_risk_decompose,
    distribution_free_check,
    dominance_gap,
    invariant_risk,
    mc_risk,
    sel_invariant_risk,
    squared_quad_risk,
)

AGGARWAL_1 = best_invariant(1, LossSpec("squared"))


def _squared_risk_formula(v):
    """(1/(n+1)) sum_i (Var T_i + (u_i - E T_i)^2) for identity tau."""
    n = v.n
    i = np.arange(n + 1, dtype=float)
    a, b = i + 1, n - i + 1
    mean = a / (n + 2)
    var = a * b / ((n + 2) ** 2 * (n + 3))
    return float(np.sum(var + (v.as_array() - mean) ** 2) / (n + 1))


class TestSampler:
    def test_cdf_ppf_round_trip(self):
        u = np.linspace(0.01, 0.99, 25)
        for smp in (
            Sampler("uniform01"),
            Sampler("normal", mu=1.0, sigma=2.0),
            Sampler("exponential", rate=0.7),
        ):
            np.testing.assert_allclose(smp.cdf(smp.ppf(u)), u, atol=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            Sampler("cauchy")
        with pytest.raises(ValueError):
            Sampler("normal", sigma=0.0)


class TestInvariantRisk:
    def test_n1_value(self):
        report = invariant_risk(AGGARWAL_1, LossSpec("squared"))
        assert not report.divergent
        assert report.value == pytest.approx(1 / 18, abs=1e-12)

    def test_bias_variance_formula(self):
        v = WeightVector.from_array([0.1, 0.35, 0.55, 0.62, 0.8, 0.97])
        report = invariant_risk(v, LossSpec("squared"))
        assert report.value == pytest.approx(_squared_risk_formula(v), abs=1e-10)

    def test_odds_divergent(self):
        report = invariant_risk(
            best_invariant(2, LossSpec("squared")), LossSpec("squared"), Transform("odds")
        )
        assert report.divergent
        assert report.value == float("inf")

    def test_step_weights_scale_per_step(self):
        v = best_invariant(3, LossSpec("squared"))
        plain = invariant_risk(v, LossSpec("squared"))
        w = (1.0, 0.5, 0.25, 1.0)
        weighted = invariant_risk(v, LossSpec("squared", step_weights=w))
        np.testing.assert_allclose(
            weighted.per_step, np.asarray(w) * np.asarray(plain.per_step), atol=1e-13
        )

    def test_step_weights_leave_optimum_unchanged(self):
        # each step is an independent scalar problem, so positive per-step
        # weights cannot move the minimizers
        a = best_invariant(4, LossSpec("squared")).as_array()
        b = best_invariant(4, LossSpec("squared", step_weights=(0.2,) * 5)).as_array()
        np.testing.assert_allclose(a, b, atol=1e-12)


class TestSelRisk:
    def test_identity_n1(self):
        assert sel_invariant_risk(Transform("identity"), 1) == pytest.approx(1 / 18, abs=1e-14)

    def test_identity_formula(self):
        for n in (3, 8):
            i = np.arange(n + 1, dtype=float)
            expected = np.sum((i + 1) * (n - i + 1) / ((n + 2) ** 2 * (n + 3))) / (n + 1)
            assert sel_invariant_risk(Transform("identity"), n) == pytest.approx(expected, rel=1e-12)

    def test_power_m1_equals_identity(self):
        assert sel_invariant_risk(Transform("power", m=1.0), 5) == pytest.approx(
            sel_invariant_risk(Transform("identity"), 5), rel=1e-12
        )

    def test_matches_quad_risk_of_optimum(self):
        n = 5
        assert squared_quad_risk(best_invariant(n, LossSpec("squared"))) == pytest.approx(
            sel_invariant_risk(Transform("identity"), n), abs=1e-10
        )


class TestMcRisk:
    def test_n1_matches_closed_form(self):
        report = mc_risk(AGGARWAL_1, Sampler("uniform01"), LossSpec("squared"), reps=20_000, seed=1)
        assert abs(report.value - 1 / 18) < 3 * report.stderr

    def test_common_random_numbers_across_samplers(self):
        kwargs = dict(loss=LossSpec("squared"), reps=2_000, seed=3)
        a = mc_risk(AGGARWAL_1, Sampler("uniform01"), **kwargs)
        b = mc_risk(AGGARWAL_1, Sampler("normal"), **kwargs)
        assert a.value == b.value  # invariant rules see identical probability-scale draws

    def test_chunk_independence(self):
        v = best_invariant(3, LossSpec("squared"))
        a = mc_risk(v, Sampler("uniform01"), LossSpec("squared"), reps=500, seed=9, chunk=100)
        b = mc_risk(v, Sampler("uniform01"), LossSpec("squared"), reps=500, seed=9, chunk=500)
        assert a.value == b.value

    def test_callable_rule(self):
        v = best_invariant(2, LossSpec("squared"))

        def rule(data):
            return fit(data, v)

        rule.sample_size = 2
        a = mc_risk(rule, Sampler("uniform01"), LossSpec("squared"), reps=400, seed=5)
        b = mc_risk(v, Sampler("uniform01"), LossSpec("squared"), reps=400, seed=5)
        assert a.value == pytest.approx(b.value, rel=1e-12)

    def test_rejects_bad_reps(self):
        with pytest.raises(ValueError):
            mc_risk(AGGARWAL_1, Sampler("uniform01"), LossSpec("squared"), reps=0)


def _quad_loss_per_draw(s_sorted, levels, loss, tau):
    """Independent oracle for risk._loss_per_draw: adaptive quadrature of every
    segment, with the kink s = u_i passed as a breakpoint."""
    out = []
    step_w = np.ones(len(levels)) if loss.step_weights is None else loss.step_weights
    for s in s_sorted:
        bounds = np.concatenate([[0.0], s, [1.0]])
        total = 0.0
        for i, u in enumerate(levels):
            a, b = bounds[i], bounds[i + 1]

            def f(t, tau_u=tau.eval(u)):
                h = 1.0 if loss.H is None else loss.H.eval(t)
                return loss.rho_eval(tau_u - tau.eval(t)) * h

            points = [u] if a < u < b else None
            val, _ = quad(f, a, b, points=points, epsabs=1e-14, epsrel=1e-13, limit=200)
            total += step_w[i] * val
        out.append(total)
    return np.array(out)


def _draws_and_levels(n, reps=20, seed=4):
    levels = np.sort(np.random.default_rng(n).uniform(size=n + 1))
    s_sorted = np.sort(risk._uniforms(reps, n, seed), axis=1)
    return s_sorted, levels


class TestMcEngine:
    @pytest.mark.parametrize("n", [1, 3, 5, 30])
    def test_uniforms_independent_of_chunking(self, n):
        whole = risk._uniforms(40, n, seed=11)
        chunks = np.vstack(
            [
                risk._uniforms(7, n, 11),
                risk._uniforms(20, n, 11, offset=7),
                risk._uniforms(13, n, 11, offset=27),
            ]
        )
        rows = np.vstack([risk._uniforms(1, n, 11, offset=r) for r in range(40)])
        assert whole.shape == (40, n)
        assert np.array_equal(whole, chunks)
        assert np.array_equal(whole, rows)
        assert np.all((whole >= 0.0) & (whole < 1.0))
        other = risk._uniforms(40, n, seed=12)
        assert not np.any(whole == other)

    @pytest.mark.parametrize(
        "loss",
        [LossSpec("squared"), LossSpec("absolute"), LossSpec("lp", p=0.5), LossSpec("lp", p=3.0)],
        ids=str,
    )
    @pytest.mark.parametrize("step_weights", [None, "graded"])
    def test_closed_form_matches_quad(self, loss, step_weights):
        n = 4
        if step_weights:
            loss = LossSpec(loss.rho, p=loss.p, step_weights=(1.0, 0.5, 0.25, 0.8, 0.1))
        s_sorted, levels = _draws_and_levels(n)
        identity = Transform("identity")
        got = risk._loss_per_draw(s_sorted, np.tile(levels, (len(s_sorted), 1)), loss, identity)
        want = _quad_loss_per_draw(s_sorted, levels, loss, identity)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n", [1, 3, 10])
    def test_kink_split_matches_quad(self, n):
        # rho(tau(u) - tau(s)) is piecewise polynomial with tau(s) = s^2, so the
        # split Gauss-Legendre rule is exact on each side of the kink
        loss, tau = LossSpec("absolute"), Transform("power", m=2.0)
        s_sorted, levels = _draws_and_levels(n)
        got = risk._loss_per_draw(s_sorted, np.tile(levels, (len(s_sorted), 1)), loss, tau)
        want = _quad_loss_per_draw(s_sorted, levels, loss, tau)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n", [1, 3, 10])
    def test_kink_on_singular_segment_end(self, n):
        # empirical levels put the kinks u_0 = 0 and u_n = 1 on the outer
        # segment ends, and H(s) = 0.5 s^-0.5 is infinite at 0: no node may
        # land on 0 or 1, and the Monte Carlo risk must match quadrature
        loss = LossSpec("absolute", H=WeightFunction("pow", c=0.5))
        tau = Transform("identity")
        v = WeightVector(n, tuple(np.arange(n + 1) / n))
        s_sorted, _ = _draws_and_levels(n, reps=200)
        per_draw = risk._loss_per_draw(s_sorted, np.tile(v.as_array(), (200, 1)), loss, tau)
        assert np.all(np.isfinite(per_draw))
        report = distribution_free_check(
            v, loss, tau, [Sampler("uniform01"), Sampler("normal")], reps=4_000, seed=0
        )
        assert np.all(np.isfinite(report.mc_values))
        assert report.passed, report.messages

    @pytest.mark.parametrize(
        "loss, tau, quadrature",
        [
            (LossSpec("squared"), Transform("identity"), False),
            (LossSpec("lp", p=0.5), Transform("identity"), False),
            (LossSpec("squared", H=WeightFunction("pow", c=2.0)), Transform("identity"), True),
            (LossSpec("absolute"), Transform("log_odds"), True),
            (LossSpec("linex", a=1.0), Transform("identity"), True),
            (LossSpec("entropy_ratio"), Transform("identity"), True),
        ],
    )
    def test_closed_form_only_where_exact(self, monkeypatch, loss, tau, quadrature):
        calls = []
        nodes = risk._segment_nodes
        monkeypatch.setattr(
            risk, "_segment_nodes", lambda *a, **k: calls.append(1) or nodes(*a, **k)
        )
        s_sorted, levels = _draws_and_levels(3, reps=5)
        risk._loss_per_draw(s_sorted, np.tile(levels, (5, 1)), loss, tau)
        assert bool(calls) == quadrature

    def test_check_draws_once_for_weight_vector(self, monkeypatch):
        calls = []
        inner = risk.mc_risk
        monkeypatch.setattr(risk, "mc_risk", lambda *a, **k: calls.append(1) or inner(*a, **k))
        samplers = [Sampler("uniform01"), Sampler("normal"), Sampler("exponential")]
        report = distribution_free_check(
            best_invariant(3, LossSpec("squared")),
            LossSpec("squared"),
            Transform("identity"),
            samplers,
            reps=2_000,
            seed=1,
        )
        assert len(calls) == 1
        assert report.passed
        assert report.labels == tuple(s.label() for s in samplers)
        assert len(set(report.mc_values)) == 1

    def test_check_fails_against_wrong_quadrature(self, monkeypatch):
        exact = risk.invariant_risk

        def off_by_one(*args, **kwargs):
            return risk.RiskReport(value=exact(*args, **kwargs).value + 1.0)

        monkeypatch.setattr(risk, "invariant_risk", off_by_one)
        report = distribution_free_check(
            best_invariant(3, LossSpec("squared")),
            LossSpec("squared"),
            Transform("identity"),
            [Sampler("uniform01"), Sampler("normal")],
            reps=2_000,
            seed=1,
        )
        assert not report.passed
        assert "disagrees with quadrature" in report.messages[0]

    def test_check_fails_on_nan_risk(self, monkeypatch):
        def nan_risk(*args, **kwargs):
            return risk.RiskReport(value=float("nan"), stderr=float("nan"))

        monkeypatch.setattr(risk, "mc_risk", nan_risk)
        report = distribution_free_check(
            best_invariant(3, LossSpec("squared")),
            LossSpec("squared"),
            Transform("identity"),
            [Sampler("uniform01"), Sampler("normal")],
            reps=10,
        )
        assert not report.passed


class TestBalancedDecompose:
    def test_w_zero(self):
        n = 3
        d0 = np.arange(n + 1) / n
        g = best_invariant(n, LossSpec("squared")).as_array() - d0
        spec = BalancedSpec(target_weights=tuple(d0), w=(0.0,) * (n + 1))
        rep = balanced_risk_decompose(spec, g, Sampler("uniform01"), reps=500, seed=2)
        assert rep.r_h1 == 0.0
        assert rep.total == pytest.approx(rep.r_h2, abs=1e-14)

    def test_w_one(self):
        n = 2
        spec = BalancedSpec(target_weights=(0.0, 0.5, 1.0), w=(1.0,) * 3)
        rep = balanced_risk_decompose(spec, np.full(3, 0.1), Sampler("uniform01"), reps=300, seed=2)
        assert rep.r_h1 == 0.0 and rep.r_h2 == 0.0 and rep.total == 0.0

    def test_pathwise_residual(self):
        rng = np.random.default_rng(11)
        n = 4
        d0 = np.sort(rng.uniform(size=n + 1))
        g = rng.uniform(-0.1, 0.1, size=n + 1)
        w = rng.uniform(size=n + 1)
        spec = BalancedSpec(target_weights=tuple(d0), w=tuple(w))
        rep = balanced_risk_decompose(spec, g, Sampler("normal"), reps=2_000, seed=4)
        assert rep.max_residual < 1e-12


class TestDominanceGap:
    def test_zero_for_identical(self):
        d0_star = best_invariant(4, LossSpec("squared"))
        d0 = constrained_weights(d0_star)
        assert dominance_gap(0.5, d0, d0_star, d0_star) == pytest.approx(0.0, abs=1e-15)

    def test_quadrature_identity(self):
        n = 4
        d0_star = best_invariant(n, LossSpec("squared"))
        d0 = constrained_weights(d0_star)
        d1 = WeightVector.from_array(np.linspace(0.15, 0.9, n + 1))
        delta = squared_quad_risk(d0_star) - squared_quad_risk(d1)
        for alpha in (0.1, 0.5, 0.9):
            gap = dominance_gap(alpha, d0, d0_star, d1)
            assert gap == pytest.approx((1 - alpha) ** 2 * delta, abs=1e-10)

    def test_mc_mode_consistent(self):
        n = 3
        d0_star = best_invariant(n, LossSpec("squared"))
        d0 = constrained_weights(d0_star)
        d1 = WeightVector.from_array(np.linspace(0.2, 0.8, n + 1))
        exact = dominance_gap(0.5, d0, d0_star, d1)
        mc = dominance_gap(0.5, d0, d0_star, d1, sampler=Sampler("uniform01"), reps=2_000, seed=6)
        assert mc == pytest.approx(exact, abs=5e-4)

    def test_rejects_bad_alpha(self):
        v = best_invariant(2, LossSpec("squared"))
        with pytest.raises(ValueError):
            dominance_gap(1.0, v, v, v)


class TestBalancedQuadRisk:
    def test_alpha_zero_is_plain_risk(self):
        v = best_invariant(3, LossSpec("squared"))
        assert balanced_quad_risk(v, v, 0.0) == pytest.approx(
            invariant_risk(v, LossSpec("squared")).value, abs=1e-10
        )

    def test_alpha_one_is_target_distance(self):
        v = best_invariant(2, LossSpec("squared"))
        d0 = constrained_weights(v)
        expected = np.sum((v.as_array() - d0.as_array()) ** 2) / (v.n + 1)
        assert balanced_quad_risk(v, d0, 1.0) == pytest.approx(expected, abs=1e-10)


class TestDistributionFree:
    def test_invariant_passes(self):
        report = distribution_free_check(
            best_invariant(2, LossSpec("squared")),
            LossSpec("squared"),
            Transform("identity"),
            [Sampler("uniform01"), Sampler("normal"), Sampler("exponential")],
            reps=5_000,
            seed=0,
        )
        assert report.passed
        assert report.quad_value == pytest.approx(
            sel_invariant_risk(Transform("identity"), 2), abs=1e-10
        )

    def test_non_invariant_rule_flagged(self):
        # levels depend on the raw scale of the data, so the risk varies with F
        def rule(data):
            shift = 1.0 / (1.0 + np.exp(-float(np.min(data))))
            u = np.linspace(0.1, 0.9, 4) * shift
            return fit(data, WeightVector.from_array(np.sort(np.clip(u, 0, 1))))

        rule.sample_size = 3
        report = distribution_free_check(
            rule,
            LossSpec("squared"),
            Transform("identity"),
            [Sampler("uniform01"), Sampler("normal", mu=3.0, sigma=2.0)],
            reps=2_000,
            seed=0,
        )
        assert not report.passed
        assert report.messages

    def test_requires_two_samplers(self):
        with pytest.raises(ValueError):
            distribution_free_check(
                AGGARWAL_1, LossSpec("squared"), Transform("identity"), [Sampler("uniform01")]
            )


def test_best_invariant_beats_perturbations():
    rng = np.random.default_rng(7)
    for loss, tau in [
        (LossSpec("squared"), Transform("identity")),
        (LossSpec("absolute"), Transform("identity")),
    ]:
        n = 4
        v = best_invariant(n, loss, tau)
        base = invariant_risk(v, loss, tau).value
        for _ in range(20):
            u = np.sort(np.clip(v.as_array() + rng.uniform(-0.05, 0.05, n + 1), 0, 1))
            assert invariant_risk(WeightVector.from_array(u), loss, tau).value >= base - 1e-9
