import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special as sc

from invarcdf.errors import DivergentIntegral, DivergentMoment
from invarcdf.special import (
    BetaIndex,
    beta_moment,
    digamma,
    gauss_legendre_01,
    inv_reg_inc_beta,
    log_beta,
    quad_beta_weighted,
    reg_inc_beta,
)


class TestBetaIndex:
    def test_shapes(self):
        idx = BetaIndex(i=3, n=10)
        assert idx.a == 4 and idx.b == 8

    def test_rejects_bad_index(self):
        with pytest.raises(ValueError):
            BetaIndex(i=-1, n=5)
        with pytest.raises(ValueError):
            BetaIndex(i=6, n=5)
        with pytest.raises(ValueError):
            BetaIndex(i=0, n=0)


class TestLogBeta:
    def test_values(self):
        assert log_beta(1, 1) == pytest.approx(0.0, abs=1e-15)
        assert log_beta(2, 2) == pytest.approx(np.log(1 / 6), abs=1e-14)
        assert log_beta(3, 3) == pytest.approx(np.log(1 / 30), abs=1e-14)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            log_beta(0, 1)


class TestRegIncBeta:
    def test_symmetric_median(self):
        assert reg_inc_beta(0.5, 3, 3) == pytest.approx(0.5, abs=1e-14)

    def test_uniform_is_identity(self):
        x = np.linspace(0, 1, 11)
        np.testing.assert_allclose(reg_inc_beta(x, 1, 1), x, atol=1e-14)

    def test_median_map_value(self):
        # Psi(0.247) for set size 5, i.e. Beta(3,3) cdf
        assert reg_inc_beta(0.247, 3, 3) == pytest.approx(0.100, abs=5e-4)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            reg_inc_beta(1.5, 2, 2)


class TestInvRegIncBeta:
    def test_symmetry(self):
        assert inv_reg_inc_beta(0.5, 3, 3) == pytest.approx(0.5, abs=1e-12)

    def test_median_map_inverse(self):
        assert inv_reg_inc_beta(0.1, 3, 3) == pytest.approx(0.247, abs=5e-4)

    def test_uniform_is_identity(self):
        p = np.linspace(0, 1, 11)
        np.testing.assert_allclose(inv_reg_inc_beta(p, 1, 1), p, atol=1e-12)

    def test_against_scipy(self):
        # independent oracle: scipy's dedicated inverse
        shapes = [0.5, 1.0, 2.0, 3.0, 6.0]
        p = np.linspace(0.001, 0.999, 21)
        for a in shapes:
            for b in shapes:
                np.testing.assert_allclose(
                    inv_reg_inc_beta(p, a, b), sc.betaincinv(a, b, p), atol=1e-10
                )

    def test_against_mpmath(self):
        # independent oracle: 30-digit bisection on mpmath's betainc, on
        # well-conditioned (p, a, b) where one ulp of p moves x by < 1e-14
        mp = pytest.importorskip("mpmath")
        for a, b in [(0.5, 0.5), (0.5, 3.0), (1.0, 2.0), (3.0, 3.0), (2.0, 6.0), (6.0, 0.5)]:
            for p in (0.01, 0.1, 0.5, 0.9, 0.99):
                lo, hi = mp.mpf(0), mp.mpf(1)
                with mp.workdps(30):
                    for _ in range(70):
                        mid = (lo + hi) / 2
                        if mp.betainc(a, b, 0, mid, regularized=True) < mp.mpf(p):
                            lo = mid
                        else:
                            hi = mid
                assert inv_reg_inc_beta(p, a, b) == pytest.approx(float(lo), abs=1e-13)

    def test_exact_endpoints_and_validation(self):
        np.testing.assert_array_equal(inv_reg_inc_beta(np.array([0.0, 1.0]), 3, 3), [0.0, 1.0])
        assert inv_reg_inc_beta(1e-300, 3, 3) >= 0.0
        with pytest.raises(ValueError):
            inv_reg_inc_beta(1.5, 2, 2)
        with pytest.raises(ValueError):
            inv_reg_inc_beta(0.5, 0, 2)

    def test_tiny_p_median_shapes(self):
        # betaincinv alone returns NaN here (p <= 1e-108 at a = b = 3)
        p = 10.0 ** -np.arange(20, 301, 20.0)
        for a in (2.0, 3.0, 4.0):
            x = inv_reg_inc_beta(p, a, a)
            assert np.all(np.isfinite(x))
            np.testing.assert_allclose(reg_inc_beta(x, a, a), p, rtol=1e-13)

    @settings(max_examples=50, deadline=None)
    @given(
        x=st.floats(0.001, 0.999),
        a=st.sampled_from([0.5, 1.0, 2.0, 3.0, 6.0]),
        b=st.sampled_from([0.5, 1.0, 2.0, 3.0, 6.0]),
    )
    def test_round_trip(self, x, a, b):
        # checked in p-space: where the Beta pdf at x is tiny (x = 63/64, a = 0.5,
        # b = 6 has pdf ~1e-9) one ulp of p moves x by ~1e-7, so no inverse
        # can recover x itself there
        p = reg_inc_beta(x, a, b)
        x_back = inv_reg_inc_beta(p, a, b)
        assert reg_inc_beta(x_back, a, b) == pytest.approx(p, abs=1e-13)
        pdf = np.exp((a - 1) * np.log(x) + (b - 1) * np.log1p(-x) - sc.betaln(a, b))
        if pdf >= 1e-3:
            assert x_back == pytest.approx(x, abs=1e-10)


class TestBetaMoment:
    def test_mean_small(self):
        assert beta_moment(BetaIndex(0, 1), 1) == pytest.approx(1 / 3, abs=1e-14)

    def test_mean_formula(self):
        for n in (1, 4, 9):
            for i in range(n + 1):
                assert beta_moment(BetaIndex(i, n), 1) == pytest.approx(
                    (i + 1) / (n + 2), rel=1e-13
                )

    def test_fractional_vs_quadrature(self):
        # cross-check the gamma-ratio route against direct integration
        for i, n, m in [(0, 5, 0.2), (3, 5, -0.5), (5, 5, 1.7)]:
            idx = BetaIndex(i, n)
            quad = quad_beta_weighted(lambda t: t**m, idx, tol=1e-12)
            assert quad.converged
            assert quad.value * (n + 1) == pytest.approx(beta_moment(idx, m), rel=1e-9)

    def test_divergent(self):
        with pytest.raises(DivergentMoment):
            beta_moment(BetaIndex(0, 1), -2)


def test_digamma_values():
    gamma = 0.5772156649015329
    assert digamma(1) == pytest.approx(-gamma, abs=1e-12)
    assert digamma(2) == pytest.approx(1 - gamma, abs=1e-12)
    assert digamma(0.5) == pytest.approx(-gamma - 2 * np.log(2), abs=1e-10)
    with pytest.raises(ValueError):
        digamma(0.0)


class TestQuadBetaWeighted:
    def test_normalization(self):
        for n in (1, 5, 12):
            for i in (0, n // 2, n):
                res = quad_beta_weighted(lambda t: 1.0, BetaIndex(i, n), tol=1e-10)
                assert res.converged
                assert res.value == pytest.approx(1 / (n + 1), abs=1e-12)

    def test_first_moment(self):
        res = quad_beta_weighted(lambda t: t, BetaIndex(0, 1), tol=1e-10)
        assert res.value == pytest.approx(1 / 6, abs=1e-12)

    def test_integrable_singularity(self):
        # t^-0.8 against the gamma-ratio closed form
        idx = BetaIndex(0, 5)
        res = quad_beta_weighted(lambda t: t**-0.8, idx, tol=1e-10)
        assert res.converged
        assert res.value * 6 == pytest.approx(beta_moment(idx, -0.8), rel=1e-8)

    def test_power_divergence(self):
        for n in (2, 5):
            with pytest.raises(DivergentIntegral):
                quad_beta_weighted(lambda t: (t / (1 - t)) ** 2, BetaIndex(n, n))

    def test_log_type_divergence(self):
        with pytest.raises(DivergentIntegral):
            quad_beta_weighted(lambda t: 1.0 / (1.0 - t), BetaIndex(5, 5))

    def test_left_divergence(self):
        with pytest.raises(DivergentIntegral):
            quad_beta_weighted(lambda t: t**-1.5, BetaIndex(0, 4))

    def test_rejects_bad_tol(self):
        with pytest.raises(ValueError):
            quad_beta_weighted(lambda t: 1.0, BetaIndex(0, 1), tol=0.0)


def test_gauss_legendre_01_exact_to_degree_2m_minus_1():
    for m in (1, 3, 16, 200):
        x, w = gauss_legendre_01(m)
        assert np.all(x > 0) and np.all(x < 1)
        for d in (0, m, 2 * m - 1):
            assert np.sum(w * x**d) == pytest.approx(1.0 / (d + 1), rel=1e-13)
        # cached and read-only: every caller shares the same arrays
        assert gauss_legendre_01(m)[0] is x
        with pytest.raises(ValueError):
            x[0] = 0.5
