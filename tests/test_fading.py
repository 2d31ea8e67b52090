import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import integrate, special

from ehnoma.fading import (
    MAJORITY_RANK_COEFFS,
    NakagamiParams,
    UnsupportedModelError,
    cdf_best_first_hop,
    cdf_majority_user,
    cdf_squared_gain,
    pdf_best_first_hop,
    pdf_squared_gain,
    theta,
)
from oracles import ks_distance, majority_gains


def rng(seed=0):
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


class TestSampling:
    def test_moments_match_density_quadrature(self):
        p = NakagamiParams(2, 3.0)
        mean_q, _ = integrate.quad(lambda x: x * pdf_squared_gain(p, x), 0, np.inf)
        m2_q, _ = integrate.quad(lambda x: x * x * pdf_squared_gain(p, x), 0, np.inf)
        var_q = m2_q - mean_q**2
        assert mean_q == pytest.approx(3.0, rel=1e-10)
        assert var_q == pytest.approx(4.5, rel=1e-10)

    @pytest.mark.parametrize("m,omega", [(0.4, 1.0), (1.0, 0.0), (1.0, -2.0)])
    def test_invalid_params(self, m, omega):
        with pytest.raises(ValueError):
            NakagamiParams(m, omega)


class TestSingleLinkDistribution:
    def test_cdf_at_origin(self):
        assert cdf_squared_gain(NakagamiParams(1, 1.0), 0.0) == 0.0

    def test_exponential_cdf_value(self):
        assert cdf_squared_gain(NakagamiParams(1, 2.0), 2.0) == pytest.approx(
            1 - math.exp(-1), rel=1e-12
        )

    def test_cdf_matches_pdf_quadrature(self):
        p = NakagamiParams(3, 1.0)
        oracle, _ = integrate.quad(lambda t: pdf_squared_gain(p, t), 0, 1.0,
                                   epsabs=1e-13, epsrel=1e-13)
        assert cdf_squared_gain(p, 1.0) == pytest.approx(oracle, abs=1e-10)

    def test_pdf_exponential_at_zero(self):
        assert pdf_squared_gain(NakagamiParams(1, 1.0), 0.0) == 1.0

    def test_pdf_normalizes(self):
        p = NakagamiParams(2, 0.8)
        total, _ = integrate.quad(lambda t: pdf_squared_gain(p, t), 0, np.inf)
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_pdf_is_cdf_derivative(self):
        p = NakagamiParams(2, 1.3)
        h = 1e-6
        fd = (cdf_squared_gain(p, 0.7 + h) - cdf_squared_gain(p, 0.7 - h)) / (2 * h)
        assert pdf_squared_gain(p, 0.7) == pytest.approx(fd, abs=1e-5)

    def test_negative_argument_rejected(self):
        p = NakagamiParams(1, 1.0)
        with pytest.raises(ValueError):
            cdf_squared_gain(p, -0.1)
        with pytest.raises(ValueError):
            pdf_squared_gain(p, -0.1)


def poly_power_oracle(m: int, y: int):
    """Coefficients of (sum_{n<m} t^n/n!)^y by repeated exact convolution."""
    base = [Fraction(1, math.factorial(n)) for n in range(m)]
    acc = [Fraction(1)]
    for _ in range(y):
        out = [Fraction(0)] * (len(acc) + len(base) - 1)
        for i, ai in enumerate(acc):
            for j, bj in enumerate(base):
                out[i + j] += ai * bj
        acc = out
    return acc


class TestThetaTable:
    def test_zeroth_power(self):
        assert theta(0, 3) == (Fraction(1),)

    def test_rayleigh_degenerate(self):
        assert theta(5, 1) == (Fraction(1),)

    def test_square_of_m3_series(self):
        # direct expansion of (1 + 3x + (3x)^2/2)^2 at omega = 1
        expected = [1, 6, 18, 27, Fraction(81, 4)]
        scaled = [c * 3**v for v, c in enumerate(theta(2, 3))]
        assert scaled == expected

    @pytest.mark.parametrize("m", [2, 3, 4])
    @pytest.mark.parametrize("y", [1, 2, 3])
    def test_recurrence_equals_convolution(self, m, y):
        assert list(theta(y, m)) == poly_power_oracle(m, y)

    def test_non_integer_m_rejected(self):
        with pytest.raises(UnsupportedModelError):
            theta(2, 1.5)


X_GRID = np.logspace(-2, 1.5, 25)


class TestBestFirstHop:
    def test_zero(self):
        assert cdf_best_first_hop(NakagamiParams(2, 1.0), 2, 2, 0.0) == 0.0

    def test_single_antenna_reduces(self):
        p = NakagamiParams(3, 0.7)
        for x in X_GRID:
            assert cdf_best_first_hop(p, 1, 1, x) == pytest.approx(
                cdf_squared_gain(p, x), rel=1e-12
            )
            assert pdf_best_first_hop(p, 1, 1, x) == pytest.approx(
                pdf_squared_gain(p, x), rel=1e-12
            )

    def test_expanded_equals_direct_power(self):
        p = NakagamiParams(2, 1.0)
        got = cdf_best_first_hop(p, 2, 2, 1.3)
        assert got == pytest.approx(cdf_squared_gain(p, 1.3) ** 4, rel=1e-10)

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("n_s,n_rr", [(1, 2), (2, 2), (3, 1), (3, 3)])
    def test_expansion_grid(self, m, n_s, n_rr):
        p = NakagamiParams(m, 1.7)
        n = n_s * n_rr
        for x in X_GRID:
            # the expanded form is an alternating sum of O(1) terms, so its
            # absolute error floor sits at compensated-summation precision
            direct = cdf_squared_gain(p, x) ** n
            assert cdf_best_first_hop(p, n_s, n_rr, x) == pytest.approx(
                direct, rel=1e-10, abs=1e-13
            )
            direct_pdf = n * pdf_squared_gain(p, x) * cdf_squared_gain(p, x) ** (n - 1)
            assert pdf_best_first_hop(p, n_s, n_rr, x) == pytest.approx(
                direct_pdf, rel=1e-10, abs=1e-13
            )

    def test_pdf_normalizes(self):
        p = NakagamiParams(2, 1.0)
        total, _ = integrate.quad(lambda t: pdf_best_first_hop(p, 2, 2, t), 0, np.inf)
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_pdf_is_cdf_derivative(self):
        p = NakagamiParams(2, 1.0)
        h = 1e-6
        fd = (cdf_best_first_hop(p, 2, 2, 0.7 + h)
              - cdf_best_first_hop(p, 2, 2, 0.7 - h)) / (2 * h)
        assert pdf_best_first_hop(p, 2, 2, 0.7) == pytest.approx(fd, abs=1e-5)

    def test_cdf_monotone_and_limits(self):
        p = NakagamiParams(2, 1.0)
        vals = [cdf_best_first_hop(p, 2, 2, x) for x in np.linspace(0, 50, 200)]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
        assert vals[-1] == pytest.approx(1.0, abs=1e-6)


def simulate_majority_gains(m, omega, n_u, trials, seed):
    """Ranked gains of full-matrix second-hop draws, 3 users over 2 relay
    transmit antennas, independent of the library's Monte Carlo kernel."""
    return majority_gains(rng(seed).gamma(m, omega / m, size=(trials, 3, 2, n_u)))


class TestMajorityUserCdf:
    def test_eta_rows_sum_to_one(self):
        for k in (1, 2, 3):
            assert sum(MAJORITY_RANK_COEFFS[k].values()) == 1

    def test_eta_exact_values(self):
        assert MAJORITY_RANK_COEFFS[1] == {
            1: Fraction(3, 2), 2: Fraction(3, 2), 3: Fraction(-3),
            5: Fraction(3, 2), 6: Fraction(-1, 2),
        }
        assert MAJORITY_RANK_COEFFS[2] == {3: Fraction(3), 5: Fraction(-3), 6: Fraction(1)}
        assert MAJORITY_RANK_COEFFS[3] == {5: Fraction(3, 2), 6: Fraction(-1, 2)}

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_cdf_limits(self, k):
        p = NakagamiParams(2, 1.4)
        assert cdf_majority_user(p, k, 2, 0.0) == 0.0
        assert cdf_majority_user(p, k, 2, 50 * p.omega) == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("m,n_u", [(1, 1), (1, 2), (2, 2), (3, 1)])
    def test_expanded_equals_power_form(self, k, m, n_u):
        p = NakagamiParams(m, 1.2)
        for x in X_GRID:
            a = cdf_majority_user(p, k, n_u, x)
            b = cdf_majority_user(p, k, n_u, x, expanded=True)
            # noise floor ~ (largest binomial coefficient) * machine epsilon
            assert b == pytest.approx(a, rel=1e-10, abs=1e-12)

    @pytest.mark.parametrize("m,n_u", [(1, 2), (2, 2)])
    def test_ks_against_selection_simulation(self, m, n_u):
        omega = 1.3
        gains = simulate_majority_gains(m, omega, n_u, trials=10**6, seed=5)
        p = NakagamiParams(m, omega)
        for k in (1, 2, 3):
            x = np.sort(gains[:, k - 1])
            d = ks_distance(x, cdf_majority_user(p, k, n_u, x))
            assert d < 0.005, f"k={k}: KS={d:.4f}"

    def test_rank_average_equals_unordered_cdf(self):
        # averaging the three rank CDFs gives the CDF of a randomly chosen user
        m, omega, n_u = 1, 1.0, 2
        gains = simulate_majority_gains(m, omega, n_u, trials=10**6, seed=6)
        pooled = np.sort(gains.ravel())
        p = NakagamiParams(m, omega)

        def avg_cdf(x):
            return sum(cdf_majority_user(p, k, n_u, x) for k in (1, 2, 3)) / 3.0

        assert ks_distance(pooled, avg_cdf(pooled)) < 0.005

    def test_point_estimate_within_binomial_ci(self):
        m, omega, n_u, k, x = 1, 1.0, 1, 3, 0.5
        trials = 10**6
        gains = simulate_majority_gains(m, omega, n_u, trials=trials, seed=7)
        p_hat = (gains[:, k - 1] <= x).mean()
        model = cdf_majority_user(NakagamiParams(m, omega), k, n_u, x)
        sigma = math.sqrt(model * (1 - model) / trials)
        assert abs(p_hat - model) < 3 * sigma

    def test_unsupported_scope(self):
        p = NakagamiParams(1, 1.0)
        with pytest.raises(UnsupportedModelError):
            cdf_majority_user(p, 4, 2, 1.0)
