import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import integrate, special, stats

from ehnoma.fading import MAJORITY_RANK_COEFFS, theta
from ehnoma.montecarlo import _selected_gains
from oracles import expanded_sum, ks_distance, majority_gains, rank_cdf


def rng(seed=0):
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


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

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError, match="power y must be nonnegative"):
            theta(-1, 2)

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


X_GRID = np.logspace(-2, 1.5, 25)


class TestBestFirstHop:
    """expanded_power(N - 1, m), the first-hop power the closed form expands,
    against the power of the single-link CDF."""

    def test_zero(self):
        assert expanded_sum(2, 0.0, [(1, 3)]) == 0.0

    def test_single_antenna_reduces(self):
        b = 3 / 0.7
        for x in X_GRID:
            assert expanded_sum(3, b * x, [(1, 0)]) == 1.0
            assert expanded_sum(3, b * x, [(1, 1)]) == pytest.approx(
                special.gammainc(3, b * x), rel=1e-12
            )

    def test_expanded_equals_direct_power(self):
        b = 2 / 1.0
        got = expanded_sum(2, b * 1.3, [(1, 3)])
        assert got == pytest.approx(special.gammainc(2, b * 1.3) ** 3, rel=1e-10)

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("n_s,n_rr", [(1, 2), (2, 2), (3, 1), (3, 3)])
    def test_expansion_grid(self, m, n_s, n_rr):
        b = m / 1.7
        n = n_s * n_rr
        for x in X_GRID:
            # the expanded form is an alternating sum of O(1) terms, so its
            # absolute error floor sits at compensated-summation precision
            for y in (n - 1, n):
                direct = special.gammainc(m, b * x) ** y
                assert expanded_sum(m, b * x, [(1, y)]) == pytest.approx(
                    direct, rel=1e-10, abs=1e-13
                )

    def test_pdf_normalizes(self):
        # the first-hop density as the closed form integrates it,
        # N f_X(x) F_X(x)^(N-1) with the power expanded
        total, _ = integrate.quad(
            lambda t: 4 * stats.gamma.pdf(t, 2, scale=0.5) * expanded_sum(2, 2 * t, [(1, 3)]),
            0, np.inf)
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_pdf_is_cdf_derivative(self):
        h = 1e-6
        fd = (expanded_sum(2, 2 * (0.7 + h), [(1, 4)])
              - expanded_sum(2, 2 * (0.7 - h), [(1, 4)])) / (2 * h)
        pdf = 4 * stats.gamma.pdf(0.7, 2, scale=0.5) * expanded_sum(2, 2 * 0.7, [(1, 3)])
        assert pdf == pytest.approx(fd, abs=1e-5)

    def test_cdf_monotone_and_limits(self):
        vals = [expanded_sum(2, 2 * x, [(1, 4)]) for x in np.linspace(0, 50, 200)]
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

    def test_coeffs_equal_kernel_vote_over_orderings(self):
        # the six row maxima are i.i.d. with CDF G, so their 720 orderings are
        # equally likely, and the ordering alone fixes the vote and which
        # order statistic each rank's selected gain is.  The kernel's vote on
        # the orderings of the ranks 1-6, averaged over the order statistics'
        # CDFs sum_{i>=r} C(6,i) G^i (1-G)^(6-i), is the table exactly
        orderings = np.array(list(itertools.permutations(range(1, 7))), dtype=float)
        selected = _selected_gains(orderings.reshape(720, 3, 2)).astype(int)
        for k in (1, 2, 3):
            coeffs = [Fraction(0)] * 7  # of G^0 .. G^6
            for r in selected[k - 1].tolist():
                for i in range(r, 7):
                    for j in range(7 - i):
                        coeffs[i + j] += Fraction(
                            math.comb(6, i) * math.comb(6 - i, j) * (-1) ** j, 720)
            assert {q: c for q, c in enumerate(coeffs) if c} == MAJORITY_RANK_COEFFS[k], k

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_cdf_limits(self, k):
        # the expanded rank CDF at m = 2: its constant terms cancel at 0, and
        # it reaches one far out, at x = 50 omega (b x = 50 m)
        weighted = [(float(e), q * 2) for q, e in sorted(MAJORITY_RANK_COEFFS[k].items())]
        assert expanded_sum(2, 0.0, weighted) == 0.0
        assert expanded_sum(2, 100.0, weighted) == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("m,n_u", [(1, 1), (1, 2), (2, 2), (3, 1)])
    def test_expanded_equals_power_form(self, k, m, n_u):
        # expanded_power(q n_u, m) for each power of G the rank-k CDF takes,
        # and the rank CDF they make
        b = m / 1.2
        weighted = [(float(e), q * n_u) for q, e in sorted(MAJORITY_RANK_COEFFS[k].items())]
        for x in X_GRID:
            for _, y in weighted:
                direct = special.gammainc(m, b * x) ** y
                # noise floor ~ (largest binomial coefficient) * machine epsilon
                assert expanded_sum(m, b * x, [(1, y)]) == pytest.approx(
                    direct, rel=1e-10, abs=1e-12)
            assert expanded_sum(m, b * x, weighted) == pytest.approx(
                rank_cdf(m, 1.2, k, n_u, x), rel=1e-10, abs=1e-12)

    @pytest.mark.parametrize("m,n_u", [(1, 2), (2, 2)])
    def test_ks_against_selection_simulation(self, m, n_u):
        omega = 1.3
        gains = simulate_majority_gains(m, omega, n_u, trials=10**6, seed=5)
        for k in (1, 2, 3):
            x = np.sort(gains[:, k - 1])
            d = ks_distance(x, rank_cdf(m, omega, k, n_u, x))
            assert d < 0.005, f"k={k}: KS={d:.4f}"

    def test_rank_average_equals_unordered_cdf(self):
        # averaging the three rank CDFs gives the CDF of a randomly chosen user
        m, omega, n_u = 1, 1.0, 2
        gains = simulate_majority_gains(m, omega, n_u, trials=10**6, seed=6)
        pooled = np.sort(gains.ravel())
        avg_cdf = sum(rank_cdf(m, omega, k, n_u, pooled) for k in (1, 2, 3)) / 3.0
        assert ks_distance(pooled, avg_cdf) < 0.005

    def test_point_estimate_within_binomial_ci(self):
        m, omega, n_u, k, x = 1, 1.0, 1, 3, 0.5
        trials = 10**6
        gains = simulate_majority_gains(m, omega, n_u, trials=trials, seed=7)
        p_hat = (gains[:, k - 1] <= x).mean()
        model = rank_cdf(m, omega, k, n_u, x)
        sigma = math.sqrt(model * (1 - model) / trials)
        assert abs(p_hat - model) < 3 * sigma
