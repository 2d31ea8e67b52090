"""Signal model: config validation, SINR algebra, threshold/event identity."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ehnoma import InfeasibleConfigError, SystemConfig
from ehnoma.link import tau_star
from oracles import sinr


class TestSystemConfigValidation:
    def test_defaults_are_valid(self):
        c = SystemConfig()
        assert c.k_users == 3
        assert c.feasible

    def test_power_factors_must_sum_to_one(self):
        with pytest.raises(ValueError):
            SystemConfig(a=(0.5, 0.3, 0.1))

    def test_power_factors_must_be_nonincreasing(self):
        with pytest.raises(ValueError):
            SystemConfig(a=(0.3, 0.6, 0.1), gamma_th=(1.0, 1.0, 1.0))

    def test_parallel_array_lengths(self):
        with pytest.raises(ValueError):
            SystemConfig(a=(0.6, 0.4), gamma_th=(1.0, 1.0, 1.0))

    @pytest.mark.parametrize("kw", [
        {"xi": -0.1}, {"xi": 1.5}, {"w": 0.0}, {"w": 1.0}, {"zeta": 0.0},
        {"zeta": 1.1}, {"n_u": 0}, {"d_sr": 0.0}, {"d_sr": 1.0}, {"alpha": -1.0},
        {"gamma_th": (1.4, -0.1, 2.5)}, {"m_sr": 0.4}, {"m_ru": 0.4},
        {"m_sr": float("nan")}, {"m_ru": float("inf")},
        {"snr_db": float("nan")}, {"snr_db": float("inf")}, {"snr_db": float("-inf")},
        {"alpha": float("nan")}, {"alpha": float("inf")},
        {"a": (float("nan"), 0.3, 0.1)}, {"gamma_th": (float("nan"), 2.2, 2.5)},
        {"gamma_th": (1.4, 2.2, float("inf"))},
        # finite, but the linear SNR or a mean gain overflows or underflows
        {"snr_db": 4000.0}, {"snr_db": -4000.0}, {"alpha": 2000.0}, {"d_sr": 1e-300},
        {"d_sr": 1 - 2**-53, "alpha": 50.0},
    ])
    def test_rejects_out_of_range(self, kw):
        with pytest.raises(ValueError):
            SystemConfig(**kw)

    @pytest.mark.parametrize("name", ["n_s", "n_rr", "n_rt", "n_u"])
    @pytest.mark.parametrize("value", [2.0, 2.5])
    def test_rejects_non_integer_antenna_counts(self, name, value):
        with pytest.raises(ValueError, match=f"antenna count {name} must be an integer"):
            SystemConfig(**{name: value})

    @pytest.mark.parametrize("name", ["n_s", "n_rr", "n_rt", "n_u"])
    def test_numpy_integer_antenna_count_stored_as_int(self, name):
        c = SystemConfig(**{name: np.int64(2)})
        assert type(getattr(c, name)) is int and getattr(c, name) == 2

    def test_derived_quantities(self):
        c = SystemConfig(w=0.5, zeta=0.8, snr_db=20, d_sr=0.25, alpha=2)
        assert c.c1 == pytest.approx(2.0)
        assert c.c2 == pytest.approx(2.5)
        assert c.snr_linear == pytest.approx(100.0)
        assert c.omega_sr == pytest.approx(16.0)
        assert c.omega_ru == pytest.approx(1.0 / 0.5625)


class TestResidualInterference:
    def test_perfect_sic(self):
        c = SystemConfig(xi=0.0)
        assert c.residual_interference(1) == pytest.approx(0.4)
        assert c.residual_interference(2) == pytest.approx(0.1)
        assert c.residual_interference(3) == pytest.approx(0.0)

    def test_imperfect_sic(self):
        c = SystemConfig(xi=0.05)
        assert c.residual_interference(2) == pytest.approx(0.1 + 0.05 * 0.6)
        assert c.residual_interference(3) == pytest.approx(0.05 * 0.9)

    def test_stage_out_of_range(self):
        with pytest.raises(ValueError):
            SystemConfig().residual_interference(4)

    def test_stage_margin(self):
        c = SystemConfig()
        assert c.stage_margin(1) == pytest.approx(0.6 - 0.4 * 1.4)
        assert c.stage_margin(3) == pytest.approx(0.1)


class TestFeasibility:
    def test_infeasible_stage_reported(self):
        # xi = 0.1 kills stage 2 first: 0.3 - (0.1*0.6 + 0.1)*2.2 < 0
        c = SystemConfig(xi=0.1)
        assert not c.feasible
        with pytest.raises(InfeasibleConfigError) as exc:
            c.check_feasible()
        assert exc.value.stage == 2
        assert exc.value.margin < 0

    def test_partial_check_passes_earlier_stages(self):
        c = SystemConfig(xi=0.1)
        assert tau_star(1, c) > 0
        with pytest.raises(InfeasibleConfigError):
            tau_star(3, c)

    @pytest.mark.parametrize("k", [0, 4])
    def test_rank_outside_users_rejected(self, k):
        # k = 0 once checked every stage and then took max() of no stages
        with pytest.raises(ValueError, match="1 <= k <= K"):
            tau_star(k, SystemConfig())


class TestSinr:
    def test_hand_computed(self):
        c = SystemConfig()  # c1=2, c2=2.5, gamma=100
        x, y = 1.5, 0.8
        got = sinr(1, 3, x, y, c)
        expect = (100 * x * y * 0.6) / (100 * x * y * 0.4 + 2 * y + 2.5)
        assert got == pytest.approx(expect, rel=1e-14)

    def test_last_stage_interference_free_when_perfect_sic(self):
        c = SystemConfig(xi=0.0)
        x, y = 2.0, 1.0
        expect = (100 * x * y * 0.1) / (2 * y + 2.5)
        assert sinr(3, 3, x, y, c) == pytest.approx(expect, rel=1e-14)

    def test_zero_gain_gives_zero(self):
        c = SystemConfig()
        assert sinr(1, 1, 0.0, 1.0, c) == 0.0
        assert sinr(1, 1, 1.0, 0.0, c) == 0.0

    def test_stage_ordering_enforced(self):
        c = SystemConfig()
        with pytest.raises(ValueError):
            sinr(2, 1, 1.0, 1.0, c)
        with pytest.raises(ValueError):
            sinr(1, 4, 1.0, 1.0, c)

    def test_high_snr_limit(self):
        # as gamma -> inf the SINR tends to a_l / Sigma_l
        c = SystemConfig(snr_db=150)
        assert sinr(1, 1, 1.0, 1.0, c) == pytest.approx(0.6 / 0.4, rel=1e-10)


class TestTauStar:
    def test_rank_one_single_stage(self):
        c = SystemConfig()
        expect = 1.4 * 2.0 / (100 * (0.6 - 0.4 * 1.4))
        assert tau_star(1, c) == pytest.approx(expect, rel=1e-14)

    def test_monotone_in_rank(self):
        c = SystemConfig()
        assert tau_star(1, c) <= tau_star(2, c) <= tau_star(3, c)

    def test_zero_threshold_gives_zero(self):
        c = SystemConfig(gamma_th=(0.0, 0.0, 0.0))
        assert tau_star(3, c) == 0.0

    @given(
        st.floats(10.0, 40.0),
        st.floats(0.01, 0.08),
        st.integers(1, 3),
        st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_event_identity_with_sinr(self, snr_db, xi, k, seed):
        """The two-gain threshold test is exactly the union of SINR failures."""
        c = SystemConfig(snr_db=snr_db, xi=xi)
        if not c.feasible:
            return
        tau = tau_star(k, c)
        gen = np.random.default_rng(seed)
        x = float(gen.exponential(max(tau, 0.05) * 2.0))
        y = float(gen.exponential(0.5))
        sinr_fail = any(
            sinr(l, k, x, y, c) < c.gamma_th[l - 1] for l in range(1, k + 1)
        )
        if x <= tau:
            thresh_fail = True
        else:
            thresh_fail = y < tau * c.c2 / (c.c1 * (x - tau))
        assert sinr_fail == thresh_fail

