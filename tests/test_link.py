"""Signal model: config validation, SINR algebra, threshold/event identity."""

import math
from dataclasses import fields, replace

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
        assert [sigma for _, sigma, _, _ in c.stages] == pytest.approx([0.4, 0.1, 0.0])

    def test_imperfect_sic(self):
        c = SystemConfig(xi=0.05)
        assert c.stages[1][1] == pytest.approx(0.1 + 0.05 * 0.6)
        assert c.stages[2][1] == pytest.approx(0.05 * 0.9)

    def test_margin(self):
        c = SystemConfig()
        assert c.stages[0][3] == pytest.approx(0.6 - 0.4 * 1.4)
        assert c.stages[2][3] == pytest.approx(0.1)

    @given(st.data())
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_stages_match_per_stage_expressions(self, data):
        """Each stage's doubles are those of the per-stage expressions, and
        tau_star and check_feasible stop at the same first infeasible stage."""
        k_users = data.draw(st.integers(1, 5))
        raw = sorted(data.draw(st.lists(st.floats(0.01, 1.0), min_size=k_users,
                                        max_size=k_users)), reverse=True)
        a = tuple(x / math.fsum(raw) for x in raw)
        gamma_th = tuple(data.draw(st.lists(st.floats(0.0, 5.0), min_size=k_users,
                                            max_size=k_users)))
        xi = data.draw(st.floats(0.0, 1.0))
        c = SystemConfig(a=a, gamma_th=gamma_th, xi=xi)
        expect = []
        for l in range(1, k_users + 1):
            sigma = xi * sum(a[: l - 1]) + sum(a[l:])
            expect.append((a[l - 1], sigma, gamma_th[l - 1],
                           a[l - 1] - sigma * gamma_th[l - 1]))
        assert [[v.hex() for v in stage] for stage in c.stages] == [
            [v.hex() for v in stage] for stage in expect]
        first_bad = next((l for l, stage in enumerate(expect, 1) if stage[3] <= 0), None)
        assert c.feasible == (first_bad is None)
        if first_bad is None:
            c.check_feasible()
            assert tau_star(k_users, c) >= 0
            return
        with pytest.raises(InfeasibleConfigError) as checked:
            c.check_feasible()
        for k in range(1, k_users + 1):
            if k < first_bad:
                assert tau_star(k, c) >= 0
                continue
            with pytest.raises(InfeasibleConfigError) as found:
                tau_star(k, c)
            assert (found.value.stage, found.value.margin) == (
                checked.value.stage, checked.value.margin) == (first_bad, expect[first_bad - 1][3])

    def test_stages_not_a_field(self):
        # stages is derived, so the fields, == and hash are SystemConfig's inputs alone
        assert [f.name for f in fields(SystemConfig)] == [
            "a", "gamma_th", "xi", "w", "zeta", "snr_db", "n_s", "n_rr", "n_rt", "n_u",
            "d_sr", "alpha", "m_sr", "m_ru"]
        c = SystemConfig(xi=0.02)
        assert replace(c, snr_db=30.0) == SystemConfig(xi=0.02, snr_db=30.0)
        assert c != SystemConfig(xi=0.03)
        assert hash(c) == hash(tuple(getattr(c, f.name) for f in fields(c)))


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

