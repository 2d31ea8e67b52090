"""Closed form vs quadrature oracle, frozen reference values, scope checks."""

import math
import warnings

import pytest

from ehnoma import (
    SystemConfig,
    UnsupportedModelError,
    analysis,
    op_closed_form,
    op_numerical,
)

# Frozen outputs of the adaptive-quadrature oracle, which integrates the
# unexpanded power-form CDFs and shares no series machinery with the closed
# form.  Keys: (config kwargs, user rank) -> oracle value.
ORACLE_VALUES = [
    (dict(), 1, 0.007317304388868147),
    (dict(), 2, 0.001455100089047073),
    (dict(), 3, 0.0010542368360005857),
    (dict(m_sr=2, m_ru=2, snr_db=15), 1, 0.051422231649714926),
    (dict(m_sr=2, m_ru=2, snr_db=15), 2, 0.02469222360132642),
    (dict(m_sr=2, m_ru=2, snr_db=15), 3, 0.01798115626505183),
    (dict(xi=0.02, snr_db=25), 1, 0.0004372424033805861),
    (dict(xi=0.02, snr_db=25), 2, 3.622648914195183e-05),
    (dict(xi=0.02, snr_db=25), 3, 3.776092245242475e-05),
    (dict(n_s=1, n_rr=2, n_u=1), 1, 0.1638481626817735),
    (dict(n_s=1, n_rr=2, n_u=1), 2, 0.05009593334027017),
    (dict(n_s=1, n_rr=2, n_u=1), 3, 0.03566360856570398),
    (dict(d_sr=0.3, alpha=2.7, w=0.35, zeta=0.6, snr_db=18), 1, 0.0017884947832268617),
    (dict(d_sr=0.3, alpha=2.7, w=0.35, zeta=0.6, snr_db=18), 2, 1.808354069231599e-05),
    (dict(d_sr=0.3, alpha=2.7, w=0.35, zeta=0.6, snr_db=18), 3, 6.226144651681762e-06),
    (dict(snr_db=45, m_sr=2, m_ru=1), 1, 2.4774147879488124e-08),
    (dict(snr_db=45, m_sr=2, m_ru=1), 2, 3.101536586211291e-22),
    (dict(snr_db=45, m_sr=2, m_ru=1), 3, 4.1212182711228306e-25),
    # condition ~3e40: a fixed 40-digit sum came out 3.6% low here
    (dict(m_sr=2, m_ru=2, snr_db=60), 3, 4.647570134857768e-37),
    # condition ~1e9, near the top of the float path's band
    (dict(m_sr=2, m_ru=2, snr_db=20, w=0.35), 2, 1.3206038881638422e-05),
]


class TestQuadratureOracle:
    @pytest.mark.parametrize("kwargs,k,expect", ORACLE_VALUES)
    def test_frozen_values(self, kwargs, k, expect):
        assert op_numerical(k, SystemConfig(**kwargs)) == pytest.approx(
            expect, rel=1e-9
        )

    def test_zero_threshold_gives_zero(self):
        c = SystemConfig(gamma_th=(0.0, 0.0, 0.0))
        assert op_numerical(2, c) == 0.0

    def test_accepts_noninteger_fading(self):
        # diversity grows with the fading parameter, so m = 1.5 must land
        # between the integer neighbours
        lo = op_numerical(1, SystemConfig(m_sr=2, m_ru=2, snr_db=15))
        hi = op_numerical(1, SystemConfig(m_sr=1, m_ru=1, snr_db=15))
        mid = op_numerical(1, SystemConfig(m_sr=1.5, m_ru=1.5, snr_db=15))
        assert lo < mid < hi

    def test_scope_requires_three_users(self):
        c = SystemConfig(a=(0.7, 0.3), gamma_th=(1.0, 1.0))
        with pytest.raises(UnsupportedModelError):
            op_numerical(1, c)

    def test_scope_requires_two_transmit_antennas(self):
        with pytest.raises(UnsupportedModelError):
            op_numerical(1, SystemConfig(n_rt=3))


class TestClosedForm:
    @pytest.mark.parametrize("kwargs,k,expect", ORACLE_VALUES)
    def test_matches_oracle(self, kwargs, k, expect):
        assert op_closed_form(k, SystemConfig(**kwargs)) == pytest.approx(
            expect, rel=1e-6
        )

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_snr_sweep_matches_quadrature(self, k):
        for snr in range(0, 61, 6):
            c = SystemConfig(snr_db=snr, m_sr=1, m_ru=2)
            q = op_numerical(k, c)
            f = op_closed_form(k, c)
            if q > 1e-12:
                assert f == pytest.approx(q, rel=1e-6)
            else:
                assert f <= 1e-11

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_monotone_decreasing_in_snr(self, k):
        vals = [op_closed_form(k, SystemConfig(snr_db=s)) for s in range(0, 55, 5)]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_bounded_even_at_low_snr(self):
        for snr in (-10, -5, 0):
            for k in (1, 2, 3):
                v = op_closed_form(k, SystemConfig(snr_db=snr))
                assert 0.0 <= v <= 1.0

    def test_zero_threshold_gives_zero(self):
        c = SystemConfig(gamma_th=(0.0, 0.0, 0.0))
        assert op_closed_form(3, c) == 0.0

    def test_high_precision_branch_stays_accurate(self):
        # deep-tail value where plain float accumulation loses digits
        c = SystemConfig(snr_db=45, m_sr=2, m_ru=1)
        assert op_closed_form(3, c) == pytest.approx(4.1212182711228306e-25, rel=1e-6)

    def test_unresolved_sum_raises(self, monkeypatch):
        # terms that cancel exactly stay below the rounding noise at any
        # precision; the evaluator must refuse rather than return a value
        monkeypatch.setattr(analysis, "_closed_form_sum",
                            lambda ctx, *args: (ctx.zero, 2 * ctx.one))
        with pytest.raises(ArithmeticError):
            op_closed_form(1, SystemConfig())

    def test_imperfect_sic_leaves_rank_one_unchanged(self):
        base = op_closed_form(1, SystemConfig(xi=0.0, snr_db=25))
        assert op_closed_form(1, SystemConfig(xi=0.02, snr_db=25)) == pytest.approx(
            base, rel=1e-12
        )

    def test_imperfect_sic_degrades_higher_ranks(self):
        for k in (2, 3):
            assert op_closed_form(k, SystemConfig(xi=0.02, snr_db=25)) > op_closed_form(
                k, SystemConfig(xi=0.0, snr_db=25)
            )

    def test_rejects_noninteger_fading(self):
        with pytest.raises(UnsupportedModelError):
            op_closed_form(1, SystemConfig(m_sr=1.5))

    def test_scope_checks(self):
        with pytest.raises(UnsupportedModelError):
            op_closed_form(1, SystemConfig(n_rt=3))
        with pytest.raises(UnsupportedModelError):
            op_closed_form(1, SystemConfig(a=(0.7, 0.3), gamma_th=(1.0, 1.0)))

    def test_no_warnings_in_normal_range(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for k in (1, 2, 3):
                op_closed_form(k, SystemConfig())


class TestMethodRelationships:
    def test_better_fading_helps_every_rank(self):
        for k in (1, 2, 3):
            assert op_closed_form(k, SystemConfig(m_sr=2, m_ru=2)) < op_closed_form(
                k, SystemConfig(m_sr=1, m_ru=1)
            )

    def test_more_antennas_help(self):
        base = op_closed_form(1, SystemConfig(n_s=1, n_rr=1, n_u=1))
        assert op_closed_form(1, SystemConfig(n_s=2, n_rr=2, n_u=2)) < base

    def test_rank_one_needs_most_power_margin(self):
        # with the default split the weakest user's single stage dominates
        c = SystemConfig()
        assert op_closed_form(1, c) > op_closed_form(2, c)

    def test_diversity_order_slope(self):
        # log-log slope over a 10 dB step approaches the full diversity order
        c_lo = SystemConfig(snr_db=35, m_sr=1, m_ru=1, n_s=1, n_rr=1, n_u=1)
        c_hi = SystemConfig(snr_db=45, m_sr=1, m_ru=1, n_s=1, n_rr=1, n_u=1)
        slope = (math.log10(op_closed_form(1, c_lo))
                 - math.log10(op_closed_form(1, c_hi)))
        assert 0.8 < slope < 1.1
