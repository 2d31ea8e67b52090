"""Closed form vs quadrature oracle, frozen reference values, scope checks."""

import itertools
import math
import sys
import warnings
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special

from ehnoma import (
    SystemConfig,
    UnresolvedNumericsError,
    UnsupportedModelError,
    analysis,
    op_closed_form,
    op_numerical,
)
from ehnoma.analysis import closed_form_side
from ehnoma.link import tau_star
from oracles import bessel_groups

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
    # not quadrature outputs: values of the independent mpmath reference
    # (perfbench/reference.py), at deep-outage points where the quadrature
    # once lost most of its tail
    (dict(snr_db=50), 2, 2.26051679376497e-15),
    (dict(m_sr=2, m_ru=2, snr_db=40), 3, 4.597498201948514e-21),
]


# op_closed_form doubles, bit for bit.  The first ten points take the
# high-precision pass and were recorded when it summed in mpmath, with e^t K_0
# and e^t K_1 from mpmath's besselk; the next twelve stay on the float path,
# whose terms come from numpy with K_n above order 1 by upward recurrence, and
# each lies within 4e-8 relative of _exact_sum at 256 bits; the last eight,
# deep points at m_sr = 3, were recorded when the high-precision pass summed
# object arrays of mpf.
GOLDEN_DOUBLES = [
    (dict(snr_db=30), 2, "0x1.d03d74679b94bp-23"),
    (dict(snr_db=30, xi=0.02), 3, "0x1.c547af1558ab9p-22"),
    (dict(snr_db=50), 1, "0x1.c4bd67fd4fb52p-29"),
    (dict(snr_db=50, xi=0.02), 2, "0x1.340b4cc991cc7p-48"),
    (dict(snr_db=50), 3, "0x1.c25a3e6fe39e5p-50"),
    (dict(snr_db=60, xi=0.02), 1, "0x1.2193c1b05099dp-35"),
    (dict(snr_db=60), 2, "0x1.0afbbfdc0830fp-62"),
    (dict(snr_db=60, xi=0.02), 3, "0x1.0676ff3a0c5dfp-61"),
    (dict(m_sr=2, m_ru=2, snr_db=60), 3, "0x1.3c4c17798eb80p-121"),
    (dict(m_sr=3, m_ru=3, snr_db=20), 3, "0x1.9a822caa2ff07p-22"),
    (dict(snr_db=0, w=0.2), 1, "0x1.ffffffa2969b7p-1"),
    (dict(snr_db=10, w=0.8, xi=0.02), 2, "0x1.f6ed5ed93481ap-1"),
    (dict(snr_db=20, w=0.2, xi=0.02), 3, "0x1.a559a01e34028p-10"),
    (dict(m_sr=2, m_ru=2, snr_db=5, w=0.8), 3, "0x1.ffffffffa455dp-1"),
    (dict(m_sr=2, m_ru=2, snr_db=10, w=0.2, xi=0.02), 1, "0x1.b4901f3ee0f5ep-1"),
    (dict(m_sr=2, m_ru=2, snr_db=20, w=0.8), 2, "0x1.9bee7c691dcdfp-9"),
    (dict(m_sr=3, m_ru=3, snr_db=5, w=0.2, xi=0.02), 2, "0x1.ffffe9770f8b6p-1"),
    (dict(m_sr=3, m_ru=3, snr_db=10, w=0.8), 3, "0x1.ffbe35b889c7cp-1"),
    (dict(m_sr=3, m_ru=3, snr_db=15, w=0.8, xi=0.02), 3, "0x1.6c62e87db5fb4p-1"),
    (dict(m_sr=3, m_ru=3, snr_db=20, w=0.2), 1, "0x1.69a8248fc4b9ap-13"),
    # a design_search key with N = n_u = 1
    (dict(n_s=1, n_rr=1, n_u=1, snr_db=20), 2, "0x1.c0bc65811387ep-3"),
    # condition ~1e9, near the float path's limit
    (dict(m_sr=2, m_ru=2, snr_db=20, w=0.35), 2, "0x1.bb1f0359bfe75p-17"),
    (dict(m_sr=3, m_ru=3, snr_db=60), 3, "0x1.d9af5b3de2050p-179"),
    (dict(m_sr=3, m_ru=3, snr_db=80), 3, "0x1.1e60d2c3fdf23p-258"),
    (dict(m_sr=3, m_ru=3, snr_db=100), 3, "0x1.5a35ee008e37fp-338"),
    (dict(m_sr=3, m_ru=3, snr_db=120), 3, "0x1.a28b032c11017p-418"),
    (dict(m_sr=3, m_ru=1, snr_db=60), 3, "0x1.71b832968bd26p-169"),
    (dict(m_sr=3, m_ru=1, snr_db=80), 3, "0x1.10270cf92ccf0p-235"),
    (dict(m_sr=3, m_ru=1, snr_db=100), 3, "0x1.919ee1eeb940fp-302"),
    (dict(m_sr=3, m_ru=1, snr_db=120), 3, "0x1.2857fb826ef10p-368"),
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

    def test_error_estimate_above_tolerance_raises(self, monkeypatch):
        # an integral whose error estimate is as large as its value must not
        # be returned as an OP
        monkeypatch.setattr(analysis, "_integrate", lambda f, edges: (1e-3, 1e-3))
        with pytest.raises(UnresolvedNumericsError):
            op_numerical(2, SystemConfig())

    def test_scope_requires_two_transmit_antennas(self):
        with pytest.raises(UnsupportedModelError):
            op_numerical(1, SystemConfig(n_rt=3))

    @pytest.mark.parametrize("kwargs,k", [(dict(m_sr=3, m_ru=3, snr_db=500), 1),
                                          (dict(m_sr=2, m_ru=2, snr_db=800), 1)])
    def test_resolves_ops_near_the_bottom_of_the_doubles(self, kwargs, k):
        # OPs of 7e-295 and a subnormal 4e-317: the integral is refined to
        # _QUAD_REL_TOL of itself, and agrees with the closed form
        c = SystemConfig(**kwargs)
        op = op_numerical(k, c)
        assert 0.0 < op < 1e-290
        assert op == pytest.approx(op_closed_form(k, c), rel=1e-6)

    def test_cut_at_the_turn_takes_one_pass_a_point(self, monkeypatch):
        # cut finest just below the breakpoint, an op_curve-like grid
        # converges in one pass of the rule nearly everywhere: 82 passes for
        # its 78 points, where 16 equal pieces a side took 165
        passes = []
        real = analysis._gk21

        def counting(*args):
            passes[-1] += 1
            return real(*args)

        monkeypatch.setattr(analysis, "_gk21", counting)
        for m, snrs in ((1, (10, 20, 30, 40, 50, 60)), (2, (10, 15, 20, 25, 30, 40, 60))):
            for snr, xi, k in itertools.product(snrs, (0.0, 0.02), (1, 2, 3)):
                passes.append(0)
                op_numerical(k, SystemConfig(m_sr=m, m_ru=m, snr_db=snr, xi=xi))
        assert len(passes) == 78 and max(passes) <= 2 and sum(passes) <= 85


# configurations off the frozen grid: non-integer m, and hops of unequal
# rates and mean gains
QUADPACK_EXTRA = [
    (dict(m_sr=1.5, m_ru=1.5, snr_db=15), k) for k in (1, 2, 3)
] + [
    (dict(m_sr=m_sr, m_ru=m_ru, d_sr=d_sr, alpha=2.7, snr_db=snr), k)
    for m_sr, m_ru, d_sr, snr in ((1, 3, 0.3, 20), (3, 1, 0.7, 30), (2.5, 0.5, 0.3, 40))
    for k in (1, 2, 3)
]


def quadpack(f, edges):
    """scipy's QUADPACK quad in place of analysis._integrate, at its settings."""
    return integrate.quad(f, edges[0], edges[-1], points=edges[1:-1] or None,
                          epsabs=math.ulp(0.0), epsrel=analysis._QUAD_REL_TOL,
                          limit=analysis._QUAD_MAX_INTERVALS)


class TestGaussKronrod:
    def test_rule_exact_to_degree_31(self):
        for j in range(32):
            value, _ = analysis._gk21(lambda x: x**j, np.array([0.0]), np.array([1.0]))
            assert value[0] == pytest.approx(1 / (j + 1), rel=1e-14, abs=0)
        # and no further: extending the 10-point Gauss rule to 21 Kronrod
        # nodes gives degree 3*10 + 1, so degree 32 is the first miss
        value, _ = analysis._gk21(lambda x: x**32, np.array([-1.0]), np.array([1.0]))
        assert abs(value[0] * 33 / 2 - 1) > 1e-12

    def test_error_estimate_at_rounding_floor_where_gauss_is_exact(self):
        # the embedded 10-point Gauss rule is exact to degree 19, so there the
        # Kronrod-Gauss difference is rounding and the 50 eps floor is the estimate
        floor = 50 * np.finfo(float).eps
        for j in range(21):
            value, err = analysis._gk21(lambda x: x**j, np.array([0.0]), np.array([1.0]))
            if j < 20:
                assert err[0] == pytest.approx(floor * value[0], rel=1e-12)
            else:
                assert err[0] > 10 * floor * value[0]

    @pytest.mark.parametrize("f,lo,hi", [(np.exp, 0.0, 3.0), (np.cos, 0.0, 4.0),
                                         (lambda x: 1 / (1 + x * x), -2.0, 5.0),
                                         (np.sqrt, 0.0, 1.0)])
    def test_rule_and_error_estimate_match_qk21(self, f, lo, hi):
        # with an absolute tolerance above its first error estimate, QUADPACK
        # returns its first qk21 pass over [lo, hi] as it stands (these cases
        # avoid resasc == error, on which it subdivides)
        expect, expect_err = integrate.quad(f, lo, hi, epsabs=1e3, epsrel=0.0)
        value, err = analysis._gk21(f, np.array([lo]), np.array([hi]))
        assert value[0] == pytest.approx(expect, rel=1e-14)
        assert err[0] == pytest.approx(expect_err, rel=1e-10)

    def test_batch_rows_match_rows_alone(self):
        # an interval's value and error estimate are the same bits whatever
        # else is in its pass (with `@` in place of einsum, 35 of these 105
        # slices differed from the batch)
        rng = np.random.default_rng(5)
        lo = rng.uniform(-3, 3, 2000)
        hi = lo + rng.uniform(1e-3, 2, 2000)

        def f(x):
            return 1 / (1 + x * x) + x * x * x

        value, err = analysis._gk21(f, lo, hi)
        for start, size in itertools.product(range(0, 2000, 97), (1, 3, 8, 40, 137)):
            part = slice(start, start + size)
            got_value, got_err = analysis._gk21(f, lo[part], hi[part])
            assert got_value.tobytes() == value[part].tobytes(), (start, size)
            assert got_err.tobytes() == err[part].tobytes(), (start, size)

    def test_breakpoint_reproduces_closed_form(self):
        # a sharp peak at the breakpoint: the integral of e^(-50|x-1|) over [0, 3]
        exact = -math.expm1(-50) / 50 - math.expm1(-100) / 50
        value, err = analysis._integrate(lambda x: np.exp(-50 * np.abs(x - 1)), [0, 1, 3])
        assert value == pytest.approx(exact, rel=1e-14)
        assert abs(value - exact) <= err <= analysis._QUAD_REL_TOL * value

    def test_stops_at_interval_cap(self):
        # an integrand it cannot resolve: splitting stops at the cap, after
        # the first interval and two halves for each of the cap - 1 splits,
        # and the error estimate says the value is unresolved
        intervals = []

        def f(x):
            intervals.append(x.size // 21)
            return np.sin(1e5 * x**2)

        value, err = analysis._integrate(f, [0, 3])
        assert sum(intervals) == 2 * analysis._QUAD_MAX_INTERVALS - 1
        assert err > analysis._QUAD_REL_TOL * abs(value)

    @pytest.mark.parametrize("kwargs,k", [(kw, k) for kw, k, _ in ORACLE_VALUES]
                             + QUADPACK_EXTRA)
    def test_matches_quadpack(self, monkeypatch, kwargs, k):
        config = SystemConfig(**kwargs)
        value = op_numerical(k, config)
        monkeypatch.setattr(analysis, "_integrate", quadpack)
        assert value == pytest.approx(op_numerical(k, config), rel=1e-13, abs=0)


def table_point(k, config):
    """The closed form's (table, X, Y) at config, from its one point of _points."""
    ((_, _, table, x, y),) = analysis._points(k, [config])[1]
    return table, x, y


def float_sums(k, config):
    """(sum t, sum |t|) of the closed form's float pass at config."""
    table, x, y = table_point(k, config)
    ((total, abs_total),) = analysis._closed_form_sums(table, (x,), (y,))
    return total, abs_total


def series_bessel(ns, x, y, wp, lows, tops):
    """[(t, [K_low(t), ..., K_top(t)])] at each t = 2 sqrt(n X Y), n in ns ascending,
    from one _k_series, with t in fixed point and ell as _exact_sum makes them; t is
    returned as the mpf it stands for, X Y being the exact product of the doubles."""
    (ax, dx), (ay, dy) = x.as_integer_ratio(), y.as_integer_ratio()
    xy, shift = ax * ay, dx.bit_length() + dy.bit_length() - 2
    series = analysis._k_series(xy, shift, ns[-1], 2 * math.sqrt(ns[-1] * x * y), wp)
    out = []
    with mp.workprec(wp + 20):
        for n, low, top in zip(ns, lows, tops):
            t = 2 * math.isqrt(n * xy << 2 * wp - shift)
            ell = int(mp.ldexp(mp.log(n * mp.mpf(xy) / 2**shift) / 2 + mp.euler, wp))
            out.append((mp.ldexp(t, -wp), analysis._bessel_k(series, n, t, ell, wp, low, top)))
    return out


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
        # precision; the evaluator must refuse rather than return a value.
        # The sums are 0 and 2 in units of 2^-wp, here wp = bits
        monkeypatch.setattr(analysis, "_exact_sum",
                            lambda table, x, y, bits: (0, 2 << bits, bits))
        with pytest.raises(ArithmeticError):
            op_closed_form(2, SystemConfig(snr_db=60))

    @pytest.mark.parametrize("kwargs,k", [(dict(snr_db=60), 2),
                                          (dict(m_sr=2, m_ru=2, snr_db=60), 3)])
    def test_deep_point_takes_one_mp_pass(self, monkeypatch, kwargs, k):
        # the float sum is unresolved here; sum|t| / F_sr(tau*)^N must give
        # the exact pass enough digits the first time
        passes = []
        for name in ("_closed_form_sums", "_exact_sum"):
            def counting(*args, name=name, real=getattr(analysis, name)):
                # a pass per point: the float pass takes X's, the exact pass one X
                passes.extend([name] * np.size(args[1]))
                return real(*args)

            monkeypatch.setattr(analysis, name, counting)
        op_closed_form(k, SystemConfig(**kwargs))
        assert passes == ["_closed_form_sums", "_exact_sum"]

    def test_accepted_float_sums_within_tolerance(self):
        # every float sum that the acceptance rule takes must lie within
        # _REL_TOL of the exact sum at 256 bits
        accepted = 0
        for m, snr_db, w, k in itertools.product((1, 2, 3, 4), range(0, 61, 10), (0.2, 0.8),
                                                 (1, 2, 3)):
            c = SystemConfig(m_sr=m, m_ru=m, snr_db=snr_db, w=w, xi=0.02)
            table, x, y = table_point(k, c)
            ((total, abs_total),) = analysis._closed_form_sums(table, (x,), (y,))
            noise = sys.float_info.epsilon * abs_total
            if not (math.isfinite(abs_total) and analysis._FLOAT_TERM_ERR
                    * abs_total / max(abs(total), noise) <= analysis._REL_TOL):
                continue
            accepted += 1
            exact, _, wp = analysis._exact_sum(table, x, y, 256)
            exact = Fraction(exact, 1 << wp)
            assert abs(Fraction(total) - exact) <= analysis._REL_TOL * abs(exact), (
                m, snr_db, w, k)
        assert accepted >= 60

    def test_tables_match_reference_builder(self):
        # the integer build must give the Fraction loop's table field by
        # field: row order, dtypes, bytes and exact coefficients, each num
        # over den being the loop's Fraction, and the index of distinct Bessel
        # arguments and their largest orders that the reference derives from
        # its rows
        for key in itertools.product((1, 2, 3), (1, 2, 3), (1, 2, 3), (1, 2, 4), (1, 2)):
            table, expect = analysis._bessel_groups(*key), bessel_groups(*key)
            assert type(table.den) is int and table.den > 0, key
            assert all(type(c) is int for c in table.num), key
            assert [Fraction(c, table.den) for c in table.num] == [
                Fraction(c, expect.den) for c in expect.num], key
            for name, got, want in zip(table._fields, table, expect):
                if isinstance(want, np.ndarray):
                    assert (got.dtype, got.shape) == (want.dtype, want.shape), (key, name)
                    assert got.tobytes() == want.tobytes(), (key, name)
                elif name not in ("num", "den"):
                    assert type(got) is type(want) and got == want, (key, name)

    def test_subnormal_snr_gives_one(self):
        # a subnormal linear SNR makes tau* infinite: every path's OP is 1
        c = SystemConfig(snr_db=-3200)
        for k in (1, 2, 3):
            assert math.isinf(tau_star(k, c))
            assert op_closed_form(k, c) == 1.0 == op_numerical(k, c)
            assert closed_form_side(k, c, 0.5) == 1

    @pytest.mark.parametrize("kwargs,tau,op", [(dict(gamma_th=(0.0, 0.0, 0.0)), 0.0, 0.0),
                                               (dict(snr_db=-3200), math.inf, 1.0)])
    def test_side_where_tau_settles_the_op(self, kwargs, tau, op):
        # tau* = 0 gives OP 0 and an infinite tau* OP 1, and the side is that OP's
        c = SystemConfig(**kwargs)
        for k, target in itertools.product((1, 2, 3), (0.0, 0.5, 1.0)):
            assert tau_star(k, c) == tau
            assert closed_form_side(k, c, target) == (op > target) - (op < target)

    @pytest.mark.parametrize("snr_db", [-200, -300, -1000, -3000])
    def test_huge_tau_gives_one(self, snr_db):
        # tau* is finite but so large that the float terms overflow (at m=3
        # in the float power Y^j itself); the head bound F_sr(tau*)^N rounds
        # to 1, and so does the OP
        for m, k in itertools.product((1, 3), (1, 2, 3)):
            c = SystemConfig(snr_db=snr_db, m_sr=m, m_ru=m)
            tau = tau_star(k, c)
            assert math.isfinite(tau)
            assert not math.isfinite(float_sums(k, c)[1])
            assert op_closed_form(k, c) == 1.0 == op_numerical(k, c)

    @pytest.mark.parametrize("kwargs,k", [
        *((dict(m_sr=2, m_ru=2, snr_db=900), k) for k in (1, 2, 3)),
        (dict(m_sr=3, m_ru=3, snr_db=400), 2), (dict(m_sr=3, m_ru=3, snr_db=400), 3),
        (dict(m_sr=3, m_ru=3, snr_db=550), 1)])
    def test_underflowed_op_gives_zero(self, kwargs, k):
        # the OP and its lower bound F_sr(tau*)^N lie below the doubles, and
        # the exact pass at its most digits leaves the sum within its own
        # rounding noise, far below half the smallest subnormal: the OP
        # rounds to 0, as the quadrature's does
        c = SystemConfig(**kwargs)
        assert analysis._first_hop_head(c, c.m_sr / c.omega_sr * tau_star(k, c)) == 0.0
        assert op_closed_form(k, c) == 0.0 == op_numerical(k, c)

    def test_unresolved_passes_double_their_digits(self, monkeypatch):
        # each exact pass leaves the sum below its own noise, so the next
        # doubles the bits up to the cap (1146 here) instead of adding 57:
        # 6 passes where adding 57 at a time took 21
        c = SystemConfig(m_sr=3, m_ru=3, snr_db=600)
        passes = []
        real = analysis._exact_sum

        def counting(*args):
            passes.append(args[-1])
            return real(*args)

        monkeypatch.setattr(analysis, "_exact_sum", counting)
        assert op_closed_form(2, c) == 0.0
        assert passes == [57, 114, 228, 456, 912, 1146]

    def test_subnormal_op_resolved(self):
        # an OP of 4e-317 takes bits down to the smallest subnormal
        c = SystemConfig(m_sr=2, m_ru=2, snr_db=800)
        op = op_closed_form(1, c)
        assert 0.0 < op < sys.float_info.min
        assert op == pytest.approx(op_numerical(1, c), rel=1e-6)

    @pytest.mark.parametrize("kwargs,k", [(dict(m_sr=2, m_ru=2, snr_db=600), 1),
                                          (dict(m_sr=1, m_ru=4, snr_db=200), 3),
                                          (dict(m_sr=3, m_ru=3, snr_db=700), 1),
                                          (dict(m_sr=3, m_ru=3, snr_db=1000), 3)])
    def test_overflowed_float_terms_take_exact_pass(self, monkeypatch, kwargs, k):
        # the float terms overflow (to inf of both signs at m_ru=4, in the
        # float power (p X / ((1+u) Y))^(nu/2) at m=3) while the OP is
        # 4e-237, 2e-75 or below the doubles: the exact pass, whose exponents
        # are unbounded, gives it, starting from a double's 57 bits
        c = SystemConfig(**kwargs)
        assert not math.isfinite(float_sums(k, c)[1])
        passes = []
        real = analysis._exact_sum

        def counting(*args):
            passes.append(args[-1])
            return real(*args)

        monkeypatch.setattr(analysis, "_exact_sum", counting)
        assert op_closed_form(k, c) == pytest.approx(op_numerical(k, c), rel=1e-6)
        assert passes[0] == 57

    def test_table_size_counts_before_cancellation(self):
        # exact where no coefficient cancels, an upper bound elsewhere
        for key in itertools.product((1, 2, 3), (1, 2, 3), (1, 2, 3), (1, 2, 4), (1, 2)):
            assert analysis._table_size(*key) >= len(analysis._bessel_groups(*key).s), key
        assert analysis._table_size(3, 3, 3, 4, 2) == 13776 == len(
            analysis._bessel_groups(3, 3, 3, 4, 2).s)
        assert analysis._table_size(3, 2, 2, 16, 2) == 85680
        assert analysis._table_size(3, 2, 2, 64, 8) == 58556160

    def test_oversized_table_refused_before_build(self, monkeypatch):
        def no_build(*args):
            raise AssertionError("the table was built")

        monkeypatch.setattr(analysis, "expanded_power", no_build)
        c = SystemConfig(m_sr=2, m_ru=2, n_s=8, n_rr=8, n_u=8)
        with pytest.raises(UnsupportedModelError, match="58,556,160 monomials.*quadrature"):
            op_closed_form(1, c)
        with pytest.raises(UnsupportedModelError, match="quadrature"):
            closed_form_side(1, c, 1e-3)

    @pytest.mark.parametrize("kwargs,k", [(dict(snr_db=20), 1),
                                          (dict(m_sr=2, m_ru=2, snr_db=20, w=0.35), 2),
                                          (dict(snr_db=60), 2),
                                          (dict(m_sr=2, m_ru=2, snr_db=60), 3)])
    def test_side_matches_value(self, kwargs, k):
        # far targets are decided by the float sum, near ones by the value;
        # either way the side is the value's
        c = SystemConfig(**kwargs)
        op = op_closed_form(k, c)
        for target in (op / 2, math.nextafter(op, 0), op, math.nextafter(op, 1), op * 2):
            assert closed_form_side(k, c, target) == (op > target) - (op < target)

    @pytest.mark.parametrize("key,count,points", [
        pytest.param((1, 1, 1, 4, 2), 27, 1, id="key0-27"),
        pytest.param((1, 2, 2, 4, 2), 54, 1, id="key1-54"),
        pytest.param((3, 2, 2, 4, 2), 58, 1, id="key2-58"),
        pytest.param((3, 3, 3, 4, 2), 58, 1, id="key3-58"),
        pytest.param((3, 2, 2, 4, 2), 3 * 58, 3, id="key2-3points-174")])
    def test_float_pass_evaluates_kve_once_per_pair(self, monkeypatch, key, count, points):
        # the Bessel argument depends only on p (1+u), and orders above 1
        # come by recurrence, so the float pass evaluates kve once per
        # distinct (p (1+u), order) pair at orders 0 and 1, or at order 1
        # alone where every row has |nu| = 1, not once per row (40, 440, 480
        # and 912 rows), in one call for all its points
        table = analysis._bessel_groups(*key)
        orders = {1} if set(np.abs(table.nu).tolist()) == {1} else {0, 1}
        pairs = {(p * one_u, n) for p, one_u in zip(table.p.tolist(), table.one_u.tolist())
                 for n in orders}
        evaluations = []
        real = special.kve

        def counting(nu, t):
            evaluations.append(np.broadcast(nu, t).size)
            return real(nu, t)

        monkeypatch.setattr(special, "kve", counting)
        analysis._closed_form_sums(table, [0.7, 0.9, 1.3][:points], [0.3, 0.2, 0.5][:points])
        assert evaluations == [count] == [points * len(pairs)]

    @pytest.mark.parametrize("kwargs,k,count", [(dict(snr_db=60), 2, 28),
                                                (dict(m_sr=2, m_ru=2, snr_db=60), 3, 29),
                                                (dict(m_sr=3, m_ru=3, snr_db=60), 3, 29)])
    def test_exact_pass_evaluates_bessel_once_per_argument(self, monkeypatch, kwargs, k,
                                                           count):
        # one _k_series per pass, shared by one _bessel_k per distinct
        # p (1+u) up to the largest order of any group sharing it, in place
        # of one per (p, u) group (44 or 48); K_0 only at the p (1+u) with a
        # row of order 0 or above 1, none at m=1
        c = SystemConfig(**kwargs)
        table, x, y = table_point(k, c)
        series, calls = [], []
        for name, log in (("_k_series", series), ("_bessel_k", calls)):
            def counting(*args, real=getattr(analysis, name), log=log):
                log.append((args, real(*args)))
                return log[-1][1]

            monkeypatch.setattr(analysis, name, counting)
        analysis._exact_sum(table, x, y, 133)
        pus = sorted(set((table.p * table.one_u).tolist()))
        orders = [{abs(nu) for nu, g in zip(table.nu.tolist(), table.group.tolist())
                   if table.p[g] * table.one_u[g] == pu} for pu in pus]
        assert len(series) == 1
        assert len(calls) == count == len(pus)
        assert all(args[0] is series[0][1] for args, _ in calls)
        assert [args[1] for args, _ in calls] == pus
        assert [args[-1] for args, _ in calls] == [max(o) for o in orders]
        assert [kv[0] is None for _, kv in calls] == [o == {1} for o in orders]
        assert (c.m_sr == 1) == all(kv[0] is None for _, kv in calls)

    @pytest.mark.parametrize("key", [(3, 2, 2, 4, 2), (3, 3, 3, 4, 2)])
    def test_bessel_recurrence_matches_besselk(self, key):
        # every order the table uses, at the Bessel arguments of a deep point,
        # where the exact pass runs, and at the bits it would use for 40
        # digits, ceil(40 log2(10)) = 133 bits
        table = analysis._bessel_groups(*key)
        c = SystemConfig(snr_db=60, m_sr=key[1], m_ru=key[2])
        x = c.m_ru / c.omega_ru * c.c2 / c.c1
        y = c.m_sr / c.omega_sr * tau_star(key[0], c)
        pus = table.pu.tolist()
        wp = analysis._working_bits(133, *(2 * math.sqrt(n * x * y) for n in (pus[0], pus[-1])))
        kvs = series_bessel(pus, x, y, wp, table.pu_low.tolist(), table.pu_top.tolist())
        with mp.workprec(wp + 20):
            for pu, (t, kv) in zip(pus, kvs):
                orders = {abs(nu) for nu, g in zip(table.nu.tolist(), table.group.tolist())
                          if table.p[g] * table.one_u[g] == pu}
                for n in orders:
                    exact = mp.besselk(n, t)
                    assert abs(mp.ldexp(kv[n], -wp) - exact) <= 1e-40 * exact, (pu, n)

    @pytest.mark.parametrize("dps", [20, 40, 60, 100])
    def test_series_matches_besselk(self, dps):
        # both ends of the series' range: cancellation-free near 0, and
        # terms e^(2t) above the result at t = 60, at the bits of dps digits
        with mp.workdps(dps):
            tol = 4 * mp.eps
        bits = math.ceil(dps * math.log2(10))
        for i in range(40):
            t = 1e-4 * 6e5 ** (i / 39)
            wp = analysis._working_bits(bits, t, t)
            # t = 2 sqrt(X Y) with X Y = (t/2)^2 rounded to a double
            ((t, kv),) = series_bessel([1], (t / 2) ** 2, 1.0, wp, [0], [1])
            with mp.workprec(wp + 20):
                for n in (0, 1):
                    exact = mp.besselk(n, t)
                    assert abs(mp.ldexp(kv[n], -wp) - exact) <= tol * exact, (n, t)

    def test_exact_sum_within_its_bits(self, monkeypatch):
        # every exact pass that op_closed_form takes on a deep grid lies
        # within 2^-bits of sum|t| of a pass at 700 bits or at twice its own,
        # the grid's largest p (1+u) and series (m=3 at 60 dB) and passes
        # above the 1074 bits where 2^-bits underflows (a subnormal OP) among
        # them
        passes = []
        real = analysis._exact_sum

        def recording(table, x, y, bits):
            passes.append((table, x, y, bits))
            return real(table, x, y, bits)

        monkeypatch.setattr(analysis, "_exact_sum", recording)
        for m, snr_db, k in itertools.product((1, 2, 3), (30, 45, 60), (1, 2, 3)):
            op_closed_form(k, SystemConfig(m_sr=m, m_ru=m, snr_db=snr_db, xi=0.02))
        op_closed_form(1, SystemConfig(m_sr=2, m_ru=2, snr_db=800))
        assert len(passes) >= 20 and max(bits for *_, bits in passes) > 1074
        for table, x, y, bits in passes:
            total, _, wp = real(table, x, y, bits)
            ref, ref_abs, ref_wp = real(table, x, y, max(700, 2 * bits))
            # ref_wp >= wp, and both sums are in units of 2^-ref_wp here
            assert abs((total << ref_wp - wp) - ref) << bits <= ref_abs, (x, y, bits)

    def test_bits_is_exact_log2_ceiling(self):
        # ceil(log2(a / b)) + 57 just below, at and just above powers of
        # two, on ints and on doubles, against a count on Fractions
        def expect(q):
            n = q.numerator.bit_length() - q.denominator.bit_length()
            while Fraction(2) ** n < q:
                n += 1
            while Fraction(2) ** (n - 1) >= q:
                n -= 1
            return n + 57

        for n, d, delta in itertools.product(range(-1100, 1101, 73), (1, 3, 2**60 + 1),
                                             (-1, 0, 1)):
            q = Fraction(2) ** n * Fraction(d + delta, d)
            if q:
                assert analysis._bits(q.numerator, q.denominator) == expect(q), (n, d, delta)
        near_one = (math.nextafter(1.0, 0.0), 1.0, math.nextafter(1.0, 2.0))
        for n, m, b in itertools.product(range(-1000, 1001, 125), near_one,
                                         (1.0, 0.75, math.nextafter(0.5, 1.0), math.ulp(0.0))):
            a = math.ldexp(m, n)
            assert analysis._bits(a, b) == expect(Fraction(a) / Fraction(b)), (a, b)

    @pytest.mark.parametrize("kwargs,k,expect", GOLDEN_DOUBLES)
    def test_golden_doubles(self, kwargs, k, expect):
        # a faster pass, float or mp, must not move a bit
        assert op_closed_form(k, SystemConfig(**kwargs)).hex() == expect

    @given(st.integers(1, 2), st.integers(1, 2), st.integers(1, 3),
           st.floats(0, 60), st.floats(0.2, 0.8), st.sampled_from([0.0, 0.02]))
    @settings(max_examples=30, deadline=None)
    def test_first_hop_head_bounds_op(self, m_sr, m_ru, k, snr, w, xi):
        c = SystemConfig(m_sr=m_sr, m_ru=m_ru, snr_db=snr, w=w, xi=xi)
        head = analysis._first_hop_head(c, c.m_sr / c.omega_sr * tau_star(k, c))
        assert head <= op_closed_form(k, c)

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
        with pytest.raises(UnsupportedModelError, match="integer m, got 2.5"):
            op_closed_form(1, SystemConfig(m_ru=2.5))

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


def hexes(pairs):
    """Each (sum, sum|t|) pair as hex strings, so that NaNs compare equal."""
    return [tuple(float.hex(v) for v in pair) for pair in pairs]


def fsum_pairs(terms):
    """(fsum([1, *t]), fsum([1, *|t|])) of each row."""
    return [(math.fsum([1.0, *row]), math.fsum([1.0, *map(abs, row)]))
            for row in terms.tolist()]


def check_bucket_sums(terms):
    terms = np.atleast_2d(np.asarray(terms, dtype=float))
    assert hexes(analysis._bucket_sums(terms)) == hexes(fsum_pairs(terms))


class TestBucketSums:
    """_bucket_sums against math.fsum, which it must match bit for bit."""

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_real_term_arrays(self, m):
        # the float pass's own terms, m_sr = m_ru = m at 0-120 dB in 10 dB
        # steps, one row per SNR, which the bucket index keeps apart
        for k, xi in itertools.product((1, 2, 3), (0.0, 0.02)):
            configs = [SystemConfig(m_sr=m, m_ru=m, snr_db=snr, xi=xi)
                       for snr in range(0, 121, 10)]
            points = analysis._points(k, configs)[1]
            table, xs, ys = points[0][2], [p[3] for p in points], [p[4] for p in points]
            terms = analysis._closed_form_terms(table, xs, ys)
            assert np.isfinite(terms).all()
            assert np.abs(terms).max() < analysis._SPLIT_GUARD
            check_bucket_sums(terms)

    def test_random_mixed_sign_arrays(self):
        # full 53-bit mantissas of both signs over 1e-300 to 1e300, each array
        # over its own span of decades, half of them cancelling to a residue
        rng = np.random.default_rng(2015)
        bucketed = 0
        for _ in range(2000):
            n = int(rng.integers(1, 1500))
            lo = rng.uniform(-300, 300)
            hi = min(300.0, lo + rng.uniform(0, 40))
            t = rng.choice([-1.0, 1.0], n) * rng.random(n) * 10.0 ** rng.uniform(lo, hi, n)
            if rng.random() < 0.5:
                t = np.concatenate([t, -t * (1 + rng.uniform(-1e-12, 1e-12, n))])
                rng.shuffle(t)
            bucketed += np.abs(t).max() < analysis._SPLIT_GUARD
            check_bucket_sums(t)
        assert bucketed > 1800

    def test_subnormals(self):
        rng = np.random.default_rng(7)
        tiny = 2.0**-1074
        for n in (1, 2, 3, 100, 5000):
            sub = rng.choice([-1.0, 1.0], n) * rng.integers(1, 2**52, n) * tiny
            assert (np.abs(sub) < sys.float_info.min).all()
            check_bucket_sums(sub)
            for scale in (1e-300, 1e-310, 1.0):
                normal = rng.choice([-1.0, 1.0], n) * rng.random(n) * scale
                check_bucket_sums(rng.permutation(np.concatenate([sub, normal])))
        check_bucket_sums([tiny, -tiny, tiny, 3 * tiny, sys.float_info.min])

    def test_exact_cancellation_and_signed_zeros(self):
        rng = np.random.default_rng(11)
        t = rng.standard_normal(3000) * 10.0 ** rng.uniform(-30, 30, 3000)
        both = rng.permutation(np.concatenate([t, -t]))
        assert analysis._bucket_sums(np.atleast_2d(both))[0][0] == 1.0
        check_bucket_sums(both)
        check_bucket_sums([0.0, -0.0, 0.0])
        check_bucket_sums([-0.0] * 7)
        check_bucket_sums([-0.0, 5e-324, -5e-324, 1e-300, -1e-300])

    def test_one_exponent_at_the_table_bound(self):
        # 2^20 terms, more than a table may hold, of one binary exponent:
        # the largest mantissas of one sign, and random ones of both
        n = 2**20
        assert n > analysis._MAX_MONOMIALS
        top = np.full(n, math.nextafter(2.0**10, 0))
        rng = np.random.default_rng(3)
        mixed = rng.choice([-1.0, 1.0], n) * (1 + rng.random(n)) * 2.0**9
        for t in (top, -top, mixed):
            assert len(set(np.frexp(t)[1].tolist())) == 1
            check_bucket_sums(t)

    def test_overflow_guard(self):
        guard = analysis._SPLIT_GUARD
        below = math.nextafter(guard, 0)
        big = sys.float_info.max
        # below the guard the buckets sum, at or above it math.fsum does
        for t in ([below, -1.0, 3.5], [below] * 1000, [below, -below, 1e-300],
                  [guard, 1.0], [guard, -below, 2.5], [2 * guard, -guard],
                  [big / 2, -big / 2, 7.0], [big / 2, big / 2]):
            check_bucket_sums(t)
        # an exact sum past the largest double raises, as in math.fsum
        for t in ([big, big], [big, -big, 7.0], [big, below, big / 2]):
            with pytest.raises(OverflowError):
                fsum_pairs(np.array([t]))
            with pytest.raises(OverflowError):
                analysis._bucket_sums(np.array([t]))

    def test_split_is_exact_with_26_bit_heads(self):
        # the bucket sums are exact because each head and tail has at most
        # 26 significant bits and head + tail = t
        rng = np.random.default_rng(5)
        t = np.concatenate([
            rng.choice([-1.0, 1.0], 500) * 10.0 ** rng.uniform(-300, 297, 500),
            rng.integers(1, 2**52, 100) * 2.0**-1074,
            [math.nextafter(analysis._SPLIT_GUARD, 0), -math.nextafter(1.0, 2), 0.0]])
        head, tail = analysis._split(t)

        def bits(v):
            n = abs(v.as_integer_ratio()[0])
            return (n >> ((n & -n).bit_length() - 1)).bit_length() if n else 0

        for v, h, r in zip(t.tolist(), head.tolist(), tail.tolist()):
            assert Fraction(h) + Fraction(r) == Fraction(v)
            assert bits(h) <= 26 and bits(r) <= 26, v


class TestFloatPassBatch:
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_batch_matches_single_points(self, m):
        # one pass over a grid returns each point's own sums, bit for bit
        grids = ([SystemConfig(m_sr=m, m_ru=m, w=w) for w in np.linspace(0.05, 0.95, 31)],
                 [SystemConfig(m_sr=m, m_ru=m, snr_db=s) for s in np.linspace(0, 40, 11)])
        for configs, k in itertools.product(grids, (1, 2, 3)):
            points = [table_point(k, c) for c in configs]
            table = points[0][0]
            assert all(p[0] is table for p in points)
            batch = analysis._closed_form_sums(table, [p[1] for p in points],
                                               [p[2] for p in points])
            single = [analysis._closed_form_sums(table, (x,), (y,))[0]
                      for table, x, y in points]
            assert hexes(batch) == hexes(single)

    def test_mixed_batch_matches_op_closed_form(self, monkeypatch):
        # float-decided, exact-pass, overflowed-terms, tau* = 0 and
        # tau* = inf points in one batch, across two term tables
        k = 1
        configs = [SystemConfig(snr_db=20), SystemConfig(snr_db=60),
                   SystemConfig(m_sr=3, m_ru=3, snr_db=700),
                   SystemConfig(gamma_th=(0.0, 0.0, 0.0)), SystemConfig(snr_db=-3200),
                   SystemConfig(snr_db=30), SystemConfig(m_sr=3, m_ru=3, snr_db=10),
                   SystemConfig(snr_db=25)]
        taus = [tau_star(k, c) for c in configs]
        assert taus[3] == 0.0 and math.isinf(taus[4])
        ops, points = analysis._points(k, configs)
        assert ops == [None, None, None, 0.0, 1.0, None, None, None]
        assert [p[0] for p in points] == [0, 1, 2, 5, 6, 7]
        decided = []
        for c, tau in zip(configs, taus):
            if 0 < tau < math.inf:
                total, abs_total = float_sums(k, c)
                decided.append(math.isfinite(abs_total) and analysis._FLOAT_TERM_ERR
                               * abs_total / abs(total) <= analysis._REL_TOL)
        assert decided == [True, False, False, True, True, True]
        expect = hexes([[op_closed_form(k, c)] for c in configs])
        assert hexes([[op] for op in analysis.op_closed_form_batch(k, configs)]) == expect
        monkeypatch.setattr(analysis, "_BATCH_TERMS", 100)  # slices of two m=1 points
        assert hexes([[op] for op in analysis.op_closed_form_batch(k, configs)]) == expect

    @pytest.mark.parametrize("m_sr,m_ru,inf_db,power_db", [(3, 3, 400, 700),
                                                          (2, 1, 800, 1300)],
                             ids=["bucket", "fsum"])
    def test_overflow_rows_not_finite(self, m_sr, m_ru, inf_db, power_db):
        # one pass over finite points, a point whose terms overflow to inf
        # and a deeper one whose powers overflow too: each overflow row sums
        # to a pair that is not finite, each finite row to its point's own
        k = 1
        points = [table_point(k, SystemConfig(m_sr=m_sr, m_ru=m_ru, snr_db=s))
                  for s in (0, 20, inf_db, 40, power_db)]
        table = points[0][0]
        assert all(p[0] is table for p in points)
        assert (len(table.s) >= analysis._BUCKET_MIN_TERMS) == (m_sr == 3)
        xs, ys = [p[1] for p in points], [p[2] for p in points]
        terms = analysis._closed_form_terms(table, xs, ys)
        assert np.isinf(terms[2]).any() and not np.isnan(terms[2]).all()
        sums = analysis._closed_form_sums(table, xs, ys)
        assert not any(map(math.isfinite, sums[2] + sums[4]))
        finite = [0, 1, 3]
        assert all(map(math.isfinite, sum((sums[i] for i in finite), ())))
        assert hexes([sums[i] for i in finite]) == hexes(
            [analysis._closed_form_sums(table, (xs[i],), (ys[i],))[0] for i in finite])

    def test_batch_keeps_each_points_checks(self):
        with pytest.raises(UnsupportedModelError):
            analysis.op_closed_form_batch(1, [SystemConfig(), SystemConfig(m_sr=1.5)])
        with pytest.raises(ValueError, match="need 1 <= k <= K"):
            analysis.op_closed_form_batch(4, [SystemConfig()])
        assert analysis.op_closed_form_batch(1, []) == []


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
