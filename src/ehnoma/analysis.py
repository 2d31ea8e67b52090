"""Outage probability: closed form and an independent quadrature oracle.

The closed form expands both hops' CDFs into finite x^v * exp(-c*x) sums and
integrates term by term, each term reducing to a modified Bessel K function.
The quadrature route evaluates the same outage integral directly from the
unexpanded power-form CDFs; the two paths share no series machinery, so their
agreement is a genuine cross-check.  The quadrature is QUADPACK's 21-point
Gauss-Kronrod rule with its error estimate, refined by bisecting the worst
intervals a batch at a time and evaluating the integrand on arrays, so the
module needs only scipy.special from scipy.  The CLI's target-OP and optimal-w
searches run on the closed form and live here too, so that nothing outside
this module loads scipy.special or mpmath.
"""

from __future__ import annotations

import math
import sys
from dataclasses import replace
from fractions import Fraction
from functools import lru_cache, partial
from itertools import chain, groupby, repeat
from typing import NamedTuple

import mpmath as mp
import numpy as np
from scipy import special

from .fading import MAJORITY_RANK_COEFFS, expanded_power
from .link import (SearchError, SystemConfig, UnresolvedNumericsError, UnsupportedModelError,
                   tau_star)

# Every check on an OP in this package compares at this relative tolerance.
_REL_TOL = 1e-6
# Each float term is good to a few units in the last place, so a correctly
# rounded sum errs by about this much times sum|t|.
_FLOAT_TERM_ERR = 4 * 2.0**-53
# closed_form_side trusts the float sum's side of a target only this many of
# its error bounds away from it.
_SIDE_MARGIN = 1e3
# Relative tolerance of the quadrature oracle, far inside _REL_TOL so that it
# can check the closed form, and the most subintervals it may use.
_QUAD_REL_TOL = 1e-13
_QUAD_MAX_INTERVALS = 800
# Equal pieces in t = ln y into which the quadrature cuts each interval
# between its edges before refining: with 16, the op_curve points converge in
# about 2 passes over 36 intervals, against 6 passes over 18 intervals uncut.
_QUAD_PIECES = 16
# Decimal digits a double needs to round-trip; the high-precision pass carries
# this many beyond the digits the cancellation eats.
_DOUBLE_DIGITS = 17
# Most monomials a term table may hold.  Building and summing one peaks at
# about 300 bytes a monomial (measured from 86k to 566k monomials), so this
# keeps a table near 300 MB.
_MAX_MONOMIALS = 1_000_000
# The float pass sums a table of at least this many monomials by binary
# exponent (_bucket_sums), and a smaller one with math.fsum alone.  On one
# point the two cost the same at 640-672 monomials, and bucketing costs 0.7x
# fsum at 820 and 0.3x at 2,700.
_BUCKET_MIN_TERMS = 700
# Veltkamp's splitter for a 53-bit double: t * _SPLITTER - (t * _SPLITTER - t)
# is t rounded to 26 significant bits.  It holds while t * _SPLITTER does not
# overflow, which _SPLIT_GUARD keeps far off.
_SPLITTER = 2.0**27 + 1
_SPLIT_GUARD = 2.0**990
# Most monomials one batched float pass holds: the pass's arrays take about
# 100 bytes a monomial.
_BATCH_TERMS = 8192
# find_snr_for_op answers within this many dB; find_optimal_w's golden-section
# search stops once its bracket is this narrow
_SNR_TOL_DB = 0.05
_W_TOL = 1e-3


class _TermTable(NamedTuple):
    """The closed form's terms as flat arrays.

    One row per (p, u) group, per (p, u, nu) Bessel factor and per monomial,
    and, as the Bessel argument depends only on p (1 + u) and K_nu on |nu|,
    one per distinct p (1 + u) and per distinct (p (1 + u), |nu|) pair.
    """

    s_top: int           # largest power of X
    j_top: int           # largest power of Y
    p: np.ndarray        # per (p, u) group: p
    one_u: np.ndarray    # per group: 1 + u
    group: np.ndarray    # per (p, u, nu) row: its group's index
    nu: np.ndarray       # per row: the Bessel order nu
    half_nu: tuple       # per row: nu / 2, the float power of its Bessel factor
    row: np.ndarray      # per monomial: its row's index
    s: np.ndarray        # per monomial: the power of X
    j: np.ndarray        # per monomial: the power of Y
    num: tuple           # per monomial: the exact coefficient's numerator over den
    den: int             # the coefficients' common denominator
    coef_float: np.ndarray  # per monomial: num/den in lowest terms, as float(n) / d
    pu: np.ndarray       # per distinct p (1 + u), ascending: its value
    group_pu: np.ndarray  # per group: its p (1 + u)'s index
    pu_top: np.ndarray   # per p (1 + u): the largest |nu| of its rows
    kv_pu: np.ndarray    # per distinct (p (1 + u), |nu|), ascending: its p (1 + u)'s index
    kv_nu: np.ndarray    # per pair: |nu|
    row_kv: np.ndarray   # per row: its pair's index


def _table_size(k: int, m_sr: int, m_ru: int, n: int, n_u: int) -> int:
    """The monomials of _bessel_groups(k, m_sr, m_ru, n, n_u) before any cancel.

    Every (p, s) of the rank's second-hop polynomial with p >= 1 (its largest
    power q n_u has p(m_ru - 1) + 1 of them for each p) meets every (u, v) of
    the first hop's F^(n-1) (u(m_sr - 1) + 1 of them for each u) in
    m_sr + v monomials, one for each z.
    """
    top = max(MAJORITY_RANK_COEFFS[k]) * n_u
    ru = (m_ru - 1) * top * (top + 1) // 2 + top
    sr = sum((u * (m_sr - 1) + 1) * (2 * m_sr + u * (m_sr - 1)) // 2 for u in range(n))
    return ru * sr


@lru_cache(maxsize=None)
def _bessel_groups(k: int, m_sr: int, m_ru: int, n: int, n_u: int) -> _TermTable:
    """The closed form's six-fold sum, grouped by the Bessel factor its terms share.

    By G&R 3.471.9 each term of the sum over (q, p, s, u, v, z) reduces to
        c * X^s * Y^j * (p X / ((1+u) Y))^(nu/2) * e^(-(1+u) Y) * K_nu(2 sqrt(p (1+u) X Y))
    with X = b_ru c2 / c1, Y = b_sr tau*, j = m_sr + v, nu = z - s + 1 and c an
    exact rational collecting the eta coefficient, the binomials, the theta
    coefficients, the sign and 2N/(m_sr-1)!.  The Bessel argument depends only
    on (p, u) and the Bessel factor on (p, u, nu), so the terms are flattened
    once into a _TermTable: a row per (p, u) group, a row per (p, u, nu)
    pointing at its group, and a row per monomial (s, j, c) pointing at its
    (p, u, nu) row, all in the order the sum was built.  The table lives in
    this cache entry, so a call pays no hashing of the terms.

    The sum over q comes first, into the rank's second-hop polynomial
    a[p, s] = sum_q eta_q c_ru(q; p, s).  Its (p, s) keep the order in which
    a term-by-term build meets them, as theta_s(p) does not depend on q, so a
    smaller q's (p, s) are a prefix of a larger q's.  A monomial
    (p, u, nu, s, j) then fixes v = j - m_sr and z = nu + s - 1, so its
    coefficient is the single product
    a[p, s] c_sr(u, v) C(m_sr - 1 + v, z) 2N / (m_sr - 1)!, made on integer
    numerators over one common denominator, which the table keeps.

    A table of more than _MAX_MONOMIALS monomials is refused before it is
    built, with UnsupportedModelError.
    """
    size = _table_size(k, m_sr, m_ru, n, n_u)
    if size > _MAX_MONOMIALS:
        raise UnsupportedModelError(
            f"closed-form term table would hold {size:,} monomials, over the "
            f"{_MAX_MONOMIALS:,} limit; quadrature evaluates this configuration")
    ru = {}
    for q, eta in MAJORITY_RANK_COEFFS[k].items():
        for p, s, c_ru in expanded_power(q * n_u, m_ru):
            if p:  # the constant term has no Bessel factor
                ru[p, s] = ru.get((p, s), 0) + eta * c_ru
    sr = expanded_power(n - 1, m_sr)
    den_ru = math.lcm(*(c.denominator for c in ru.values()))
    den_sr = math.lcm(*(c.denominator for _, _, c in sr))
    den = den_ru * den_sr * math.factorial(m_sr - 1)
    sr = [(u, v, 2 * n * c.numerator * (den_sr // c.denominator)) for u, v, c in sr]
    # a monomial's (s, j) is keyed as the integer s * stride + j: a tuple key
    # per monomial would be a tracked object, and at m = 2 enough of them to
    # set off a full garbage collection during the build
    stride = m_sr + (n - 1) * (m_sr - 1) + 1  # above every j = m_sr + v
    groups = {}
    for (p, s), a in ru.items():
        a = a.numerator * (den_ru // a.denominator)
        for u, v, c_sr in sr:
            big_m = m_sr - 1 + v
            by_nu = groups.setdefault((p, u), {})
            key = s * stride + m_sr + v
            for z in range(big_m + 1):
                by_nu.setdefault(z - s + 1, {})[key] = a * c_sr * math.comb(big_m, z)
    pus, group, nus, row, keys, num = [], [], [], [], [], []
    for (p, u), by_nu in groups.items():
        for nu, poly in by_nu.items():
            size = len(keys)
            for key, c in poly.items():
                if c:
                    keys.append(key)
                    num.append(c)
            if len(keys) == size:
                continue
            if not pus or pus[-1] != (p, u):
                pus.append((p, u))
            group.append(len(pus) - 1)
            nus.append(nu)
            row += [len(nus) - 1] * (len(keys) - size)
    ints = partial(np.array, dtype=np.int64)
    ss, js = np.divmod(ints(keys), stride)
    p, one_u, group, nu = (ints([p for p, _ in pus]), ints([1 + u for _, u in pus]),
                           ints(group), ints(nus))
    pu, group_pu = np.unique(p * one_u, return_inverse=True)
    width = np.abs(nu).max(initial=0) + 1
    pairs, row_kv = np.unique(group_pu[group] * width + np.abs(nu), return_inverse=True)
    kv_pu, kv_nu = np.divmod(pairs, width)
    pu_top = np.zeros(len(pu), dtype=np.int64)
    np.maximum.at(pu_top, kv_pu, kv_nu)
    return _TermTable(
        s_top=int(ss.max(initial=0)), j_top=int(js.max(initial=0)), p=p, one_u=one_u,
        group=group, nu=nu, half_nu=tuple((nu / 2).tolist()), row=ints(row), s=ss, j=js,
        num=tuple(num), den=den,
        coef_float=np.array([float(c // g) / (den // g)
                             for c, g in zip(num, map(math.gcd, num, repeat(den)))]),
        pu=pu, group_pu=group_pu, pu_top=pu_top, kv_pu=kv_pu, kv_nu=kv_nu, row_kv=row_kv)


def _closed_form_sums(table, xs, ys):
    """[(sum t, sum |t|)] over the closed form's terms at each point (xs[i], ys[i]).

    The sums are the correctly rounded ones, math.fsum's, which _bucket_sums
    makes from far fewer numbers on tables of at least _BUCKET_MIN_TERMS
    monomials.  A point whose terms overflow, in numpy or in a float power,
    gives a sum|t| and a sum that are not finite.
    """
    terms = _closed_form_terms(table, xs, ys)
    if len(table.s) >= _BUCKET_MIN_TERMS:
        return _bucket_sums(terms)
    return list(map(_fsums, terms.tolist(), np.abs(terms).tolist()))


def _closed_form_terms(table, xs, ys):
    """A row of terms per point (xs[i], ys[i]), all NaN where a float power
    overflows.

    The terms, after the closed form's leading 1, are each monomial of the
    _TermTable times its (p, u, nu) row's Bessel factor, evaluated a column
    at a time for every point at once: the Bessel argument per distinct
    p (1 + u), e^(-(1+u) Y - arg) per (p, u) group, K_|nu| per distinct
    (p (1 + u), |nu|), the nu-power and the Bessel factor per row, then
    c * X^s * Y^j * bessel per monomial.  Each term takes the operations of
    a term-by-term scalar loop in the same order, and products and square
    roots are correctly rounded, so the terms are bitwise those of that loop;
    exp and the fractional powers come from libm (math.exp and float **,
    point by point), as numpy's versions round some arguments differently.
    The Bessel factor takes scipy's exponentially scaled kve = e^t K_n(t),
    which keeps the underflow of a far tail inside one exp(), in one call
    over every point.
    """
    # one point's X and Y as scalars: as columns, a one-point call (every
    # search probe) took 2-7 us more of its 46-59 us at m=1 on a 2-core Xeon
    x, y = ((xs[0], ys[0]) if len(xs) == 1
            else (np.array(xs)[:, None], np.array(ys)[:, None]))
    # each point's X^s, Y^j and row powers, side by side
    s_end, j_end = table.s_top + 1, table.s_top + table.j_top + 2
    size = j_end + len(table.half_nu)
    powers = np.empty((len(xs), size))
    # like the scalar float arithmetic, overflow gives inf without a warning
    with np.errstate(over="ignore", invalid="ignore"):
        base = (table.p * x / (table.one_u * y)).take(table.group, axis=-1)
        point_bases = base.reshape(len(xs), -1).tolist()
        for i, (xi, yi, bases) in enumerate(zip(xs, ys, point_bases)):
            try:
                powers[i] = np.fromiter(chain(map(pow, repeat(xi), range(table.s_top + 1)),
                                              map(pow, repeat(yi), range(table.j_top + 1)),
                                              map(pow, bases, table.half_nu)), float, size)
            except OverflowError:  # float ** raises where numpy gives inf
                powers[i] = math.nan
        if len(xs) == 1:
            powers = powers[0]
        x_pow, y_pow = powers[..., :s_end], powers[..., s_end:j_end]
        power = powers[..., j_end:]
        arg = 2 * np.sqrt(table.pu * x * y)
        exponent = -table.one_u * y - arg.take(table.group_pu, axis=-1)
        scale = np.fromiter(map(math.exp, exponent.ravel().tolist()), float,
                            exponent.size).reshape(exponent.shape)
        kv = special.kve(table.kv_nu, arg.take(table.kv_pu, axis=-1))
        bessel = (power * scale.take(table.group, axis=-1)
                  * kv.take(table.row_kv, axis=-1))
        terms = (table.coef_float * x_pow.take(table.s, axis=-1)
                 * y_pow.take(table.j, axis=-1) * bessel.take(table.row, axis=-1))
    return terms.reshape(len(xs), -1)


def _fsums(terms, magnitudes):
    """(fsum([1, *terms]), fsum([1, *magnitudes])), the first NaN if the second is not
    finite."""
    abs_total = math.fsum([1.0, *magnitudes])
    if not math.isfinite(abs_total):
        return math.nan, abs_total
    return math.fsum([1.0, *terms]), abs_total


def _split(terms):
    """(head, tail) of each term by Veltkamp's splitter: head + tail = t exactly.

    The head is t rounded to 26 significant bits, and so the tail has at
    most 26 (Dekker, 1971), for |t| below _SPLIT_GUARD.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        head = terms * _SPLITTER
        head = head - (head - terms)
        return head, terms - head


def _bucket_sums(terms):
    """[_fsums(row, |row|) for row in terms], from one sum per binary exponent.

    _split cuts each t exactly into a head of 26 significant bits and a
    tail.  For t of binary exponent e, the head is a multiple of 2^(e-26) of
    size at most 2^e and the tail a multiple of t's unit in the last place
    of size at most 2^(e-27), so each of the two is at most 2^26 of its
    unit.  np.bincount sums the heads and the tails per (row, sign, e) in
    double precision, and each partial sum stays a multiple of its unit
    below 2^53 of it, so it is exact while a bucket holds fewer than 2^27
    terms (a table holds at most _MAX_MONOMIALS).  math.fsum of 1 and a row's bucket sums, the
    negative ones negated for sum |t|, is then the correctly rounded sum of
    its terms, the same double as math.fsum of the terms themselves.  A row
    with a term at or above _SPLIT_GUARD, where t * _SPLITTER could
    overflow, or one not finite (NaN fails the comparison too), keeps
    math.fsum of its terms.
    """
    rows = len(terms)
    head, tail = _split(terms)
    exponent = np.frexp(terms)[1]
    low = exponent.min()
    width = int(exponent.max() - low) + 1
    # bucket (row, sign, e): a row's negative terms after its positive ones
    bucket = width * np.signbit(terms)
    bucket += exponent - low
    bucket += 2 * width * np.arange(rows)[:, None]
    size, shape = 2 * width * rows, (rows, 2, width)
    # per row: the heads of its positive terms, of its negative ones, then
    # the same of the tails
    sums = np.concatenate([np.bincount(bucket.ravel(), head.ravel(), size).reshape(shape),
                           np.bincount(bucket.ravel(), tail.ravel(), size).reshape(shape)],
                          axis=1)
    # the exponents span far more buckets than the terms fill
    used = np.flatnonzero(sums.any(axis=0))
    flat = sums.reshape(rows, -1)
    signed = flat.take(used, axis=1).tolist()
    sums[:, 1::2] *= -1
    absolute = flat.take(used, axis=1).tolist()
    return [(math.fsum([1.0, *plus]), math.fsum([1.0, *both])) if top < _SPLIT_GUARD
            else _fsums(terms[i].tolist(), np.abs(terms[i]).tolist())
            for i, (top, plus, both) in enumerate(zip(np.abs(terms).max(axis=1).tolist(),
                                                      signed, absolute))]


def _working_bits(dps, t_lo, t_hi) -> int:
    """Bits after the point that carry dps digits through K_n(t), t_lo <= t <= t_hi.

    The K series' terms grow like e^t while K falls like e^-t, so it needs
    2 t log2(e) bits beyond the digits, plus 20 for its truncations, plus
    log2(1/t) for t < 1, which keeps t itself, and so every power of it,
    to the digits.  Rounded up to a multiple of 32, so that the cached logs
    of _half_log_gamma serve many calls.
    """
    bits = (math.ceil(dps * math.log2(10)) + math.ceil(2 * t_hi * math.log2(math.e))
            + 20 + max(0, math.ceil(-math.log2(t_lo))))
    return -(-bits // 32) * 32


@lru_cache(maxsize=None)
def _half_log_gamma(n: int, wp: int) -> int:
    """ln(n) / 2 + Euler's gamma, in units of 2^-wp."""
    with mp.workprec(wp + 20):
        return int(mp.ldexp(mp.log(n) / 2 + mp.euler, wp))


def _bessel_k(t, ell, wp, top):
    """[K_0(t), ..., K_top(t)] in units of 2^-wp, from t and ell = ln(t/2) + gamma.

    t and ell are integers in units of 2^-wp.  With H_k the k-th harmonic
    number (DLMF 10.31.1 at n = 0 and 1),
        K_0(t) = sum_k (t^2/4)^k / (k!)^2 (H_k - ell),
        K_1(t) = 1/t + (t/2) sum_k (t^2/4)^k / (k! (k+1)!) (ell - (H_k + H_(k+1))/2),
    and both sums come out of one loop on integers, which stops past the
    largest term (k > t/2) once a term falls below 2^-wp of the partial sum.
    Orders above 1 come by the upward recurrence K_(n+1) = K_(n-1) + (2n/t) K_n
    (DLMF 10.29.1), whose terms are all positive, so it loses no digits.
    _working_bits says how large wp must be for a given accuracy.
    """
    one = 1 << wp
    q = t * t >> (wp + 2)  # t^2/4
    half_t = t >> (wp + 1)  # floor(t/2)
    a, h = one, 0  # (t^2/4)^k / (k!)^2 and H_k
    i0 = s0 = i1 = s1 = 0
    k = 0
    while True:
        b = a // (k + 1)
        h_next = h + one // (k + 1)
        i0 += a
        s0 += a * h
        i1 += b
        s1 += b * (h + h_next)
        k += 1
        if k > half_t and a < i0 >> wp:
            break
        a = (a * q >> wp) // (k * k)
        h = h_next
    # s0, s1 and the products with ell are in units of 2^-2wp
    kv = [(s0 - ell * i0) >> wp, (one << wp) // t + (t * (ell * i1 - s1 // 2) >> (2 * wp + 1))]
    for n in range(1, top):
        kv.append(kv[n - 1] + (2 * n * kv[n] << wp) // t)
    return kv


def _exact_sum(table, x, y, dps):
    """(sum t, sum over rows |t|) as Fractions, good to dps digits of sum|t|.

    X = ax 2^-ex and Y = ay 2^-ey are doubles, so each row's polynomial
    sum c X^s Y^j is an exact integer over den 2^(ex s_top + ey j_top).  With
    r = sqrt(p (1+u) X Y) and -nu = 2h + o, o in {0, 1}, the row's Bessel
    factor (p X / r)^nu e^(-(1+u) Y) K_nu(2r) is
        (p X)^a ((1+u) Y)^h * r^o K_nu(2r) e^(-(1+u) Y),   a = -h - o,
    where only r and K_nu(2r) (in fixed point, per distinct p (1+u), with
    ln r = (ln XY + ln(p (1+u))) / 2) and e^(-(1+u) Y) (a power of one mpf
    e^-Y, as mantissa and exponent) are not exact.  Each row is then one
    integer product and one floor division into units of 2^-wp.
    """
    ax, dx = x.as_integer_ratio()
    ay, dy = y.as_integer_ratio()
    ex, ey = dx.bit_length() - 1, dy.bit_length() - 1
    pus = table.pu.tolist()
    t_lo, t_hi = (2 * math.sqrt(n) * math.sqrt(x) * math.sqrt(y) for n in (pus[0], pus[-1]))
    wp = _working_bits(dps, t_lo, t_hi)
    one = 1 << wp
    with mp.workprec(wp + 20):
        half_log_xy = int(mp.ldexp(mp.log(mp.mpf(x) * y), wp - 1))
        e_man, e_exp = mp.exp(-mp.mpf(y)).man_exp
    shift = 2 * wp - ex - ey  # r^2 = p (1+u) ax ay 2^-(ex+ey), in units of 2^-2wp
    bessel = []  # per distinct p (1+u): r and K_0(2r), ..., K_top(2r)
    for pu, top in zip(pus, table.pu_top.tolist()):
        r = math.isqrt(pu * ax * ay << shift if shift >= 0 else pu * ax * ay >> -shift)
        bessel.append((r, _bessel_k(2 * r, half_log_xy + _half_log_gamma(pu, wp), wp, top)))
    groups = [(p * ax, one_u * ay, e_man**one_u, one_u * e_exp, *bessel[i])
              for p, one_u, i in zip(table.p.tolist(), table.one_u.tolist(),
                                      table.group_pu.tolist())]
    xys = [[ax**s * ay**j << ex * (table.s_top - s) + ey * (table.j_top - j)
            for j in range(table.j_top + 1)] for s in range(table.s_top + 1)]
    polys = [0] * len(table.nu)
    for row, s, j, c in zip(table.row.tolist(), table.s.tolist(), table.j.tolist(), table.num):
        polys[row] += c * xys[s][j]
    total = abs_total = one
    for poly, g, nu in zip(polys, table.group.tolist(), table.nu.tolist()):
        p_ax, u_ay, e_pow, e_shift, r, kv = groups[g]
        h, o = divmod(-nu, 2)
        a = -h - o
        num = poly * kv[abs(nu)] * e_pow * r**o * p_ax ** max(a, 0) * u_ay ** max(h, 0)
        den = table.den * p_ax ** max(-a, 0) * u_ay ** max(-h, 0)
        shift = e_shift - wp * o - ex * (table.s_top + a) - ey * (table.j_top + h)
        term = (num << shift) // den if shift >= 0 else num // (den << -shift)
        total += term
        abs_total += abs(term)
    return Fraction(total, one), Fraction(abs_total, one)


def _condition(total, abs_total, eps):
    """Summation condition number sum|t| / |sum t| (Higham, ch. 4).

    A sum below its own rounding noise eps * sum|t| is unresolved, and all the
    measurement can say is that the condition is at least 1/eps.
    """
    return abs_total / max(abs(total), eps * abs_total)


def _digits(cond) -> int:
    return int(mp.ceil(mp.log10(cond))) + _DOUBLE_DIGITS


def _first_hop_head(config: SystemConfig, tau: float) -> float:
    """F_sr(tau*)^N, the chance that even the best first-hop pair is below tau*.

    The OP is this plus a positive integral, so it bounds the OP from below.
    """
    return (special.gammainc(config.m_sr, config.m_sr / config.omega_sr * tau)
            ** (config.n_s * config.n_rr))


def _int_m(m) -> int:
    if not float(m).is_integer():
        raise UnsupportedModelError(f"analytic path requires integer m, got {m}")
    return int(m)


def _closed_form(k: int, config: SystemConfig, tau: float, table, x, y, total,
                 abs_total) -> float:
    """The closed form at the precision its own cancellation calls for, in [0, 1].

    Takes a point of _points and its float sums, sum t and sum |t|.  The
    float sum is returned when its error bound, measured from the
    summation condition number, is inside _REL_TOL.  Otherwise the same terms
    are summed exactly by _exact_sum to log10(condition) + 17 digits, adding
    digits until they cover the condition that pass measures (at least
    doubling them while a pass's sum is below its own noise), up to the
    digits that put its rounding noise 17 digits below the smallest
    subnormal, so that a subnormal OP is resolved too.  A float sum below its
    own rounding noise measures no condition; then the OP's lower bound
    F_sr(tau*)^N bounds it instead, as sum|t| / F_sr(tau*)^N.  Float terms
    that overflow measure nothing either: a bound that rounds to 1 gives
    OP 1, and otherwise the exact pass starts from a double's digits.  A sum
    still unresolved at the most digits is an OP that rounds to 0 when that
    bound underflows to 0 and the sum and its noise lie within half the
    smallest subnormal; otherwise it raises UnresolvedNumericsError.
    """
    finite = math.isfinite(abs_total)
    if finite:
        cond = _condition(total, abs_total, mp.fp.eps)
        if _FLOAT_TERM_ERR * cond <= _REL_TOL:
            return _clamp(total)
    head = _first_hop_head(config, tau)
    if finite:
        max_dps = _digits(mp.mpf(abs_total) / math.ulp(0.0))
        if abs(total) < mp.fp.eps * abs_total and head >= sys.float_info.min:
            cond = mp.mpf(abs_total) / head
        dps = _digits(cond)
    elif head == 1.0:
        return 1.0
    else:  # the exact pass's own sum|t| sets max_dps
        dps, max_dps = _DOUBLE_DIGITS, math.inf
    while True:
        total, abs_total = _exact_sum(table, x, y, dps)
        need = _digits(_condition(total, abs_total, Fraction(1, 10**dps)))
        if need <= dps:
            return _clamp(float(total))
        if math.isinf(max_dps):
            max_dps = _digits(abs_total / Fraction(math.ulp(0.0)))
        if dps >= max_dps:
            break
        if abs(total) * 10**dps < abs_total:  # below its noise: need is no measure
            need = max(need, 2 * dps)
        dps = min(need, max_dps)
    if head == 0.0 and abs(total) + abs_total / 10**dps <= Fraction(math.ulp(0.0)) / 2:
        return 0.0
    raise UnresolvedNumericsError(
        f"closed-form OP for k={k} unresolved within {max_dps} digits")


def _clamp(op: float) -> float:
    return min(max(op, 0.0), 1.0)


def _check_scope(config: SystemConfig) -> None:
    if config.k_users != 3 or config.n_rt != 2:
        raise UnsupportedModelError(
            "majority-selection rank CDF covers K=3 users and n_rt=2"
        )


def _points(k: int, configs):
    """(ops, points): each config checked and its tau* found, in order.

    ops[i] is 0.0 where config i's tau* is 0, 1.0 where it is infinite and
    None elsewhere; points holds (i, config, tau*, table, X, Y) for each of
    the others, the closed form's term table, X and Y at config i.
    """
    ops, points = [], []
    for config in configs:
        _check_scope(config)
        tau = tau_star(k, config)
        if tau == 0.0:
            ops.append(0.0)
        elif math.isinf(tau):
            ops.append(1.0)
        else:
            table = _bessel_groups(k, _int_m(config.m_sr), _int_m(config.m_ru),
                                   config.n_s * config.n_rr, config.n_u)
            points.append((len(ops), config, tau, table,
                           config.m_ru / config.omega_ru * config.c2 / config.c1,
                           config.m_sr / config.omega_sr * tau))
            ops.append(None)
    return ops, points


def op_closed_form(k: int, config: SystemConfig) -> float:
    """Closed-form outage probability of the rank-k user.

    Requires integer fading parameters on both hops and the 3-user,
    2-transmit-antenna majority-selection scope.  The value is accurate to
    1e-6 relative; rounding can put it a hair outside [0, 1], so it is clamped.
    A linear SNR so small that tau* is infinite (a subnormal) gives OP 1.
    """
    return op_closed_form_batch(k, (config,))[0]


def op_closed_form_batch(k: int, configs) -> list:
    """[op_closed_form(k, c) for c in configs], with the float passes batched.

    Every config goes through _points before any is summed.  The points then
    take the float pass together, in slices of at most _BATCH_TERMS
    monomials over runs of points that share a term table, and each is
    resolved in order by _closed_form from its own sums, which are bit for
    bit those of the point alone, so a value does not depend on the batch.
    """
    ops, points = _points(k, configs)
    sums = []
    for _, run in groupby(points, key=lambda point: id(point[3])):
        run = list(run)
        table = run[0][3]
        step = max(1, _BATCH_TERMS // len(table.s))
        for start in range(0, len(run), step):
            part = run[start:start + step]
            sums += _closed_form_sums(table, [p[4] for p in part], [p[5] for p in part])
    for (i, config, tau, table, x, y), point_sums in zip(points, sums):
        ops[i] = _closed_form(k, config, tau, table, x, y, *point_sums)
    return ops


def closed_form_side(k: int, config: SystemConfig, target: float) -> int:
    """The sign of op_closed_form(k, config) - target: 1, 0 or -1.

    The float sum decides when it lies more than _SIDE_MARGIN times its own
    error bound, _FLOAT_TERM_ERR * sum|t|, from target: the OP is then on the
    same side, and so is op_closed_form's value, which is the float sum or a
    high-precision sum far inside that bound.  Otherwise op_closed_form's
    value, resolved from the same float pass, is compared exactly, so
    equality keeps its meaning.  find_snr_for_op needs this: bisecting on
    op_closed_form's values instead takes the exact pass at probes near the
    target, 13 times over the benchmark's 15 find-snr searches, which then
    took 41 ms in place of 30 on a 2-core Xeon.
    """
    (op,), points = _points(k, (config,))
    for _, _, tau, table, x, y in points:
        ((total, abs_total),) = _closed_form_sums(table, (x,), (y,))
        if abs(total - target) > _SIDE_MARGIN * _FLOAT_TERM_ERR * abs_total:
            return 1 if total > target else -1
        op = _closed_form(k, config, tau, table, x, y, total, abs_total)
    return (op > target) - (op < target)


def find_snr_for_op(k: int, config: SystemConfig, target_op: float,
                    lo_db: float, hi_db: float) -> float:
    """SNR (dB) at which the analytic OP of user k crosses target_op.

    Bisection on the monotone (nonincreasing) analytic OP curve; the bracket
    needs lo_db < hi_db, and its endpoints must straddle the target.  Each
    step needs only the side of the target the OP lies on, which
    closed_form_side mostly reads off the closed form's float sum.
    """
    if not 0 < target_op < 1:
        raise ValueError(f"target OP must be in (0,1), got {target_op}")
    if not lo_db < hi_db:
        raise ValueError(f"bracket [{lo_db}, {hi_db}] dB needs lo < hi")

    def side(snr_db):
        return closed_form_side(k, replace(config, snr_db=snr_db), target_op)

    side_lo = side(lo_db)
    if side_lo == 0:
        return lo_db
    if not side_lo > 0 > side(hi_db):
        f_lo, f_hi = op_closed_form_batch(
            k, [replace(config, snr_db=lo_db), replace(config, snr_db=hi_db)])
        raise SearchError(
            f"bracket [{lo_db}, {hi_db}] dB does not straddle OP={target_op:g} "
            f"(endpoints {f_lo:.3e}, {f_hi:.3e})"
        )
    lo, hi = lo_db, hi_db
    while hi - lo > 2 * _SNR_TOL_DB:
        mid = 0.5 * (lo + hi)
        if side(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def find_optimal_w(k: int, config: SystemConfig, grid):
    """(w*, op*) minimizing the analytic OP over the power-splitting ratio."""
    grid = np.asarray(sorted(grid), dtype=float)
    if grid.size == 0:
        raise ValueError("w grid must be nonempty")
    # no stage's feasibility depends on w, so an infeasible configuration
    # raises InfeasibleConfigError at the first grid point
    ops = op_closed_form_batch(k, [replace(config, w=float(w)) for w in grid])
    i = int(np.argmin(ops))
    lo = grid[max(i - 1, 0)]
    hi = grid[min(i + 1, len(grid) - 1)]

    def f(w):
        return op_closed_form(k, replace(config, w=float(w)))

    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > _W_TOL:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    w_star = 0.5 * (a + b)
    return float(w_star), f(w_star)


# QUADPACK's qk21 rule (Piessens et al., 1983): the 11 non-negative
# abscissae of the 21-point Gauss-Kronrod rule on [-1, 1], from the outermost
# inwards to the centre, and their Kronrod weights.  Every other abscissa from
# the second on is a node of the embedded 10-point Gauss rule, whose weights
# are _GAUSS_10.
_XGK = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0])
_WGK = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077208323994574, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821])
_GAUSS_10 = np.array([
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338])
# the 21 nodes left to right, with the Kronrod and Gauss weight of each
_GK_NODES = np.concatenate([-_XGK[:-1], _XGK[::-1]])
_GK_KRONROD = np.concatenate([_WGK[:-1], _WGK[::-1]])
_GK_GAUSS = np.zeros(21)
_GK_GAUSS[1:10:2] = _GAUSS_10
_GK_GAUSS[11::2] = _GAUSS_10[::-1]


def _gk21(f, lo, hi):
    """(integral, error estimate) of f over each interval [lo_i, hi_i], by qk21.

    f takes an array of points and returns its values there; all 21 nodes
    of every interval go to it in one call.  The error estimate is qk21's:
    resasc * min(1, (200 |K - G| / resasc)^1.5), with K and G the Kronrod and
    Gauss sums and resasc the Kronrod integral of |f - K / (hi - lo)|,
    floored at 50 eps times the Kronrod integral of |f|.
    """
    centre, half = (lo + hi) / 2, (hi - lo) / 2
    fx = f(centre[:, None] + half[:, None] * _GK_NODES)
    kronrod = fx @ _GK_KRONROD
    resasc = np.abs(fx - (kronrod / 2)[:, None]) @ _GK_KRONROD * half
    resabs = np.abs(fx) @ _GK_KRONROD * half
    err = np.abs(kronrod - fx @ _GK_GAUSS) * half
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = resasc * np.minimum(1.0, (200 * err / resasc) ** 1.5)
    err = np.where((resasc != 0) & (err != 0), scaled, err)
    return kronrod * half, np.maximum(err, 50 * sys.float_info.epsilon * resabs)


def _integrate(f, edges):
    """(integral, error estimate) of f from edges[0] to edges[-1], adaptively.

    Starts from the intervals between consecutive edges and, while the
    summed error estimate exceeds _QUAD_REL_TOL of the integral, bisects
    the intervals with the largest errors until those left unsplit hold
    under half of that tolerance.  Each pass evaluates f once, on every
    node of every new interval.  Stops after _QUAD_MAX_INTERVALS intervals,
    returning whatever error estimate it has reached.
    """
    lo, hi = np.array(edges[:-1], dtype=float), np.array(edges[1:], dtype=float)
    value, err = _gk21(f, lo, hi)
    while True:
        # a tail whose _QUAD_REL_TOL underflows is held to the smallest double
        tol = max(math.ulp(0.0), _QUAD_REL_TOL * abs(value.sum()))
        room = _QUAD_MAX_INTERVALS - len(lo)
        if err.sum() <= tol or room <= 0:
            return value.sum(), err.sum()
        order = np.argsort(-err)
        unsplit = np.cumsum(err[order][::-1])[::-1]  # error left if split from i on
        split = order[:min(np.count_nonzero(unsplit >= tol / 2), room)]
        keep = np.ones(len(lo), dtype=bool)
        keep[split] = False
        mid = (lo[split] + hi[split]) / 2
        new_lo = np.concatenate([lo[split], mid])
        new_hi = np.concatenate([mid, hi[split]])
        new_value, new_err = _gk21(f, new_lo, new_hi)
        lo, hi = np.concatenate([lo[keep], new_lo]), np.concatenate([hi[keep], new_hi])
        value = np.concatenate([value[keep], new_value])
        err = np.concatenate([err[keep], new_err])


def op_numerical(k: int, config: SystemConfig) -> float:
    """Outage probability by adaptive quadrature of the outage integral.

    F_sr(tau*)^N + integral over y > 0 of
    F_ru(tau* c2 / (c1 y)) * f_sr(tau* + y) dy,
    with both CDFs in unexpanded power form.  The integral runs over
    t = ln y with a breakpoint where the second-hop CDF turns, near
    y = tau* c2 / c1, which deep in outage is a tiny fraction of the range.
    Each side of it is cut into _QUAD_PIECES equal pieces, and _integrate
    evaluates the integral with the 21-point Gauss-Kronrod rule by batched
    bisection from those pieces.  Accepts non-integer fading m.  Raises
    UnresolvedNumericsError when the integrator's error estimate exceeds
    _REL_TOL times the OP.
    """
    _check_scope(config)
    tau = tau_star(k, config)
    if tau == 0.0:
        return 0.0
    m_sr, om_sr = config.m_sr, config.omega_sr
    m_ru, om_ru = config.m_ru, config.omega_ru
    n = config.n_s * config.n_rr
    n_u = config.n_u
    etas = [(q, float(e)) for q, e in sorted(MAJORITY_RANK_COEFFS[k].items())]
    ratio = tau * config.c2 / config.c1
    b_sr = m_sr / om_sr
    log_gamma_m = math.lgamma(m_sr)

    def integrand(t):
        y = np.exp(t)
        x = tau + y
        # f_x * dy/dt, the Gamma pdf times y
        f_x = np.exp(m_sr * math.log(b_sr) + (m_sr - 1) * np.log(x) - b_sr * x
                     - log_gamma_m + t)
        f_sr = n * f_x * special.gammainc(m_sr, b_sr * x) ** (n - 1)
        g = special.gammainc(m_ru, m_ru * (ratio / y) / om_ru) ** n_u
        return sum(e * g**q for q, e in etas) * f_sr

    # choose the upper limit so the neglected first-hop tail mass is < 1e-14
    x_max = (om_sr / m_sr) * special.gammainccinv(m_sr, 1e-15 / n)
    head = _first_hop_head(config, tau)
    if x_max <= tau:
        return head
    # F_sr(x) / x^m_sr falls with x, so the mass below y_lo, at most
    # F_sr(tau* + y_lo)^N - F_sr(tau*)^N <= ((1 + y_lo/tau*)^(m_sr N) - 1) head,
    # is below 1e-15 of head, and head <= OP
    y_lo = tau * math.expm1(math.log1p(1e-15) / (m_sr * n))
    t_lo, t_hi, t_turn = math.log(y_lo), math.log(x_max - tau), math.log(ratio)
    edges = [t_lo, t_turn, t_hi] if t_lo < t_turn < t_hi else [t_lo, t_hi]
    pieces = [np.linspace(a, b, _QUAD_PIECES + 1)[:-1] for a, b in zip(edges, edges[1:])]
    tail, err = _integrate(integrand, [*np.concatenate(pieces).tolist(), t_hi])
    op = head + tail
    if err > _REL_TOL * op:
        raise UnresolvedNumericsError(
            f"quadrature OP for k={k}: error estimate {err:.3g} exceeds "
            f"{_REL_TOL:g} of {op:.6g}")
    return op
