"""Outage probability: closed form and an independent quadrature oracle.

The closed form expands both hops' CDFs into finite x^v * exp(-c*x) sums and
integrates term by term, each term reducing to a modified Bessel K function.
The quadrature route evaluates the same outage integral directly from the
unexpanded power-form CDFs; the two paths share no series machinery, so their
agreement is a genuine cross-check.
"""

from __future__ import annotations

import math
import sys
import warnings
from fractions import Fraction
from functools import lru_cache

import mpmath as mp
from scipy import integrate, special

from .fading import MAJORITY_RANK_COEFFS, UnsupportedModelError, theta
from .link import SystemConfig, tau_star

# Every check on an OP in this package compares at this relative tolerance.
_REL_TOL = 1e-6
# Each float term is good to a few units in the last place, so a correctly
# rounded sum errs by about this much times sum|t|.
_FLOAT_TERM_ERR = 4 * 2.0**-53
# Decimal digits a double needs to round-trip; the high-precision pass carries
# this many beyond the digits the cancellation eats.
_DOUBLE_DIGITS = 17


@lru_cache(maxsize=None)
def _bessel_groups(k: int, m_sr: int, m_ru: int, n: int, n_u: int) -> tuple:
    """The closed form's six-fold sum, grouped by the Bessel factor its terms share.

    By G&R 3.471.9 each term of the sum over (q, p, s, u, v, z) reduces to
        c * X^s * Y^j * (p X / ((1+u) Y))^(nu/2) * e^(-(1+u) Y) * K_nu(2 sqrt(p (1+u) X Y))
    with X = b_ru c2 / c1, Y = b_sr tau*, j = m_sr + v, nu = z - s + 1 and c an
    exact rational collecting the eta coefficient, the binomials, the theta
    coefficients, the sign and 2N/(m_sr-1)!.  The Bessel factor depends only on
    (p, u, nu), so the terms are returned as ((p, u, nu, ((s, j, c), ...)), ...).
    """
    groups = {}
    scale = Fraction(2 * n, math.factorial(m_sr - 1))
    for q, eta in MAJORITY_RANK_COEFFS[k].items():
        for p in range(1, q * n_u + 1):
            for s, th_p in enumerate(theta(p, m_ru)):
                for u in range(n):
                    for v, th_u in enumerate(theta(u, m_sr)):
                        big_m = m_sr - 1 + v
                        base = (scale * eta * math.comb(q * n_u, p) * math.comb(n - 1, u)
                                * (-1) ** (p + u) * th_p * th_u)
                        for z in range(big_m + 1):
                            poly = groups.setdefault((p, u, z - s + 1), {})
                            key = (s, m_sr + v)
                            poly[key] = poly.get(key, 0) + base * math.comb(big_m, z)
    out = []
    for (p, u, nu), poly in groups.items():
        monomials = tuple((s, j, c) for (s, j), c in poly.items() if c)
        if monomials:
            out.append((p, u, nu, monomials))
    return tuple(out)


def _closed_form_sum(ctx, fsum, kve, groups, x, y):
    """(sum t, sum |t|) over the closed form's terms, in the arithmetic of ctx.

    The terms are 1 and every group's monomials times the group's Bessel
    factor.  `fsum` sums accurately in ctx; `kve(nu, t)` is the exponentially
    scaled Bessel function e^t K_nu(t), which keeps the underflow of a far
    tail inside one exp().
    """
    terms = [ctx.one]
    for p, u, nu, poly in groups:
        arg = 2 * ctx.sqrt(p * (1 + u) * x * y)
        bessel = ((p * x / ((1 + u) * y)) ** (ctx.mpf(nu) / 2)
                  * ctx.exp(-(1 + u) * y - arg) * kve(nu, arg))
        for s, j, c in poly:
            terms.append(ctx.mpf(c.numerator) / c.denominator * x**s * y**j * bessel)
    return fsum(terms), fsum(map(abs, terms))


def _condition(total, abs_total, eps):
    """Summation condition number sum|t| / |sum t| (Higham, ch. 4).

    A sum below its own rounding noise eps * sum|t| is unresolved, and all the
    measurement can say is that the condition is at least 1/eps.
    """
    return abs_total / max(abs(total), eps * abs_total)


def _digits(cond) -> int:
    return int(mp.ceil(mp.log10(cond))) + _DOUBLE_DIGITS


def _kve_mp(nu, t):
    return mp.besselk(nu, t) * mp.exp(t)


def _closed_form(k: int, config: SystemConfig, tau: float) -> float:
    """The closed form at the precision its own cancellation calls for.

    The float sum is returned when its error bound, measured from the
    summation condition number, is inside _REL_TOL.  Otherwise the same terms
    are summed again with mpmath at log10(condition) + 17 digits, adding
    digits until they cover the condition measured at the working precision.
    """
    groups = _bessel_groups(k, config.sr_fading.int_m, config.ru_fading.int_m,
                            config.n_s * config.n_rr, config.n_u)
    x = config.ru_fading.rate * config.c2 / config.c1
    y = config.sr_fading.rate * tau
    total, abs_total = _closed_form_sum(mp.fp, math.fsum, special.kve, groups, x, y)
    cond = _condition(total, abs_total, mp.fp.eps)
    if _FLOAT_TERM_ERR * cond <= _REL_TOL:
        return total
    # a sum still unresolved once its rounding noise lies 17 digits below the
    # smallest double has no double to return
    max_dps = _digits(mp.mpf(abs_total) / sys.float_info.min)
    dps = _digits(cond)
    while dps <= max_dps:
        with mp.workdps(dps):
            total, abs_total = _closed_form_sum(mp.mp, mp.fsum, _kve_mp, groups,
                                                mp.mpf(x), mp.mpf(y))
            need = _digits(_condition(total, abs_total, mp.eps))
            if need <= dps:
                return float(total)
        dps = need
    raise ArithmeticError(f"closed-form OP for k={k} unresolved within {max_dps} digits")


def _check_scope(config: SystemConfig) -> None:
    if config.k_users != 3 or config.n_rt != 2:
        raise UnsupportedModelError(
            "closed form covers K=3 users and n_rt=2 relay transmit antennas"
        )


def op_closed_form_raw(k: int, config: SystemConfig) -> float:
    """Unclamped closed-form outage probability (diagnostics)."""
    _check_scope(config)
    tau = tau_star(k, config)
    if tau == 0.0:
        return 0.0
    return _closed_form(k, config, tau)


def op_closed_form(k: int, config: SystemConfig) -> float:
    """Closed-form outage probability of the rank-k user.

    Requires integer fading parameters on both hops and the 3-user,
    2-transmit-antenna majority-selection scope.  The value is accurate to
    1e-6 relative; rounding can put it a hair outside [0, 1], so it is clamped.
    """
    raw = op_closed_form_raw(k, config)
    return min(max(raw, 0.0), 1.0)


def op_numerical(k: int, config: SystemConfig, rel_tol: float = 1e-13) -> float:
    """Outage probability by adaptive quadrature of the outage integral.

    F_sr(tau*) + integral over x > tau* of
    F_ru(tau* c2 / (c1 (x - tau*))) * f_sr(x) dx,
    with both CDFs in unexpanded power form.  Accepts non-integer fading m.
    """
    if config.k_users != 3 or config.n_rt != 2:
        raise UnsupportedModelError(
            "majority-selection rank CDF covers K=3 users and n_rt=2"
        )
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

    def cdf_ru(x):
        g = special.gammainc(m_ru, m_ru * x / om_ru) ** n_u
        return sum(e * g**q for q, e in etas)

    def integrand(y):
        x = tau + y
        f_x = math.exp(
            m_sr * math.log(b_sr) + (m_sr - 1) * math.log(x) - b_sr * x - log_gamma_m
        )
        f_sr = n * f_x * special.gammainc(m_sr, b_sr * x) ** (n - 1)
        f_ru = cdf_ru(ratio / y) if y > 1e-300 else 1.0
        return f_ru * f_sr

    # choose the upper limit so the neglected first-hop tail mass is < 1e-14
    x_max = (om_sr / m_sr) * special.gammainccinv(m_sr, 1e-15 / n)
    head = special.gammainc(m_sr, b_sr * tau) ** n
    if x_max <= tau:
        return head
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        tail, _ = integrate.quad(
            integrand, 0.0, x_max - tau, epsabs=1e-280, epsrel=rel_tol, limit=800
        )
    return head + tail
