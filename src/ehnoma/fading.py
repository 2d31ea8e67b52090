"""Exact series of the Nakagami-m order-statistic CDFs the closed form consumes.

The squared gain of a Nakagami-m hop is Gamma distributed with shape m and
mean Omega, F_X(x) = gammainc(m, m x / Omega).  For integer m, F_X^y is a
finite sum of x^v * exp(-c*x) terms (`expanded_power`, built on `theta`),
and `MAJORITY_RANK_COEFFS` writes each majority-selected rank CDF as a
polynomial in F_X^n_u.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache


@lru_cache(maxsize=None)
def theta(y: int, m: int) -> tuple:
    """Coefficients of the y-th power of the truncated exponential series.

    Entry x is the exact rational coefficient of t^x in
    (sum_{n=0}^{m-1} t^n / n!)^y.  Consumers evaluate at t = (m/omega)*x,
    i.e. the coefficient of x^v carries an extra rate^v factor.

    With a_0 = 1 the standard recurrence for powers of a series is
        c_x = (1/x) * sum_{o=1}^{min(x, m-1)} (o*(y+1) - x) * a_o * c_{x-o},
    where a_o = 1/o! for o <= m-1 and zero beyond the truncation order.
    """
    if y < 0:
        raise ValueError("power y must be nonnegative")
    top = y * (m - 1)
    c = [Fraction(1)] + [Fraction(0)] * top
    for x in range(1, top + 1):
        s = Fraction(0)
        for o in range(1, min(x, m - 1) + 1):
            s += (o * (y + 1) - x) * Fraction(1, math.factorial(o)) * c[x - o]
        c[x] = s / x
    return tuple(c)


@lru_cache(maxsize=None)
def expanded_power(y: int, m: int) -> tuple:
    """Exact terms of F_X(x)^y for integer m, expanded with the binomial theorem:
        sum_{u=0}^{y} sum_v C(y,u) (-1)^u theta_v(u) (b x)^v e^{-u b x},
    returned as ((u, v, C(y,u) (-1)^u theta_v(u)), ...) in (u, v) order.
    """
    return tuple((u, v, math.comb(y, u) * (-1) ** u * c)
                 for u in range(y + 1) for v, c in enumerate(theta(u, m)))


# Rank-ordered user gain CDF under majority transmit-antenna selection,
# three users voting over two relay transmit antennas.  With
# G = F_X(x)^n_u the CDF of rank k is sum_q MAJORITY_RANK_COEFFS[k][q] G^q.
#
# Derivation (exact): each user's two per-row maxima are i.i.d. with CDF G;
# a user voting for the winning row contributes its overall best gain
# (CDF G^2) and a dissenting user contributes its weaker row maximum
# (CDF 2G - G^2); votes are independent of the gain values.  Mixing over
# the vote patterns (all-agree with probability 1/4, two-to-one with 3/4)
# gives the rank CDFs below.
MAJORITY_RANK_COEFFS = {
    1: {
        1: Fraction(3, 2),
        2: Fraction(3, 2),
        3: Fraction(-3),
        5: Fraction(3, 2),
        6: Fraction(-1, 2),
    },
    2: {3: Fraction(3), 5: Fraction(-3), 6: Fraction(1)},
    3: {5: Fraction(3, 2), 6: Fraction(-1, 2)},
}
