"""Nakagami-m squared-gain statistics and selection-diversity CDFs.

The squared envelope of a Nakagami-m fading channel is Gamma distributed
with shape m and mean Omega.  For integer m the CDF reduces to a finite
exponential sum, which is what makes the selection-diversity CDFs below
expressible as finite sums of x^v * exp(-c*x) terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np
from scipy import special


class UnsupportedModelError(ValueError):
    """Raised when an analytic operation is asked for outside its closed-form scope."""


@dataclass(frozen=True)
class NakagamiParams:
    """Fading severity m and mean square gain omega for one hop.

    Analytic operations require integer m; sampling accepts any m >= 0.5.
    """

    m: float
    omega: float

    def __post_init__(self):
        if self.m < 0.5:
            raise ValueError(f"Nakagami m must be >= 0.5, got {self.m}")
        if self.omega <= 0:
            raise ValueError(f"omega must be positive, got {self.omega}")

    @property
    def is_integer_m(self) -> bool:
        return float(self.m).is_integer()

    @property
    def int_m(self) -> int:
        if not self.is_integer_m:
            raise UnsupportedModelError(
                f"analytic path requires integer m, got {self.m}"
            )
        return int(self.m)

    @property
    def rate(self) -> float:
        """Exponential rate m/omega of the squared-gain Gamma distribution."""
        return self.m / self.omega


def cdf_squared_gain(params: NakagamiParams, x):
    """CDF of the squared gain, regularized lower incomplete gamma."""
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise ValueError("squared gain CDF argument must be nonnegative")
    out = special.gammainc(params.m, params.rate * x)
    return float(out) if out.ndim == 0 else out


def pdf_squared_gain(params: NakagamiParams, x):
    """PDF of the squared gain: (m/O)^m x^(m-1) e^(-mx/O) / Gamma(m)."""
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise ValueError("squared gain PDF argument must be nonnegative")
    b = params.rate
    with np.errstate(divide="ignore", invalid="ignore"):
        out = b**params.m * x ** (params.m - 1) * np.exp(-b * x) / special.gamma(params.m)
    if params.m == 1:
        out = np.where(x == 0, b, out)
    return float(out) if out.ndim == 0 else out


@lru_cache(maxsize=None)
def theta(y: int, m) -> tuple:
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
    if not float(m).is_integer():
        raise UnsupportedModelError(f"analytic path requires integer m, got {m}")
    m = int(m)
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


def _expanded_powers(params: NakagamiParams, x, weighted_powers) -> np.ndarray:
    """Sum of weight * F_X(x)^y over (weight, y), each power fully expanded."""
    bx = params.rate * x
    out = np.zeros_like(x)
    for weight, y in weighted_powers:
        for u, v, c in expanded_power(y, params.int_m):
            out += weight * float(c) * bx**v * np.exp(-u * bx)
    return out


def cdf_best_first_hop(params: NakagamiParams, n_s: int, n_rr: int, x):
    """CDF of the best of n_s*n_rr i.i.d. squared gains, in expanded form.

    Expands (F_X(x))^N with the binomial theorem and the theta coefficients:
        sum_{u=0}^{N} sum_{v=0}^{u(m-1)} C(N,u) (-1)^u theta_v(u) x^v e^{-u m x / O}.
    """
    if n_s < 1 or n_rr < 1:
        raise ValueError("antenna counts must be positive")
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise ValueError("CDF argument must be nonnegative")
    out = np.clip(_expanded_powers(params, x, [(1, n_s * n_rr)]), 0.0, 1.0)
    return float(out) if out.ndim == 0 else out


def pdf_best_first_hop(params: NakagamiParams, n_s: int, n_rr: int, x):
    """PDF of the best first-hop squared gain, expanded form N * f * F^(N-1)."""
    if n_s < 1 or n_rr < 1:
        raise ValueError("antenna counts must be positive")
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise ValueError("PDF argument must be nonnegative")
    n = n_s * n_rr
    out = _expanded_powers(params, x, [(1, n - 1)])
    out *= n * pdf_squared_gain(params, x)
    return float(out) if out.ndim == 0 else out


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


def cdf_majority_user(params: NakagamiParams, k: int, n_u: int, x, expanded: bool = False):
    """CDF of the rank-k user's effective squared gain after majority selection.

    Only the 3-user, two-relay-transmit-antenna case has an analytic table.
    `expanded=True` evaluates the fully expanded finite-sum form instead of
    powers of the single-link CDF; the two agree to 1e-10 relative.
    """
    if k not in (1, 2, 3):
        raise UnsupportedModelError(f"user rank must be in {{1,2,3}}, got {k}")
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise ValueError("CDF argument must be nonnegative")
    etas = [(float(e), q) for q, e in sorted(MAJORITY_RANK_COEFFS[k].items())]
    if not expanded:
        g = cdf_squared_gain(params, x) ** n_u
        out = np.zeros_like(np.asarray(g))
        for e, q in etas:
            out += e * g**q
    else:
        out = _expanded_powers(params, x, [(e, q * n_u) for e, q in etas])
    out = np.clip(out, 0.0, 1.0)
    return float(out) if out.ndim == 0 else out
