"""EH relay signal model: power splitting, SINR and outage thresholds.

It also holds the package's error types, so that the CLI can map each to its
exit code without importing the analytic engine.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass


class InfeasibleConfigError(ValueError):
    """A detection stage has a_l - Sigma_l * gamma_th_l <= 0."""

    def __init__(self, stage: int, margin: float):
        self.stage = stage
        self.margin = margin
        super().__init__(
            f"stage l={stage} infeasible: a_l - Sigma_l*gamma_th_l = {margin:.6g} <= 0"
        )


class UnsupportedModelError(ValueError):
    """Raised when an analytic operation is asked for outside its closed-form scope."""


class UnresolvedNumericsError(ArithmeticError):
    """An analytic OP its numerics cannot resolve to analysis._REL_TOL.

    The closed form raises it when its sum stays below its own rounding noise
    at every precision it may use and that noise does not show the OP to
    round to 0, the quadrature when its error estimate exceeds _REL_TOL times
    the OP.
    """


class SearchError(RuntimeError):
    """The bracket of a root search does not straddle its target."""


@dataclass(frozen=True)
class SystemConfig:
    """Full scenario: NOMA power split, EH relay parameters, antennas, geometry.

    Power factors `a` must sum to one and be nonincreasing (rank 1 gets the
    most power).  Mean channel gains are derived from the normalized
    geometry: omega_sr = d_sr^-alpha, omega_ru = (1-d_sr)^-alpha.  Every
    float must be finite, and so must the linear SNR and both mean gains,
    which must also be > 0.  The Nakagami figures m_sr and m_ru must be
    >= 0.5; the closed form also needs them integer.  The antenna counts
    must be positive integers, of any integer type, and are stored as int.
    """

    a: tuple = (0.6, 0.3, 0.1)
    gamma_th: tuple = (1.4, 2.2, 2.5)
    xi: float = 0.0
    w: float = 0.5
    zeta: float = 0.8
    snr_db: float = 20.0
    n_s: int = 2
    n_rr: int = 2
    n_rt: int = 2
    n_u: int = 2
    d_sr: float = 0.5
    alpha: float = 2.0
    m_sr: float = 1
    m_ru: float = 1

    def __post_init__(self):
        object.__setattr__(self, "a", tuple(map(float, self.a)))
        object.__setattr__(self, "gamma_th", tuple(map(float, self.gamma_th)))
        a, gamma_th = self.a, self.gamma_th
        if len(a) != len(gamma_th) or not a:
            raise ValueError("a and gamma_th must be nonempty parallel arrays")
        if not all(map(math.isfinite, (*a, *gamma_th, self.xi, self.w, self.zeta,
                                       self.snr_db, self.d_sr, self.alpha, self.m_sr,
                                       self.m_ru))):
            for name in ("a", "gamma_th", "xi", "w", "zeta", "snr_db", "d_sr", "alpha",
                         "m_sr", "m_ru"):
                value = getattr(self, name)
                for v in value if isinstance(value, tuple) else (value,):
                    if not math.isfinite(v):
                        raise ValueError(f"{name} must be finite, got {value}")
        if abs(sum(a) - 1.0) > 1e-12:
            raise ValueError(f"power factors must sum to 1, got {sum(a)}")
        if min(a) <= 0 or any(map(operator.lt, a, a[1:])):
            raise ValueError("power factors must be positive and nonincreasing")
        if min(gamma_th) < 0:
            raise ValueError("SINR thresholds must be nonnegative")
        if not 0 <= self.xi <= 1:
            raise ValueError("SIC error factor xi must be in [0, 1]")
        if not 0 < self.w < 1:
            raise ValueError("power-splitting ratio w must be in (0, 1)")
        if not 0 < self.zeta <= 1:
            raise ValueError("energy conversion efficiency zeta must be in (0, 1]")
        for name in ("n_s", "n_rr", "n_rt", "n_u"):
            try:  # as a Python int, from any integer type
                object.__setattr__(self, name, operator.index(getattr(self, name)))
            except TypeError:
                raise ValueError(f"antenna count {name} must be an integer, "
                                 f"got {getattr(self, name)!r}") from None
        if min(self.n_s, self.n_rr, self.n_rt, self.n_u) < 1:
            raise ValueError("antenna counts must be positive")
        if not 0 < self.d_sr < 1:
            raise ValueError("d_sr must be in (0, 1)")
        if self.alpha < 0:
            raise ValueError("path loss exponent must be nonnegative")
        for name in ("m_sr", "m_ru"):
            if getattr(self, name) < 0.5:
                raise ValueError(f"Nakagami {name} must be finite and >= 0.5, "
                                 f"got {getattr(self, name)}")
        try:
            derived = (self.snr_linear, self.omega_sr, self.omega_ru)
        except OverflowError:
            derived = (math.inf,)
        if not all(0 < v < math.inf for v in derived):
            raise ValueError(
                f"snr_db={self.snr_db}, d_sr={self.d_sr} and alpha={self.alpha} give a "
                "linear SNR or mean channel gain that is not a finite double > 0")

    @property
    def k_users(self) -> int:
        return len(self.a)

    @property
    def snr_linear(self) -> float:
        return 10.0 ** (self.snr_db / 10.0)

    @property
    def c1(self) -> float:
        return 1.0 / (1.0 - self.w)

    @property
    def c2(self) -> float:
        return 1.0 / (self.zeta * self.w)

    @property
    def omega_sr(self) -> float:
        return self.d_sr**-self.alpha

    @property
    def omega_ru(self) -> float:
        return (1.0 - self.d_sr) ** -self.alpha

    def residual_interference(self, l: int) -> float:
        """Sigma_l: imperfect-SIC residue of earlier users plus undetected later users."""
        if not 1 <= l <= self.k_users:
            raise ValueError(f"stage l={l} out of range")
        return self.xi * sum(self.a[: l - 1]) + sum(self.a[l:])

    def stage_margin(self, l: int) -> float:
        """a_l - Sigma_l * gamma_th_l; must be positive for stage l to be decodable."""
        return self.a[l - 1] - self.residual_interference(l) * self.gamma_th[l - 1]

    def check_feasible(self) -> None:
        """Raise InfeasibleConfigError on the first nonpositive stage margin."""
        for l in range(1, self.k_users + 1):
            m = self.stage_margin(l)
            if m <= 0:
                raise InfeasibleConfigError(l, m)

    @property
    def feasible(self) -> bool:
        try:
            self.check_feasible()
        except InfeasibleConfigError:
            return False
        return True


def tau_star(k: int, config: SystemConfig) -> float:
    """Effective first-hop gain threshold for the rank-k user.

    max over stages l <= k of gamma_th_l * c1 / (gamma * (a_l - Sigma_l*gamma_th_l)).
    With first-hop gain g_sr and second-hop gain g_ru, the rank-k user detects
    the rank-l message at SINR
        gamma * g_sr * g_ru * a_l / (gamma * g_sr * g_ru * Sigma_l + c1 * g_ru + c2),
    the relay's high-SNR amplification factor sqrt(zeta*w/(1-w)) being inside
    c1 and c2.  The c1 factor belongs in the threshold: with it, the pair of
    events {g_ru < tau*c2/(c1*(g_sr - tau))} and {g_sr <= tau} is exactly the
    union over l <= k of {SINR_l < gamma_th_l}.  Only stages l <= k need be
    decodable; the first that is not raises InfeasibleConfigError.
    """
    if not 1 <= k <= config.k_users:
        raise ValueError(f"need 1 <= k <= K, got k={k} with K={config.k_users}")
    gam, c1 = config.snr_linear, config.c1
    a, gamma_th, xi = config.a, config.gamma_th, config.xi
    vals = []
    for l in range(1, k + 1):
        # config.stage_margin(l), inline: the method call made a rank-3
        # tau* 5.0 us in place of 4.0 on a 2-core Xeon, and each search
        # probe and w-grid point finds one
        margin = a[l - 1] - (xi * sum(a[: l - 1]) + sum(a[l:])) * gamma_th[l - 1]
        if margin <= 0:
            raise InfeasibleConfigError(l, margin)
        vals.append(gamma_th[l - 1] * c1 / (gam * margin))
    return max(vals)
