"""EH relay signal model: power splitting, SINR, outage thresholds and events."""

from __future__ import annotations

from dataclasses import dataclass, field

from .fading import NakagamiParams
from .selection import ChannelRealization, select


class InfeasibleConfigError(ValueError):
    """A detection stage has a_l - Sigma_l * gamma_th_l <= 0."""

    def __init__(self, stage: int, margin: float):
        self.stage = stage
        self.margin = margin
        super().__init__(
            f"stage l={stage} infeasible: a_l - Sigma_l*gamma_th_l = {margin:.6g} <= 0"
        )


@dataclass(frozen=True)
class SystemConfig:
    """Full scenario: NOMA power split, EH relay parameters, antennas, geometry.

    Power factors `a` must sum to one and be nonincreasing (rank 1 gets the
    most power).  Mean channel gains are derived from the normalized
    geometry: omega_sr = d_sr^-alpha, omega_ru = (1-d_sr)^-alpha.
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
        object.__setattr__(self, "a", tuple(float(v) for v in self.a))
        object.__setattr__(self, "gamma_th", tuple(float(v) for v in self.gamma_th))
        if len(self.a) != len(self.gamma_th) or not self.a:
            raise ValueError("a and gamma_th must be nonempty parallel arrays")
        if abs(sum(self.a) - 1.0) > 1e-12:
            raise ValueError(f"power factors must sum to 1, got {sum(self.a)}")
        if any(x <= 0 for x in self.a) or any(
            self.a[i] < self.a[i + 1] for i in range(len(self.a) - 1)
        ):
            raise ValueError("power factors must be positive and nonincreasing")
        if any(g < 0 for g in self.gamma_th):
            raise ValueError("SINR thresholds must be nonnegative")
        if not 0 <= self.xi <= 1:
            raise ValueError("SIC error factor xi must be in [0, 1]")
        if not 0 < self.w < 1:
            raise ValueError("power-splitting ratio w must be in (0, 1)")
        if not 0 < self.zeta <= 1:
            raise ValueError("energy conversion efficiency zeta must be in (0, 1]")
        if min(self.n_s, self.n_rr, self.n_rt, self.n_u) < 1:
            raise ValueError("antenna counts must be positive")
        if not 0 < self.d_sr < 1:
            raise ValueError("d_sr must be in (0, 1)")
        if self.alpha < 0:
            raise ValueError("path loss exponent must be nonnegative")

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

    @property
    def sr_fading(self) -> NakagamiParams:
        return NakagamiParams(self.m_sr, self.omega_sr)

    @property
    def ru_fading(self) -> NakagamiParams:
        return NakagamiParams(self.m_ru, self.omega_ru)

    def residual_interference(self, l: int) -> float:
        """Sigma_l: imperfect-SIC residue of earlier users plus undetected later users."""
        if not 1 <= l <= self.k_users:
            raise ValueError(f"stage l={l} out of range")
        return self.xi * sum(self.a[: l - 1]) + sum(self.a[l:])

    def stage_margin(self, l: int) -> float:
        """a_l - Sigma_l * gamma_th_l; must be positive for stage l to be decodable."""
        return self.a[l - 1] - self.residual_interference(l) * self.gamma_th[l - 1]

    def check_feasible(self, up_to: int | None = None) -> None:
        """Raise InfeasibleConfigError on the first nonpositive stage margin."""
        for l in range(1, (up_to or self.k_users) + 1):
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


def sinr(l: int, k: int, g_sr: float, g_ru_k: float, config: SystemConfig) -> float:
    """SINR at the rank-k user while detecting the rank-l message.

    gamma * X * Y * a_l / (gamma * X * Y * Sigma_l + c1 * Y + c2), with the
    relay's high-SNR amplification factor sqrt(zeta*w/(1-w)) inside c1 and c2.
    """
    if not 1 <= l <= k <= config.k_users:
        raise ValueError(f"need 1 <= l <= k <= K, got l={l}, k={k}")
    if g_sr < 0 or g_ru_k < 0:
        raise ValueError("gains must be nonnegative")
    if g_sr == 0 or g_ru_k == 0:
        return 0.0
    gam = config.snr_linear
    num = gam * g_sr * g_ru_k * config.a[l - 1]
    den = (gam * g_sr * g_ru_k * config.residual_interference(l)
           + config.c1 * g_ru_k + config.c2)
    return num / den


def tau_star(k: int, config: SystemConfig) -> float:
    """Effective first-hop gain threshold for the rank-k user.

    max over stages l <= k of gamma_th_l * c1 / (gamma * (a_l - Sigma_l*gamma_th_l)).
    The c1 factor belongs in the threshold: with it, the pair of events
    {g_ru < tau*c2/(c1*(g_sr - tau))} and {g_sr <= tau} is exactly the union
    over l <= k of {sinr(l, k) < gamma_th_l}.
    """
    config.check_feasible(up_to=k)
    gam = config.snr_linear
    vals = []
    for l in range(1, k + 1):
        vals.append(config.gamma_th[l - 1] * config.c1 / (gam * config.stage_margin(l)))
    return max(vals)


def outage_event(k: int, realization: ChannelRealization, config: SystemConfig) -> bool:
    """True iff the rank-k user fails any of its detection stages."""
    outcome = select(realization)
    g_ru_k = outcome.ranked_gains[k - 1]
    return any(
        sinr(l, k, outcome.g_sr, g_ru_k, config) < config.gamma_th[l - 1]
        for l in range(1, k + 1)
    )
