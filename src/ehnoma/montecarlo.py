"""Reproducible Monte Carlo estimation of per-user outage probability.

Trials are partitioned into fixed-size blocks; block i always draws from a
generator keyed by (seed, i), so the estimate is bit-identical for any
worker count and any scheduling order.  Within a block the channel draws are
reduced to the sufficient statistics of the selection procedure (per-row
maxima), which has exactly the same joint law as drawing every antenna entry.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .fading import sample_squared_gain
from .link import SystemConfig
from .selection import ChannelRealization

BLOCK_SIZE = 1 << 18
# two-sided 95% standard normal quantile
_Z_95 = 1.96


@dataclass(frozen=True)
class McEstimate:
    op_hat: tuple          # per user rank
    trials: int
    ci_halfwidth: tuple    # 95% half-widths
    seed: int

    def ci(self, k: int) -> tuple:
        """95% confidence interval for user rank k."""
        p, h = self.op_hat[k - 1], self.ci_halfwidth[k - 1]
        return max(p - h, 0.0), min(p + h, 1.0)


def sample_realization(config: SystemConfig, rng: np.random.Generator) -> ChannelRealization:
    """Draw one full channel realization (every antenna entry)."""
    first = sample_squared_gain(config.sr_fading, rng, size=(config.n_s, config.n_rr))
    second = sample_squared_gain(
        config.ru_fading, rng, size=(config.k_users, config.n_rt, config.n_u)
    )
    return ChannelRealization(first_hop=first, second_hop=second)


def _block_rng(seed: int, block: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, block))))


def _max_of_iid(rng, m: float, omega: float, n_iid: int, shape) -> np.ndarray:
    """Maximum of n_iid squared gains, drawn via its own distribution.

    For m = 1 the maximum is sampled by CDF inversion from a single uniform;
    for integer m the entries are Erlang sums of exponentials; otherwise the
    gamma sampler is used directly.  All routes are exact.
    """
    if m == 1:
        u = rng.random(shape)
        return -omega * np.log1p(-np.power(u, 1.0 / n_iid))
    full = shape + (n_iid,)
    if float(m).is_integer():
        draws = rng.standard_exponential(full + (int(m),)).sum(axis=-1) * (omega / m)
    else:
        draws = rng.standard_gamma(m, size=full) * (omega / m)
    return draws.max(axis=-1)


def simulate_block(config: SystemConfig, seed: int, block: int, n: int) -> np.ndarray:
    """Outage counts per user rank for one block of n trials."""
    rng = _block_rng(seed, block)
    k_users, n_rt = config.k_users, config.n_rt

    g_sr = _max_of_iid(rng, config.m_sr, config.omega_sr,
                       config.n_s * config.n_rr, (n,))
    rowmax = _max_of_iid(rng, config.m_ru, config.omega_ru,
                         config.n_u, (n, k_users, n_rt))

    votes = rowmax.argmax(axis=2)
    voted = votes[:, :, None] == np.arange(n_rt)
    counts = voted.sum(axis=1)
    i_r = counts.argmax(axis=1)
    best = counts.max(axis=1, keepdims=True)
    tied = (counts == best).sum(axis=1) > 1
    if tied.any():
        # tie-break: largest sum of the voting users' optimal gains, then lowest index
        weight = (voted * rowmax.max(axis=2)[:, :, None]).sum(axis=1)
        score = np.where(counts == best, weight, -1.0)
        i_r = np.where(tied, score.argmax(axis=1), i_r)
    g_ru = np.take_along_axis(rowmax, i_r[:, None, None], axis=2)[:, :, 0]
    g_ru.sort(axis=1)

    gam = config.snr_linear
    c2 = config.c2
    out = np.zeros((n, k_users), dtype=bool)
    for k in range(1, k_users + 1):
        y = g_ru[:, k - 1]
        xy = gam * g_sr * y
        bad = np.zeros(n, dtype=bool)
        for l in range(1, k + 1):
            s = config.residual_interference(l)
            val = xy * config.a[l - 1]
            den = xy * s + config.c1 * y + c2
            bad |= val < config.gamma_th[l - 1] * den
        out[:, k - 1] = bad
    return out.sum(axis=0).astype(np.int64)


def _block_job(args):
    return simulate_block(*args)


def estimate_op(config: SystemConfig, trials: int, seed: int = 0,
                workers: int = 1) -> McEstimate:
    """Monte Carlo outage estimate with 95% confidence intervals.

    Bit-identical output for identical (config, trials, seed) regardless of
    worker count.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    config.check_feasible()
    jobs = []
    lo = 0
    block = 0
    while lo < trials:
        n = min(BLOCK_SIZE, trials - lo)
        jobs.append((config, seed, block, n))
        lo += n
        block += 1
    if workers > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_block_job, jobs, chunksize=4))
    else:
        parts = [simulate_block(*j) for j in jobs]
    counts = np.sum(parts, axis=0)
    op_hat = counts / trials
    halfwidths = tuple(_ci_halfwidth(int(c), trials) for c in counts)
    return McEstimate(
        op_hat=tuple(float(p) for p in op_hat),
        trials=trials,
        ci_halfwidth=halfwidths,
        seed=seed,
    )


def _ci_halfwidth(successes: int, n: int) -> float:
    """Normal-approximation half-width; Wilson bounds when counts are sparse."""
    z = _Z_95
    p = successes / n
    if min(successes, n - successes) >= 30:
        return z * np.sqrt(p * (1.0 - p) / n)
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    spread = z * np.sqrt(p * (1.0 - p) / n + z * z / (4 * n * n)) / denom
    lo, hi = center - spread, center + spread
    return float((hi - lo) / 2.0)
