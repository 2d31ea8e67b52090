"""Reproducible Monte Carlo estimation of per-user outage probability.

Trials are partitioned into fixed-size blocks; block i always draws from a
generator keyed by (seed, i), so the estimate is bit-identical for any
worker count and any scheduling order.  Within a block the channel draws are
reduced to the sufficient statistics of the selection procedure (per-row
maxima), which has exactly the same joint law as drawing every antenna entry.

A block draws the first-hop maxima of all its trials, then the second-hop
maxima and outage events; both passes go chunk by chunk of CHUNK_SIZE
trials, so each stage's arrays stay in cache.  A numpy Generator consumes
its stream in sequence, and chunked draws of a C-order array take the same
numbers as one draw of the whole array: the block's stream, and so its
counts, do not depend on the chunk size.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .link import SystemConfig

BLOCK_SIZE = 1 << 18
# trials per chunk within a block (see the module docstring)
CHUNK_SIZE = 1 << 13
# blocks handed to a pool worker at a time
_JOBS_PER_TASK = 4
# two-sided 95% standard normal quantile
_Z_95 = 1.96


@dataclass(frozen=True)
class McEstimate:
    op_hat: tuple          # per user rank
    trials: int
    ci_halfwidth: tuple    # 95% half-widths
    seed: int


def _block_rng(seed: int, block: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, block))))


def _max_of_iid(rng, m: float, omega: float, n_iid: int, shape) -> np.ndarray:
    """Maximum of n_iid squared gains, drawn via its own distribution.

    For m = 1 the maximum is sampled by CDF inversion from a single uniform;
    for integer m the entries are Erlang sums of exponentials; otherwise the
    gamma sampler is used directly.  All routes are exact.

    The Erlang sum and the maximum run elementwise over the slices of their
    short trailing axes, since numpy's reductions over an axis of length 2 or
    3 cost more than the draws.  The terms are added left to right, the order
    numpy's sum takes below eight terms, and omega/m scales the maximum once
    instead of every entry: rounding is monotone, so the result is bitwise
    the same.
    """
    if m == 1:
        u = rng.random(shape)
        return -omega * np.log1p(-np.power(u, 1.0 / n_iid))
    full = shape + (n_iid,)
    if float(m).is_integer():
        terms = rng.standard_exponential(full + (int(m),))
        draws = terms[..., 0] + terms[..., 1]
        for t in range(2, int(m)):
            draws += terms[..., t]
    else:
        draws = rng.standard_gamma(m, size=full)
    best = draws[..., 0]
    for i in range(1, n_iid):
        best = np.maximum(best, draws[..., i])
    return best * (omega / m)


def _chunks(n: int):
    for lo in range(0, n, CHUNK_SIZE):
        yield lo, min(lo + CHUNK_SIZE, n)


def _first_max(values) -> tuple:
    """Elementwise (max, lowest index of the max) over a list of arrays."""
    best, arg = values[0], np.zeros(len(values[0]), dtype=np.intp)
    for j in range(1, len(values)):
        arg = np.where(values[j] > best, j, arg)
        best = np.maximum(best, values[j])
    return best, arg


def _selected_gains(rowmax: np.ndarray) -> list:
    """Each user's gain at the relay antenna the majority vote picks, ascending.

    rowmax[:, k, j] is user k's best gain from relay antenna j.  Each user
    votes for its best antenna; the most votes win, and a tie goes to the
    largest sum of the voting users' optimal gains, then the lowest index.
    """
    k_users, n_rt = rowmax.shape[1:]
    gains = [[rowmax[:, k, j] for j in range(n_rt)] for k in range(k_users)]
    gmax, votes = zip(*(_first_max(g) for g in gains))
    counts = [sum((v == j).astype(np.intp) for v in votes) for j in range(n_rt)]
    best, i_r = _first_max(counts)
    tied = sum((c == best).astype(np.intp) for c in counts) > 1
    if tied.any():
        score = [np.where(counts[j] == best,
                          sum(np.where(v == j, g, 0.0) for v, g in zip(votes, gmax)),
                          -1.0)
                 for j in range(n_rt)]
        i_r = np.where(tied, _first_max(score)[1], i_r)
    picked = []
    for g in gains:
        sel = g[0]
        for j in range(1, n_rt):
            sel = np.where(i_r == j, g[j], sel)
        picked.append(sel)
    # sorting network of compare-exchanges, ascending
    for top in range(k_users - 1, 0, -1):
        for j in range(top):
            lo, hi = picked[j], picked[j + 1]
            picked[j], picked[j + 1] = np.minimum(lo, hi), np.maximum(lo, hi)
    return picked


def simulate_block(config: SystemConfig, seed: int, block: int, n: int) -> np.ndarray:
    """Outage counts per user rank for one block of n trials."""
    rng = _block_rng(seed, block)
    k_users, n_rt = config.k_users, config.n_rt
    stages = [(config.a[l - 1], config.residual_interference(l), config.gamma_th[l - 1])
              for l in range(1, k_users + 1)]
    c1, c2 = config.c1, config.c2

    g_sr = np.empty(n)
    for lo, hi in _chunks(n):
        g_sr[lo:hi] = _max_of_iid(rng, config.m_sr, config.omega_sr,
                                  config.n_s * config.n_rr, (hi - lo,))
    out = np.zeros(k_users, dtype=np.int64)
    for lo, hi in _chunks(n):
        rowmax = _max_of_iid(rng, config.m_ru, config.omega_ru,
                             config.n_u, (hi - lo, k_users, n_rt))
        x = config.snr_linear * g_sr[lo:hi]
        for k, y in enumerate(_selected_gains(rowmax)):
            xy = x * y
            bad = np.zeros(hi - lo, dtype=bool)
            for a_l, s, th in stages[:k + 1]:
                bad |= xy * a_l < th * (xy * s + c1 * y + c2)
            out[k] += np.count_nonzero(bad)
    return out


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
    # a worker beyond one per task of _JOBS_PER_TASK blocks would sit idle
    workers = min(workers, -(-len(jobs) // _JOBS_PER_TASK))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_block_job, jobs, chunksize=_JOBS_PER_TASK))
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
        return z * math.sqrt(p * (1.0 - p) / n)
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    spread = z * math.sqrt(p * (1.0 - p) / n + z * z / (4 * n * n)) / denom
    lo, hi = center - spread, center + spread
    return (hi - lo) / 2.0
