"""Reproducible Monte Carlo estimation of per-user outage probability.

Trials are partitioned into fixed-size blocks; block i always draws from an
SFC64 generator seeded by SeedSequence((seed, i)), so the estimate is
bit-identical for any worker count and any scheduling order.  Within a
block the channel draws are reduced to the sufficient statistics of the
selection procedure (per-row maxima), which has exactly the same joint law
as drawing every antenna entry.

A block draws the first-hop maxima of all its trials in one call, then
the second-hop maxima and outage events chunk by chunk of CHUNK_SIZE
trials, so each stage's arrays stay in cache.  Antenna entries are drawn
in slices of at most SLICE_SIZE doubles, reduced in place and their maxima
written into arrays made once per block, so a block's memory does not
grow with m or with the antenna counts its maxima run over (n_s, n_rr and
n_u): about 4 MiB at BLOCK_SIZE, half of it the first-hop maxima.
A numpy Generator consumes its stream in sequence, and draws of a C-order
array in pieces take the same numbers as one draw of the whole array: the
block's stream, and so its counts, depend on neither the chunk nor the
slice size.

Blocks run on a thread pool, one thread per block at most and by default
one per core the process may use.  The draws and the numpy ufuncs that
make up a block release the GIL, and blocks share no mutable state, so
threads overlap like processes without starting any or copying their
results.  The majority vote works on one (n_rt, K, n) copy of a chunk's row
maxima, each step one array operation over all users; it only compares and
selects, so its gains are exact.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np

from .link import SystemConfig

BLOCK_SIZE = 1 << 18
# trials per chunk within a block (see the module docstring)
CHUNK_SIZE = 1 << 13
# doubles per draw within a chunk (see the module docstring)
SLICE_SIZE = 1 << 16
# two-sided 95% standard normal quantile
_Z_95 = 1.96
# estimate_op's default thread count: the cores this process may run on
_CORES = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
          else os.cpu_count() or 1)


@dataclass(frozen=True)
class McEstimate:
    op_hat: tuple          # per user rank
    trials: int
    ci_halfwidth: tuple    # 95% half-widths
    seed: int


def _block_rng(seed: int, block: int) -> np.random.Generator:
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence((seed, block))))


def _max_of_iid(rng, m: float, omega: float, n_iid: int, out: np.ndarray) -> np.ndarray:
    """Maximum of n_iid squared gains, drawn via its own distribution, into
    each entry of `out`, which is returned.

    For m = 1 the maximum is sampled by CDF inversion from a single uniform,
    drawn straight into `out`; for integer m the entries are Erlang sums of
    exponentials; otherwise the gamma sampler is used directly.  All routes
    are exact.

    The other routes draw their entries in slices of at most SLICE_SIZE
    doubles along the first axis, which in C order take the same numbers as
    one draw of the whole array.  In each slice the Erlang terms are added
    into their first slot, left to right (the order numpy's sum takes below
    eight terms), and the maximum is taken into the first entry's slot, one
    entry at a time: numpy's reductions over an axis of length 2 or 3 cost
    more than the draws.  omega/m scales the maximum once, into `out`,
    instead of every entry: rounding is monotone, so the result is bitwise
    the same.
    """
    if m == 1:
        rng.random(out=out)
        np.power(out, 1.0 / n_iid, out=out)
        np.negative(out, out=out)
        np.log1p(out, out=out)
        return np.multiply(out, -omega, out=out)
    erlang = float(m).is_integer()
    tail = (*out.shape[1:], n_iid) + ((int(m),) if erlang else ())
    step = max(1, SLICE_SIZE // math.prod(tail))
    for lo in range(0, len(out), step):
        size = (min(step, len(out) - lo), *tail)
        if erlang:
            draws = rng.standard_exponential(size)
            for t in range(1, int(m)):
                draws[..., 0] += draws[..., t]
            draws = draws[..., 0]
        else:
            draws = rng.standard_gamma(m, size=size)
        best = draws[..., 0]
        for i in range(1, n_iid):
            np.maximum(best, draws[..., i], out=best)
        np.multiply(best, omega / m, out=out[lo:lo + size[0]])
    return out


def _first_max(values, index):
    """Elementwise (max, lowest index of the max) over the first axis of
    values; the index has dtype `index`."""
    best, arg = values[0], np.zeros(values[0].shape, dtype=index)
    for j in range(1, len(values)):
        # j exceeds every earlier index, so the max sets it where values[j] is larger
        np.maximum(arg, (values[j] > best) * index.type(j), out=arg)
        best = np.maximum(best, values[j])
    return best, arg


def _selected_gains(rowmax: np.ndarray) -> np.ndarray:
    """Each user's gain at the relay antenna the majority vote picks, ascending.

    rowmax[t, k, j] is user k's best gain from relay antenna j in trial t.
    Each user votes for its best antenna; the most votes win, and a tie goes
    to the largest sum of the voting users' optimal gains, then the lowest
    index.  Returns a (K, n) array whose column t holds trial t's selected
    gains in ascending order.  Every step compares or selects, so the gains
    are rowmax's own bits.
    """
    n_rt = rowmax.shape[2]
    index = np.min_scalar_type(max(rowmax.shape[1:]))  # holds any index or count
    g = np.array(rowmax.transpose(2, 1, 0), order="C")  # (n_rt, K, n), a copy
    gmax, vote = _first_max(g, index)
    counts = [(vote == j).sum(axis=0, dtype=index) for j in range(n_rt)]
    best, i_r = _first_max(counts, index)
    tied = np.flatnonzero(sum(c == best for c in counts) > 1)
    if len(tied):
        voters, gains = vote[:, tied], gmax[:, tied]
        score = [np.where(c[tied] == best[tied],
                          sum((v == j) * g_k for v, g_k in zip(voters, gains)), -1.0)
                 for j, c in enumerate(counts)]
        i_r[tied] = _first_max(score, index)[1]
    sel = g[0]
    for j in range(1, n_rt):
        sel = np.where(i_r == j, g[j], sel)
    # sorting network of compare-exchanges, ascending: np.sort(sel, axis=0) made this function
    # 782 us per 8,192-trial chunk at K=3, n_rt=2, not 359 (2-core Xeon, medians of 15 rounds)
    for top in range(len(sel) - 1, 0, -1):
        for j in range(top):
            lo = np.minimum(sel[j], sel[j + 1])
            np.maximum(sel[j], sel[j + 1], out=sel[j + 1])
            sel[j] = lo
    return sel


def simulate_block(config: SystemConfig, seed: int, block: int, n: int) -> np.ndarray:
    """Outage counts per user rank for one block of n trials."""
    rng = _block_rng(seed, block)
    k_users, n_rt = config.k_users, config.n_rt
    c1, c2 = config.c1, config.c2

    g_sr = _max_of_iid(rng, config.m_sr, config.omega_sr, config.n_s * config.n_rr,
                       np.empty(n))
    rowmax = np.empty((min(n, CHUNK_SIZE), k_users, n_rt))
    out = np.zeros(k_users, dtype=np.int64)
    for lo in range(0, n, CHUNK_SIZE):
        hi = min(lo + CHUNK_SIZE, n)
        rows = _max_of_iid(rng, config.m_ru, config.omega_ru, config.n_u, rowmax[:hi - lo])
        y = _selected_gains(rows)  # (K, n), rank k in row k - 1
        xy = config.snr_linear * g_sr[lo:hi] * y
        c1y = c1 * y
        # rank k is in outage when any stage l <= k fails, so stage l
        # tests the rows of ranks l and up
        bad = np.zeros(y.shape, dtype=bool)
        for l, (a_l, s, th, _) in enumerate(config.stages):
            bad[l:] |= xy[l:] * a_l < th * (xy[l:] * s + c1y[l:] + c2)
        out += np.count_nonzero(bad, axis=1)
    return out


def estimate_op(config: SystemConfig, trials: int, seed: int = 0,
                workers: int = _CORES) -> McEstimate:
    """Monte Carlo outage estimate with 95% confidence intervals.

    The blocks run on a pool of `workers` threads, one per block at most;
    the default is one per core the process may use, read at import.
    Bit-identical output for identical (config, trials, seed) regardless of
    worker count.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if seed < 0:
        raise ValueError("seed must be >= 0")
    config.check_feasible()
    sizes = [min(BLOCK_SIZE, trials - lo) for lo in range(0, trials, BLOCK_SIZE)]
    run = partial(simulate_block, config, seed)
    with ThreadPoolExecutor(max_workers=min(workers, len(sizes))) as pool:
        parts = list(pool.map(run, range(len(sizes)), sizes))
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
