"""Monte Carlo kernel: determinism, distributional checks, CI behavior."""

import inspect
import os
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from scipy import special

from ehnoma import (
    InfeasibleConfigError,
    SystemConfig,
    estimate_op,
    op_closed_form,
)
from ehnoma import montecarlo
from ehnoma.montecarlo import (
    BLOCK_SIZE,
    CHUNK_SIZE,
    _block_rng,
    _ci_halfwidth,
    _max_of_iid,
    simulate_block,
)
from oracles import block_counts, ks_distance, majority_gains, outage, row_maxima


def rng(seed):
    return np.random.default_rng(seed)


def ci(est, k):
    """95% confidence interval for user rank k, clipped to [0, 1]."""
    p, h = est.op_hat[k - 1], est.ci_halfwidth[k - 1]
    return max(p - h, 0.0), min(p + h, 1.0)


class TestMaxOfIid:
    @pytest.mark.parametrize("m,n_iid", [(1, 1), (1, 4), (2, 3), (2.5, 2), (3, 2)])
    def test_distribution_matches_power_cdf(self, m, n_iid):
        """The reduced row-maximum sampler must follow F(x)^n exactly."""
        omega = 1.7
        draws = np.sort(_max_of_iid(rng(3), m, omega, n_iid, np.empty(200000)))
        ks = ks_distance(draws, special.gammainc(m, m / omega * draws) ** n_iid)
        assert ks < 0.004  # ~1.3 / sqrt(n) is the 1e-3 rejection line

    @pytest.mark.parametrize("m,n_iid,shape", [
        (2, 1, (3000, 3, 2)), (2, 4, (3000, 3, 2)),
        (3, 2, (3000, 3, 2)), (1.5, 3, (3000, 3, 2)),
        # 72 and 18 doubles a trial: many slices, the last one partial
        (3, 4, (20000, 3, 2)), (1.5, 3, (30000, 3, 2)),
        (2, 3, (20000, 3, 2)), (1.5, 2, (3000, 3, 2)),
    ], ids=["2-1", "2-4", "3-2", "1.5-3", "3-4-slices", "1.5-3-slices",
            "2-3-slices-out", "1.5-2-out"])
    def test_bitwise_equal_to_axis_reductions(self, m, n_iid, shape):
        """The sliced, in-place sum and max give the bits of numpy's
        reductions over the scaled entries of one whole draw from the same
        stream (`oracles.row_maxima`), written into the given `out`."""
        omega = 1.7
        out = np.full(shape, np.nan)
        got = _max_of_iid(rng(5), m, omega, n_iid, out)
        assert got is out
        assert np.array_equal(got, row_maxima(rng(5), m, omega, shape, n_iid))

    @pytest.mark.parametrize("n_iid", [1, 4])
    def test_m1_into_out(self, n_iid):
        """At m = 1 the in-place inversion gives the bits of the expression
        -omega * log1p(-u ** (1 / n_iid)) on the same uniforms
        (`oracles.row_maxima`)."""
        shape, omega = (5000, 3, 2), 1.7
        out = np.empty(shape)
        assert _max_of_iid(rng(5), 1, omega, n_iid, out) is out
        assert np.array_equal(out, row_maxima(rng(5), 1, omega, shape, n_iid))


GOLDEN_CONFIGS = {
    "m1": dict(snr_db=12),
    "m2": dict(snr_db=12, m_sr=2, m_ru=2),
    "m3": dict(snr_db=12, m_sr=3, m_ru=3),
    "m1.5": dict(snr_db=12, m_sr=1.5, m_ru=1.5),
    "n_rt3": dict(snr_db=12, n_rt=3),
    "two_users": dict(snr_db=3, a=(0.7, 0.3), gamma_th=(1.0, 1.0)),
    "n_u3_mixed": dict(snr_db=12, m_sr=1, m_ru=2, n_u=3, xi=0.02),
    "n_rt3_two_users_m2": dict(snr_db=3, n_rt=3, m_sr=2, m_ru=2,
                               a=(0.7, 0.3), gamma_th=(1.0, 1.0)),
}

# (config, seed, block, n, counts) on the SFC64 block streams, each row
# equal to `oracles.block_counts`, which draws the block in one piece and
# reduces with numpy's axis reductions: the per-block stream and the counts
# must not change.  n = 20000 ends in a partial chunk, 5000 is less than one
# chunk and BLOCK_SIZE is a full block.
GOLDEN_COUNTS = [
    ("m1", 2024, 3, 20000, (8662, 6062, 5189)),
    ("m1", 7, 0, 5000, (2117, 1452, 1226)),
    ("m1", 1, 1, BLOCK_SIZE, (113188, 79087, 67414)),
    ("m2", 2024, 3, 20000, (8579, 6391, 5393)),
    ("m2", 7, 0, 5000, (2206, 1624, 1375)),
    ("m2", 1, 1, BLOCK_SIZE, (113136, 84127, 71146)),
    ("m3", 2024, 3, 20000, (9233, 7071, 5993)),
    ("m3", 7, 0, 5000, (2320, 1803, 1505)),
    ("m3", 1, 1, BLOCK_SIZE, (121566, 93485, 79090)),
    ("m1.5", 2024, 3, 20000, (8423, 6134, 5164)),
    ("m1.5", 7, 0, 5000, (2153, 1589, 1359)),
    ("m1.5", 1, 1, BLOCK_SIZE, (111597, 81236, 68857)),
    ("n_rt3", 2024, 3, 20000, (8571, 5965, 5009)),
    ("n_rt3", 7, 0, 5000, (2126, 1421, 1183)),
    ("n_rt3", 1, 1, BLOCK_SIZE, (112665, 77548, 64913)),
    ("two_users", 2024, 3, 20000, (2885, 2848)),
    ("two_users", 7, 0, 5000, (668, 691)),
    ("two_users", 1, 1, BLOCK_SIZE, (37685, 37370)),
    ("n_u3_mixed", 2024, 3, 20000, (6765, 7579, 8349)),
    ("n_u3_mixed", 7, 0, 5000, (1626, 1870, 2054)),
    ("n_u3_mixed", 1, 1, BLOCK_SIZE, (88576, 99777, 109198)),
    ("n_rt3_two_users_m2", 2024, 3, 20000, (1405, 2041)),
    ("n_rt3_two_users_m2", 7, 0, 5000, (345, 527)),
    ("n_rt3_two_users_m2", 1, 1, BLOCK_SIZE, (18570, 27306)),
]
# the golden rows below a full block: drawn in one piece, a full block's
# second-hop entries take up to 72 MiB (m=3)
ONE_PIECE_ROWS = [row[:4] for row in GOLDEN_COUNTS if row[3] < BLOCK_SIZE]


class TestSimulateBlock:
    @pytest.mark.parametrize("name,seed,block,n,counts", GOLDEN_COUNTS,
                             ids=[f"{row[0]}-{row[3]}" for row in GOLDEN_COUNTS])
    def test_golden_counts(self, name, seed, block, n, counts):
        """Same stream per (seed, block), same counts, for every sampler
        route (m = 1, 2, 3, 1.5), the vote tie-break and chunk boundaries
        that do not divide n."""
        assert 20000 % CHUNK_SIZE and 5000 < CHUNK_SIZE
        got = simulate_block(SystemConfig(**GOLDEN_CONFIGS[name]), seed, block, n)
        assert tuple(got.tolist()) == counts

    @pytest.mark.parametrize("name,seed,block,n", ONE_PIECE_ROWS,
                             ids=[f"{row[0]}-{row[3]}" for row in ONE_PIECE_ROWS])
    def test_counts_match_one_piece_reference(self, name, seed, block, n):
        """The chunked, sliced kernel counts exactly what the one-piece
        reference counts on the same block stream."""
        config = SystemConfig(**GOLDEN_CONFIGS[name])
        expected = block_counts(config, _block_rng(seed, block), n)
        assert simulate_block(config, seed, block, n).tolist() == expected.tolist()

    def test_block_counts_binomially_dispersed(self):
        """The counts of 256 blocks of one seed scatter as independent
        binomials: per rank, the dispersion statistic
        sum (c - n p)^2 / (n p (1 - p)), with p the pooled rate, lies inside
        the two-sided 1e-4 quantiles of chi-squared with 255 degrees of
        freedom."""
        n, blocks = 2048, 256
        config = SystemConfig(snr_db=12)
        counts = np.array([simulate_block(config, 11, b, n) for b in range(blocks)])
        p = counts.sum(axis=0) / (n * blocks)
        stat = ((counts - n * p) ** 2).sum(axis=0) / (n * p * (1 - p))
        lo, hi = special.chdtri(blocks - 1, [1 - 5e-5, 5e-5])
        assert ((lo < stat) & (stat < hi)).all(), (stat, lo, hi)

    @pytest.mark.parametrize("kw", [
        dict(), dict(m_sr=2, m_ru=2), dict(m_sr=1.5, m_ru=1.5),
        dict(m_sr=4, m_ru=4, n_u=4, n_s=4, n_rr=4),
    ], ids=["m1", "m2", "m1.5", "m4-n_u4-n_s4-n_rr4"])
    def test_block_memory_is_bounded(self, kw):
        """A full block's traced peak does not grow with m or the antenna
        counts the maxima run over: 2 MiB of first-hop maxima, one draw
        slice and a chunk's arrays (drawing the m=4 row's chunks whole
        peaks at 11.4 MiB)."""
        config = SystemConfig(**kw)
        simulate_block(config, 1, 0, 1000)
        tracemalloc.start()
        try:
            simulate_block(config, 1, 1, BLOCK_SIZE)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * 2**20

    def test_counts_bounded_and_integer(self):
        counts = simulate_block(SystemConfig(), seed=0, block=0, n=5000)
        assert counts.dtype == np.int64
        assert counts.shape == (3,)
        assert all(0 <= c <= 5000 for c in counts)

    def test_deterministic_per_block_key(self):
        a = simulate_block(SystemConfig(), seed=9, block=2, n=4000)
        b = simulate_block(SystemConfig(), seed=9, block=2, n=4000)
        assert (a == b).all()

    def test_blocks_are_independent_streams(self):
        a = simulate_block(SystemConfig(), seed=9, block=0, n=4000)
        b = simulate_block(SystemConfig(), seed=9, block=1, n=4000)
        assert (a != b).any()

    def test_matches_full_matrix_event_rate(self):
        """The sufficient-statistic kernel must agree with the event computed
        from full per-antenna draws (independent sampling route).  The 2-user
        and three-transmit-antenna configs reach the vote tie-break."""
        n = 20000
        for c in (SystemConfig(snr_db=10),
                  SystemConfig(snr_db=10, a=(0.7, 0.3), gamma_th=(1.0, 1.0)),
                  SystemConfig(snr_db=10, n_rt=3)):
            naive = full_matrix_outage_rate(c, n, rng(42))
            fast = simulate_block(c, seed=7, block=0, n=n) / n
            se = np.sqrt(2 * naive * (1 - naive) / n)
            assert (np.abs(fast - naive) < 4 * se).all(), (c, fast, naive)


def full_matrix_outage_rate(c, n, g):
    """Per-rank outage rate of n trials that draw every antenna entry and
    select by the paper's rules, in numpy over all trials at once.

    First hop: the best of all n_s x n_rr gains.  Second hop: majority
    selection (`oracles.majority_gains`).  Users rank by their selected
    gain, weakest first, and rank k is in outage when any stage l <= k has
    SINR below gamma_th_l (`oracles.outage`).
    """
    g_sr = g.gamma(c.m_sr, c.omega_sr / c.m_sr, size=(n, c.n_s * c.n_rr)).max(axis=1)
    ranked = majority_gains(
        g.gamma(c.m_ru, c.omega_ru / c.m_ru, size=(n, c.k_users, c.n_rt, c.n_u)))
    return outage(c, g_sr, ranked).mean(axis=0)


class TestEstimateOp:
    def test_identical_across_worker_counts(self):
        c = SystemConfig()
        trials = 4 * BLOCK_SIZE + 1234  # five blocks, fewer than 16 workers
        one = estimate_op(c, trials, seed=5, workers=1)
        for workers in (2, 16):
            assert estimate_op(c, trials, seed=5, workers=workers) == one

    @pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no CPU affinity")
    def test_default_workers_are_usable_cores(self):
        default = inspect.signature(estimate_op).parameters["workers"].default
        assert default == len(os.sched_getaffinity(0))

    def test_concurrent_calls_match_sequential(self):
        """Two estimates at once, from two threads, each on two workers, give
        their sequential one-worker results: the blocks share no state."""
        runs = [(SystemConfig(snr_db=10), 7), (SystemConfig(snr_db=12, m_sr=2, m_ru=2), 8)]
        trials = BLOCK_SIZE + 3000  # two blocks each
        expected = [estimate_op(c, trials, seed=s, workers=1) for c, s in runs]
        got = [None, None]

        def run(i):
            c, s = runs[i]
            got[i] = estimate_op(c, trials, seed=s, workers=2)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert got == expected

    @pytest.mark.parametrize("blocks,workers,expected", [
        (1, 16, 1), (3, 16, 3), (4, 2, 2), (5, 2, 2), (5, 16, 5),
        (8, 2, 2), (9, 16, 9), (17, 3, 3), (17, 1, 1),
    ])
    def test_pool_size_capped_by_tasks(self, monkeypatch, blocks, workers, expected):
        """Each block is one task: at most one thread per block, on a pool
        also when that is one thread."""
        started = []

        class RecordingPool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", RecordingPool)
        monkeypatch.setattr(montecarlo, "simulate_block",
                            lambda config, seed, block, n: np.zeros(3, dtype=np.int64))
        est = estimate_op(SystemConfig(), blocks * BLOCK_SIZE, workers=workers)
        assert est.trials == blocks * BLOCK_SIZE
        assert started == [expected]

    @pytest.mark.parametrize("workers", [0, -1])
    def test_workers_below_one_rejected(self, workers):
        with pytest.raises(ValueError, match="workers must be >= 1"):
            estimate_op(SystemConfig(), 1000, workers=workers)

    def test_seed_changes_estimate(self):
        c = SystemConfig(snr_db=10)
        a = estimate_op(c, 10000, seed=0)
        b = estimate_op(c, 10000, seed=1)
        assert a.op_hat != b.op_hat

    def test_partial_final_block(self):
        c = SystemConfig(snr_db=5)
        est = estimate_op(c, BLOCK_SIZE + 7, seed=0)
        assert est.trials == BLOCK_SIZE + 7

    def test_agrees_with_closed_form(self):
        c = SystemConfig(snr_db=15)
        est = estimate_op(c, 10**6, seed=11)
        for k in (1, 2, 3):
            lo, hi = ci(est, k)
            width = hi - lo
            # 99.7% interval = 1.53x the reported 95% one
            assert lo - 0.27 * width <= op_closed_form(k, c) <= hi + 0.27 * width

    def test_ci_clipped_to_unit_interval(self):
        c = SystemConfig(snr_db=40)
        est = estimate_op(c, 20000, seed=0)
        lo, hi = ci(est, 3)
        assert 0.0 <= lo <= hi <= 1.0

    def test_rejects_bad_trials(self):
        with pytest.raises(ValueError):
            estimate_op(SystemConfig(), 0)

    def test_rejects_infeasible_config(self):
        with pytest.raises(InfeasibleConfigError):
            estimate_op(SystemConfig(xi=0.1), 1000)


class TestCiHalfwidth:
    def test_normal_regime(self):
        h = _ci_halfwidth(500, 10000)
        assert type(h) is float
        p = 0.05
        assert h == pytest.approx(1.96 * np.sqrt(p * (1 - p) / 10000), rel=1e-12)

    def test_sparse_counts_use_wilson(self):
        # Wilson stays positive even with zero successes
        assert _ci_halfwidth(0, 10000) > 0.0
        assert type(_ci_halfwidth(5, 10000)) is float

    def test_halfwidth_shrinks_with_n(self):
        assert _ci_halfwidth(50, 1000) > _ci_halfwidth(500, 10000)
