"""Monte Carlo kernel: determinism, distributional checks, CI behavior."""

import numpy as np
import pytest

from ehnoma import (
    InfeasibleConfigError,
    NakagamiParams,
    SystemConfig,
    cdf_squared_gain,
    estimate_op,
    op_closed_form,
    outage_event,
    sample_realization,
)
from ehnoma.montecarlo import (
    BLOCK_SIZE,
    _ci_halfwidth,
    _max_of_iid,
    simulate_block,
)


def rng(seed):
    return np.random.default_rng(seed)


class TestSampleRealization:
    def test_shapes_follow_config(self):
        c = SystemConfig(n_s=3, n_rr=2, n_rt=2, n_u=4)
        r = sample_realization(c, rng(0))
        assert r.first_hop.shape == (3, 2)
        assert r.second_hop.shape == (3, 2, 4)

    def test_mean_gains_match_geometry(self):
        c = SystemConfig(d_sr=0.3)
        g = rng(1)
        fh = np.mean([sample_realization(c, g).first_hop.mean() for _ in range(4000)])
        assert fh == pytest.approx(c.omega_sr, rel=0.02)


class TestMaxOfIid:
    @pytest.mark.parametrize("m,n_iid", [(1, 1), (1, 4), (2, 3), (2.5, 2)])
    def test_distribution_matches_power_cdf(self, m, n_iid):
        """The reduced row-maximum sampler must follow F(x)^n exactly."""
        omega = 1.7
        draws = np.sort(_max_of_iid(rng(3), m, omega, n_iid, (200000,)))
        p = NakagamiParams(m, omega)
        f = cdf_squared_gain(p, draws) ** n_iid
        n = len(draws)
        ks = max(
            np.abs(np.arange(1, n + 1) / n - f).max(),
            np.abs(f - np.arange(n) / n).max(),
        )
        assert ks < 0.004  # ~1.3 / sqrt(n) is the 1e-3 rejection line


class TestSimulateBlock:
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
            g = rng(42)
            naive = np.zeros(c.k_users)
            for _ in range(n):
                r = sample_realization(c, g)
                for k in range(1, c.k_users + 1):
                    naive[k - 1] += outage_event(k, r, c)
            naive /= n
            fast = simulate_block(c, seed=7, block=0, n=n) / n
            se = np.sqrt(2 * naive * (1 - naive) / n)
            assert (np.abs(fast - naive) < 4 * se).all(), (c, fast, naive)


class TestEstimateOp:
    def test_identical_across_worker_counts(self):
        c = SystemConfig()
        trials = 2 * BLOCK_SIZE + 1234
        one = estimate_op(c, trials, seed=5, workers=1)
        two = estimate_op(c, trials, seed=5, workers=2)
        assert one == two

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
            lo, hi = est.ci(k)
            width = hi - lo
            # 99.7% interval = 1.53x the reported 95% one
            assert lo - 0.27 * width <= op_closed_form(k, c) <= hi + 0.27 * width

    def test_ci_clipped_to_unit_interval(self):
        c = SystemConfig(snr_db=40)
        est = estimate_op(c, 20000, seed=0)
        lo, hi = est.ci(3)
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
        p = 0.05
        assert h == pytest.approx(1.96 * np.sqrt(p * (1 - p) / 10000), rel=1e-12)

    def test_sparse_counts_use_wilson(self):
        # Wilson stays positive even with zero successes
        assert _ci_halfwidth(0, 10000) > 0.0

    def test_halfwidth_shrinks_with_n(self):
        assert _ci_halfwidth(50, 1000) > _ci_halfwidth(500, 10000)
