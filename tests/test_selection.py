"""Majority antenna selection in the Monte Carlo kernel: hand-worked examples
and invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ehnoma.montecarlo import _selected_gains
from oracles import majority_gains


def rng(seed):
    return np.random.default_rng(seed)


def ranked(h):
    """The kernel's selected gains, ascending, for one second-hop draw
    h[k, i, j] (user k, relay transmit antenna i, user antenna j)."""
    return [float(g[0]) for g in _selected_gains(np.asarray(h).max(axis=-1)[None])]


class TestJtrasMaj:
    def test_two_to_one_vote(self):
        # users 0 and 2 vote row 1, user 1 votes row 0
        h = np.array([
            [[0.1, 0.2], [0.9, 0.3]],
            [[0.8, 0.1], [0.2, 0.3]],
            [[0.4, 0.1], [0.5, 0.6]],
        ])
        assert ranked(h) == [0.3, 0.6, 0.9]

    def test_unanimous_vote(self):
        h = np.array([
            [[0.9, 0.2], [0.1, 0.3]],
            [[0.8, 0.1], [0.2, 0.3]],
            [[0.4, 0.7], [0.5, 0.6]],
        ])
        assert ranked(h) == [0.7, 0.8, 0.9]

    def test_dissenter_can_lose_gain(self):
        # the outvoted user 1 is forced off its best row and ranks weakest
        h = np.array([
            [[0.1, 0.2], [0.9, 0.3]],
            [[0.8, 0.1], [0.2, 0.3]],
            [[0.4, 0.1], [0.5, 0.6]],
        ])
        assert ranked(h)[0] == 0.3 < h[1].max()

    def test_vote_tie_breaks_by_voter_gain_sum(self):
        # 2 users over 2 rows, one vote each; row 1's voter has the larger
        # gain, so row 1 serves both (row 0 would give [0.2, 0.5])
        h = np.array([
            [[0.5, 0.1], [0.2, 0.3]],
            [[0.1, 0.2], [0.9, 0.4]],
        ])
        assert ranked(h) == [0.3, 0.9]

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=100, deadline=None)
    def test_majority_row_wins_vote(self, seed):
        h = rng(seed).random((3, 2, 4))
        votes = [int(np.argmax(h[u].max(axis=1))) for u in range(3)]
        i_r = max((0, 1), key=votes.count)
        assert votes.count(i_r) >= 2
        assert ranked(h) == sorted(h[:, i_r].max(axis=1).tolist())


class TestSelect:
    def test_end_to_end_hand_example(self):
        sh = np.array([
            [[0.1, 0.2], [0.9, 0.3]],
            [[0.8, 0.1], [0.2, 0.3]],
            [[0.4, 0.1], [0.5, 0.6]],
        ])
        assert ranked(sh) == [0.3, 0.6, 0.9]

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=50, deadline=None)
    def test_ranked_gains_sorted(self, seed):
        h = rng(seed).random((3, 2, 2))
        rg = ranked(h)
        assert all(a <= b for a, b in zip(rg, rg[1:]))
        assert any(rg == sorted(h[:, i].max(axis=1).tolist()) for i in range(2))


@pytest.mark.parametrize("k_users,n_rt,n_u", [(3, 2, 2), (2, 2, 2), (3, 3, 2),
                                             (2, 3, 3), (4, 2, 1), (4, 4, 1)])
def test_tie_heavy_draws_match_oracle(k_users, n_rt, n_u):
    """Gains in {0, 1, 2} make ties in a user's own best antenna, in the vote
    and in the voters' gain sums common; the kernel's gains must equal the
    full-matrix oracle's exactly."""
    h = rng(11).integers(0, 3, size=(20000, k_users, n_rt, n_u)).astype(float)
    assert np.array_equal(_selected_gains(h.max(axis=-1)).T, majority_gains(h))
