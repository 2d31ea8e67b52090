"""The benchmark's output checks: each takes an output and what it must match.

None of them needs a stored copy of the program's own output.  A reference
OP comes from reference.py, either stored or, for search answers, computed
on the spot.
"""

from __future__ import annotations

import math


def op_matches(value: float, reference: float, rtol: float) -> bool:
    """An OP value within rtol of the reference, relative to the reference."""
    return abs(value - reference) <= rtol * abs(reference)


def snr_brackets_target(answer_db: float, ref_op, target: float, half_db: float = 0.05) -> bool:
    """The reference OP crosses the target within +-half_db of the found SNR.

    ref_op(snr_db) gives the reference OP, which falls with SNR.
    """
    return ref_op(answer_db - half_db) >= target >= ref_op(answer_db + half_db)


def w_is_local_min(w_star: float, ref_op, step: float = 0.01) -> bool:
    """The reference OP at w* is no higher than at w* - step and w* + step."""
    at = ref_op(w_star)
    return at <= ref_op(w_star - step) and at <= ref_op(w_star + step)


def w_ordered(w_by_rank: dict) -> bool:
    """The paper's ordering: stronger users have smaller optimal ratios."""
    ranks = sorted(w_by_rank)
    return all(w_by_rank[a] > w_by_rank[b] for a, b in zip(ranks, ranks[1:]))


def mc_contains(op_hat: float, trials: int, reference: float, z: float) -> bool:
    """The reference lies within z standard errors of the Monte Carlo estimate.

    The standard error is taken at the reference (a score test), which stays
    meaningful when the estimate counts only a few outages.
    """
    sigma = math.sqrt(reference * (1.0 - reference) / trials)
    return abs(op_hat - reference) <= z * sigma


def mc_identical(a, b) -> bool:
    """Two estimates agree bit for bit."""
    return a == b
