#!/usr/bin/env python3
"""Self-test of the benchmark's checks: each must accept a true output and
reject the same output perturbed.  Run from the repository root:

    python3 perfbench/selftest.py

It prints one line per case and exits 1 if any check lets a perturbed
output through or refuses a true one.
"""

from __future__ import annotations

import os
import sys
from dataclasses import replace

import checks
import reference
import spec

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
FAILURES = []


def case(name: str, accepted: bool, expect: bool) -> None:
    ok = accepted == expect
    print(f"{'ok  ' if ok else 'FAIL'} {name}: {'accepted' if accepted else 'rejected'}")
    if not ok:
        FAILURES.append(name)


def main() -> int:
    refs = reference.load()

    # an OP against its stored reference
    params = spec.point(snr_db=20.0)
    ref = refs[spec.point_id(params, 2)]
    case("OP equal to the reference", checks.op_matches(ref, ref, spec.OP_RTOL), True)
    case("OP scaled by 1+1e-5", checks.op_matches(ref * (1 + 1e-5), ref, spec.OP_RTOL), False)
    case("OP scaled by 1-1e-5", checks.op_matches(ref * (1 - 1e-5), ref, spec.OP_RTOL), False)

    # a find-snr answer: the SNR at which the reference crosses 1e-3, by bisection
    search = spec.point(n_s=2, n_rr=1, n_u=2)
    k = 2

    def ref_op(snr):
        return reference.op_fast(dict(search, snr_db=snr), k)

    lo, hi = 0.0, 70.0
    while hi - lo > 1e-3:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if ref_op(mid) > spec.SNR_TARGET else (lo, mid)
    root = 0.5 * (lo + hi)
    case("find-snr at the crossing", checks.snr_brackets_target(root, ref_op, spec.SNR_TARGET), True)
    case("find-snr 0.2 dB high", checks.snr_brackets_target(root + 0.2, ref_op, spec.SNR_TARGET), False)
    case("find-snr 0.2 dB low", checks.snr_brackets_target(root - 0.2, ref_op, spec.SNR_TARGET), False)

    # a find-w answer: the reference's own minimizer on a 0.001 grid
    w_point = spec.point(snr_db=spec.W_SNR)

    def ref_w(w, k):
        return reference.op_fast(dict(w_point, w=w), k)

    stars = {}
    for k in spec.RANKS:
        grid = [0.2 + 0.01 * i for i in range(41)]
        coarse = min(grid, key=lambda w: ref_w(w, k))
        stars[k] = min((coarse + 0.001 * i for i in range(-10, 11)), key=lambda w: ref_w(w, k))
    for k in spec.RANKS:
        f = lambda w: ref_w(w, k)
        case(f"find-w k={k} at the minimum", checks.w_is_local_min(stars[k], f), True)
        case(f"find-w k={k} 0.02 high", checks.w_is_local_min(stars[k] + 0.02, f), False)
        case(f"find-w k={k} 0.02 low", checks.w_is_local_min(stars[k] - 0.02, f), False)
    case("w* ordered by rank", checks.w_ordered(stars), True)
    case("w* of ranks 2 and 3 swapped",
         checks.w_ordered({1: stars[1], 2: stars[3], 3: stars[2]}), False)

    # a Monte Carlo estimate against the reference
    mc = spec.mc_points()[0]
    ref = refs[spec.point_id(mc, 1)]
    trials = spec.MC_TRIALS
    case("MC count at the reference",
         checks.mc_contains(round(ref * trials) / trials, trials, ref, spec.MC_Z), True)
    sigma = (ref * (1 - ref) / trials) ** 0.5
    case(f"MC count {spec.MC_Z + 0.5:g} sigma high",
         checks.mc_contains(ref + (spec.MC_Z + 0.5) * sigma, trials, ref, spec.MC_Z), False)

    # bit-identity across worker counts; an estimate needs only equality
    sys.path.insert(0, SRC)
    from ehnoma import McEstimate
    est = McEstimate(op_hat=(0.25, 0.5, 0.75), trials=1000, ci_halfwidth=(0.1, 0.1, 0.1),
                     seed=1)
    one_more = replace(est, op_hat=(0.25 + 1 / 1000, 0.5, 0.75))
    case("MC estimates identical", checks.mc_identical(est, replace(est)), True)
    case("MC count changed by one", checks.mc_identical(est, one_more), False)

    print(f"{len(FAILURES)} check(s) misjudged" if FAILURES else "all checks judged right")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
