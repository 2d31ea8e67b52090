"""Reference outage probabilities, computed apart from the program.

The outage probability of the rank-k user is

    OP_k = F_X(tau)^N + integral over y > 0 of F_Yk(r / y) * f_X(tau + y) dy,

with X the best of N = n_s * n_rr first-hop squared gains, Y_k the rank-k
user's second-hop gain after majority antenna selection, tau the effective
first-hop threshold and r = tau * c2 / c1.  Both CDFs are taken in power form
from the regularized incomplete gamma function, and the rank CDF is derived
here from the vote patterns; nothing is imported from ehnoma.  Every value is
evaluated at two working precisions and refused unless they agree.

Run `python3 perfbench/reference.py` from the repository root to rewrite
perfbench/reference.json for every point listed in spec.reference_points().
"""

from __future__ import annotations

import json
import os
import sys
import time

import mpmath as mp

import spec

PRECISIONS = (30, 50)
AGREE_RTOL = 1e-20
FAST_RTOL = 1e-12
PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


class ReferenceError(RuntimeError):
    """The two working precisions disagree."""


def _rank_cdf(ctx, k: int, g):
    """CDF of the rank-k (1 = weakest) of three users' gains at row-maximum CDF g.

    Each user's two per-row maxima are i.i.d. with CDF g and it votes for the
    larger.  A user on the majority row keeps the larger (CDF g^2), a
    dissenter the smaller (CDF 2g - g^2), independently of the votes.  All
    three agree with probability 1/4, two against one with 3/4.
    """
    agree, dissent = g * g, 2 * g - g * g
    total = ctx.mpf(0)
    for weight, cdfs in ((ctx.mpf(1) / 4, (agree, agree, agree)),
                         (ctx.mpf(3) / 4, (agree, agree, dissent))):
        # distribution of how many users lie below the level
        below = [ctx.mpf(1)]
        for c in cdfs:
            below = [(below[j] if j < len(below) else 0) * (1 - c)
                     + (below[j - 1] * c if j else 0) for j in range(len(below) + 1)]
        total += weight * sum(below[k:])
    return total


def _op(ctx, params: dict, k: int):
    a = [ctx.mpf(x) for x in params["a"]]
    gth = [ctx.mpf(x) for x in params["gamma_th"]]
    if len(a) != 3 or params["n_rt"] != 2:
        raise ValueError("reference covers three users over two relay antennas")
    gam = ctx.mpf(10) ** (ctx.mpf(params["snr_db"]) / 10)
    w, zeta, xi = ctx.mpf(params["w"]), ctx.mpf(params["zeta"]), ctx.mpf(params["xi"])
    c1, c2 = 1 / (1 - w), 1 / (zeta * w)

    def margin(l):
        residual = xi * sum(a[:l - 1]) + sum(a[l:])
        return a[l - 1] - residual * gth[l - 1]

    if any(margin(l) <= 0 for l in range(1, k + 1)):
        raise ValueError("infeasible detection stage")
    tau = max(gth[l - 1] * c1 / (gam * margin(l)) for l in range(1, k + 1))
    d, alpha = ctx.mpf(params["d_sr"]), ctx.mpf(params["alpha"])
    m_sr, m_ru = ctx.mpf(params["m_sr"]), ctx.mpf(params["m_ru"])
    b_sr = m_sr / d ** -alpha
    b_ru = m_ru / (1 - d) ** -alpha
    n = params["n_s"] * params["n_rr"]
    n_u = params["n_u"]
    r = tau * c2 / c1
    log_norm = m_sr * ctx.log(b_sr) - ctx.loggamma(m_sr)

    def gamma_cdf(m, z):
        # the regularized lower incomplete gamma is 1 to within 1e-300 beyond
        # z = 700, where the double-precision context would overflow
        return ctx.gammainc(m, 0, z, regularized=True) if z < 700 else ctx.mpf(1)

    def cdf_x(x):
        return gamma_cdf(m_sr, b_sr * x)

    def integrand(y):
        x = tau + y
        f_x = ctx.exp(log_norm + (m_sr - 1) * ctx.log(x) - b_sr * x)
        g = gamma_cdf(m_ru, b_ru * r / y) ** n_u
        return _rank_cdf(ctx, k, g) * n * f_x * cdf_x(x) ** (n - 1)

    # The mass sits near y ~ r in deep outage and near y ~ 1/b_sr otherwise;
    # break the range geometrically around both scales.
    scale = 1 / b_sr
    pts = {ctx.mpf(0)}
    pts.update(r * ctx.mpf(4) ** j for j in range(-6, 7) if r * 4 ** j < 64 * scale)
    pts.update(scale * ctx.mpf(4) ** j for j in range(-2, 4))
    pts = sorted(pts) + [ctx.inf]
    # mp.quad stops on an absolute error of 10^-dps; scale the integrand to
    # order one so that the tolerance is relative even at OP ~ 1e-37.
    peak = max(integrand(p) for p in pts[1:-1])
    tail = ctx.quad(lambda y: integrand(y) / peak, pts) * peak
    return cdf_x(tau) ** n + tail


def op_reference(params: dict, k: int, dps: int) -> mp.mpf:
    """Reference OP of the rank-k user at one working precision (decimal digits)."""
    with mp.workdps(dps):
        return +_op(mp, params, k)


def op_fast(params: dict, k: int) -> float:
    """The same integral in double precision (mpmath's fp context).

    Used by the run-time checks of search answers, whose points are not
    stored; main() refuses to write the file unless this agrees with the
    two high-precision values on every stored point to FAST_RTOL.
    """
    return float(_op(mp.fp, params, k))


def op_checked(params: dict, k: int, precisions=PRECISIONS, rtol=AGREE_RTOL) -> mp.mpf:
    """Reference OP, refused unless the given precisions agree to rtol."""
    lo, hi = (op_reference(params, k, dps) for dps in precisions)
    if abs(lo - hi) > rtol * abs(hi):
        raise ReferenceError(
            f"{spec.point_id(params, k)}: {mp.nstr(lo, 25)} at {precisions[0]} digits "
            f"vs {mp.nstr(hi, 25)} at {precisions[1]}")
    return hi


def load() -> dict:
    """point_id -> reference OP as a float."""
    with open(PATH, encoding="utf-8") as fh:
        return {key: float(entry["op"]) for key, entry in json.load(fh)["points"].items()}


def main() -> int:
    points = {}
    for params, k in spec.reference_points():
        t0 = time.perf_counter()
        value = op_checked(params, k)
        key = spec.point_id(params, k)
        fast = op_fast(params, k)
        if abs(fast - value) > FAST_RTOL * value:
            raise ReferenceError(f"{key}: double precision gives {fast!r}")
        points[key] = {"op": repr(float(value)), "op_digits": mp.nstr(value, 30)}
        print(f"{key}: {mp.nstr(value, 17)} ({time.perf_counter() - t0:.1f} s)",
              file=sys.stderr, flush=True)
    doc = {
        "about": "Outage probabilities from perfbench/reference.py; regenerate "
                 "with `python3 perfbench/reference.py`.",
        "precisions": list(PRECISIONS),
        "agree_rtol": AGREE_RTOL,
        "points": points,
    }
    with open(PATH, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
