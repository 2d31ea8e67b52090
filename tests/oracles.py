"""Test-side oracles in plain numpy and scipy, independent of the library's
kernels, an evaluator of the library's expanded series and a reference
builder of the closed form's term table."""

import math
from fractions import Fraction
from functools import partial

import numpy as np
from scipy import integrate, optimize, special

from ehnoma.analysis import _TermTable
from ehnoma.fading import MAJORITY_RANK_COEFFS, expanded_power
from ehnoma.link import tau_star


def sinr(l, k, g_sr, g_ru_k, config):
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
    gam, a = config.snr_linear, config.a
    # Sigma_l: the residue xi of the cancelled messages and the undecoded ones
    sigma = config.xi * sum(a[: l - 1]) + sum(a[l:])
    num = gam * g_sr * g_ru_k * a[l - 1]
    den = gam * g_sr * g_ru_k * sigma + config.c1 * g_ru_k + config.c2
    return num / den


def majority_gains(h):
    """Each trial's user gains after majority selection, ascending.

    h[t, k, i, j] is trial t's squared gain from relay transmit antenna i to
    receive antenna j of user k.  Each user votes for the transmit row of its
    best entry; the row with the most votes serves everyone, a tie going to
    the row whose voters' best gains sum highest, then to the lowest row;
    each user takes its best entry on that row.
    """
    n, _, n_rt, _ = h.shape
    rowmax = h.max(axis=3)
    votes = rowmax.argmax(axis=2)
    slot = (np.arange(n)[:, None] * n_rt + votes).ravel()
    counts = np.bincount(slot, minlength=n * n_rt).reshape(n, n_rt)
    weight = np.bincount(slot, weights=rowmax.max(axis=2).ravel(),
                         minlength=n * n_rt).reshape(n, n_rt)
    leading = counts == counts.max(axis=1, keepdims=True)
    row = np.where(leading, weight, -1.0).argmax(axis=1)
    return np.sort(rowmax[np.arange(n), :, row], axis=1)


def outage(c, g_sr, ranked):
    """(n, K) outage events of n trials with first-hop gains g_sr and
    ascending user gains `ranked`: rank k is in outage when any stage
    l <= k has SINR below gamma_th_l."""
    xy = c.snr_linear * g_sr[:, None] * ranked
    bad = np.zeros(ranked.shape, dtype=bool)
    for l in range(1, c.k_users + 1):
        sigma = c.xi * sum(c.a[: l - 1]) + sum(c.a[l:])
        tail = slice(l - 1, None)  # the ranks that detect message l
        sinr = xy[:, tail] * c.a[l - 1] / (
            xy[:, tail] * sigma + c.c1 * ranked[:, tail] + c.c2)
        bad[:, tail] |= sinr < c.gamma_th[l - 1]
    return bad


def row_maxima(rng, m, omega, size, n_iid):
    """Each entry of an array of shape `size` the maximum of n_iid squared
    Nakagami-m gains of mean omega, all from one draw: by CDF inversion of
    one uniform at m = 1, else by numpy's axis reductions over the entries,
    Erlang sums of exponentials at integer m and gamma draws otherwise."""
    if m == 1:
        return -omega * np.log1p(-np.power(rng.random(size), 1.0 / n_iid))
    if float(m).is_integer():
        entries = rng.standard_exponential((*size, n_iid, int(m))).sum(axis=-1)
    else:
        entries = rng.standard_gamma(m, size=(*size, n_iid))
    return (entries * (omega / m)).max(axis=-1)


def block_counts(c, rng, n):
    """Per-rank outage counts of n trials drawn from rng in one piece: the
    first-hop maxima of all trials in one draw, then the (n, K, n_rt)
    second-hop maxima in one draw, majority selection and the SINR of each
    stage.  In C order these take the numbers the kernel takes in chunks
    and slices, so on the same stream the counts are the kernel's."""
    g_sr = row_maxima(rng, c.m_sr, c.omega_sr, (n,), c.n_s * c.n_rr)
    rowmax = row_maxima(rng, c.m_ru, c.omega_ru, (n, c.k_users, c.n_rt), c.n_u)
    return outage(c, g_sr, majority_gains(rowmax[..., None])).sum(axis=0)


def ks_distance(sorted_sample, cdf):
    """Kolmogorov-Smirnov distance of an ascending sample from the model
    CDF values `cdf` taken at that sample."""
    n = len(sorted_sample)
    return max(
        np.abs(np.arange(1, n + 1) / n - cdf).max(),
        np.abs(cdf - np.arange(n) / n).max(),
    )


def rank_cdf(m, omega, k, n_u, x):
    """Power form of the rank-k user's CDF under majority selection,
    sum_q MAJORITY_RANK_COEFFS[k][q] G^q with G = gammainc(m, m x / omega)^n_u."""
    g = special.gammainc(m, m / omega * np.asarray(x, dtype=float)) ** n_u
    return sum(float(e) * g**q for q, e in sorted(MAJORITY_RANK_COEFFS[k].items()))


def rank_expectation(m, omega, k, n_u, a, d):
    """E[(1 + a/Y_k)^d] for the rank-k user's gain Y_k, from its power-form CDF F.

    By parts, 1 + the integral over y > 0 of F(y) d a (1 + a/y)^(d-1) / y^2,
    taken over t = ln y with breakpoints at ln a and ln omega, from 40 below
    the smaller to 40 above the larger: near 0 F falls as y^d_Y, d_Y the
    smallest power of the rank's CDF polynomial times m n_u, so the
    expectation is finite only where d_Y > d, and there the two cut tails
    hold under d e^-40 of it.
    """
    def integrand(t):
        y = math.exp(t)
        return rank_cdf(m, omega, k, n_u, y) * d * a * (1 + a / y) ** (d - 1) / y

    ends = sorted((math.log(a), math.log(omega)))
    tail, _ = integrate.quad(integrand, ends[0] - 40, ends[1] + 40, points=ends,
                             epsabs=0, epsrel=1e-12, limit=200)
    return 1 + tail


def first_hop_asymptote(k, config):
    """The rank-k OP's leading term where the first hop limits it (d_Y > d_X),
    (b_sr^m_sr / m_sr!)^N tau*^d_X E[(1 + c2/(c1 Y_k))^d_X], d_X = m_sr N:
    the first-hop CDF P(m_sr, b_sr x)^N at x = tau* (1 + c2/(c1 Y_k)), to
    its leading power of x, averaged over Y_k."""
    m_sr, n = int(config.m_sr), config.n_s * config.n_rr
    b_sr = m_sr / config.omega_sr
    expect = rank_expectation(config.m_ru, config.omega_ru, k, config.n_u,
                              config.c2 / config.c1, m_sr * n)
    return (b_sr**m_sr / math.factorial(m_sr)) ** n * tau_star(k, config) ** (m_sr * n) * expect


def w_star_limit(k, config):
    """The power-splitting ratio that first_hop_asymptote's OP takes at its least
    as the SNR grows: tau* = c1 T, T free of w, so w minimizes
    (1 - w)^-d_X E[(1 + (1 - w)/(zeta w Y_k))^d_X], which depends on neither
    the SNR, xi nor the thresholds."""
    d = int(config.m_sr) * config.n_s * config.n_rr

    def scaled_op(w):
        a = (1 - w) / (config.zeta * w)
        return rank_expectation(config.m_ru, config.omega_ru, k, config.n_u, a, d) / (1 - w) ** d

    return optimize.minimize_scalar(scaled_op, bounds=(0.05, 0.95), method="bounded",
                                    options={"xatol": 1e-7}).x


def expanded_sum(m, bx, weighted_powers):
    """Sum of weight * F_X^y over (weight, y) at b x = bx, each power from the
    terms c (bx)^v e^(-u bx) of `expanded_power(y, m)`, in one running sum."""
    out = 0.0
    for weight, y in weighted_powers:
        for u, v, c in expanded_power(y, m):
            out += weight * float(c) * bx**v * np.exp(-u * bx)
    return out


def bessel_groups(k, m_sr, m_ru, n, n_u):
    """The closed form's _TermTable built term by term in Fraction arithmetic.

    Every (q, p, s, u, v, z) term's coefficient is accumulated into its
    (p, u, nu, s, j) monomial, so the sum over q happens monomial by monomial;
    analysis._bessel_groups must give the same table field by field, its
    coefficients being num/den here over the least common denominator, and
    its index of distinct Bessel arguments, their largest orders, its lowest
    K order and each row's place in a point's K table being derived here
    from the group and row lists by set and list lookups.
    """
    groups = {}
    scale = Fraction(2 * n, math.factorial(m_sr - 1))
    for q, eta in MAJORITY_RANK_COEFFS[k].items():
        for p, s, c_ru in expanded_power(q * n_u, m_ru):
            if p == 0:  # the constant term has no Bessel factor
                continue
            for u, v, c_sr in expanded_power(n - 1, m_sr):
                big_m = m_sr - 1 + v
                base = scale * eta * c_ru * c_sr
                for z in range(big_m + 1):
                    poly = groups.setdefault((p, u), {}).setdefault(z - s + 1, {})
                    key = (s, m_sr + v)
                    poly[key] = poly.get(key, 0) + base * math.comb(big_m, z)
    pus, group, nus, row, ss, js, coef = [], [], [], [], [], [], []
    for (p, u), by_nu in groups.items():
        for nu, poly in by_nu.items():
            monomials = [(s, j, c) for (s, j), c in poly.items() if c]
            if not monomials:
                continue
            if not pus or pus[-1] != (p, u):
                pus.append((p, u))
            group.append(len(pus) - 1)
            nus.append(nu)
            for s, j, c in monomials:
                row.append(len(nus) - 1)
                ss.append(s)
                js.append(j)
                coef.append(c)
    # the distinct Bessel arguments p (1 + u), ascending, with each group's index
    pu = sorted({p * (1 + u) for p, u in pus})
    group_pu = [pu.index(p * (1 + u)) for p, u in pus]
    # K_0 is left out only where every row has |nu| = 1; a point's K table
    # holds orders k_low and up, each over every distinct argument
    k_low = int(all(abs(nu) == 1 for nu in nus))
    ints = partial(np.array, dtype=np.int64)
    den = math.lcm(*(c.denominator for c in coef))
    s_top, j_top = max(ss, default=0), max(js, default=0)
    # each row's (h, o) with -nu = 2h + o, o in {0, 1}, and a = -h - o
    hos = [divmod(-nu, 2) for nu in nus]
    aa = [-h - o for h, o in hos]
    return _TermTable(
        s_top=s_top, j_top=j_top, k_low=k_low,
        p=ints([p for p, _ in pus]), one_u=ints([1 + u for _, u in pus]),
        group=ints(group), half_nu=np.array([nu / 2 for nu in nus]),
        abs_nu=ints([abs(nu) for nu in nus]),
        k_slot=ints([(abs(nu) - k_low) * len(pu) + group_pu[g] for g, nu in zip(group, nus)]),
        odd=ints([o for _, o in hos]),
        px_num=ints([max(a, 0) for a in aa]), px_den=ints([max(-a, 0) for a in aa]),
        uy_num=ints([max(h, 0) for h, _ in hos]), uy_den=ints([max(-h, 0) for h, _ in hos]),
        s_shift=ints([s_top + a for a in aa]), j_shift=ints([j_top + h for h, _ in hos]),
        row=ints(row),
        s=ints(ss), j=ints(js),
        num=tuple(c.numerator * (den // c.denominator) for c in coef), den=den,
        coef_float=np.array([float(c.numerator) / c.denominator for c in coef]),
        pu=ints(pu), group_pu=ints(group_pu),
        pu_top=ints([max(abs(nu) for g, nu in zip(group, nus) if group_pu[g] == i)
                     for i in range(len(pu))]))
