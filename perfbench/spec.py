"""What each workload runs: its scenarios, grids and the faults it keeps.

Plain data only, so that the reference generator can enumerate the points
without importing the program.
"""

from __future__ import annotations

# The paper's network: three users, 2x2 antennas per node, relay midway.
BASE = {
    "a": (0.6, 0.3, 0.1),
    "gamma_th": (1.4, 2.2, 2.5),
    "xi": 0.0,
    "w": 0.5,
    "zeta": 0.8,
    "snr_db": 20.0,
    "n_s": 2,
    "n_rr": 2,
    "n_rt": 2,
    "n_u": 2,
    "d_sr": 0.5,
    "alpha": 2.0,
    "m_sr": 1.0,
    "m_ru": 1.0,
}

RANKS = (1, 2, 3)
XIS = (0.0, 0.02)

# One round's length in seconds, as measured when the benchmark was set up.
# A run makes round(--seconds / ROUND_S) rounds, at least one, so that every
# run of a workload does the same work whatever the machine's speed at the
# time (this host's speed drifts by up to 40% within a minute).
ROUND_S = {"op_curve": 16.0, "mc_crosscheck": 5.0, "design_search": 11.0}

# op_curve: OP against SNR.  At m=2 the closed form leaves its float path
# below OP 1e-5 (from 25 dB on) and then costs 10-30 s a point, so it runs
# on the float range plus the one deep point that shows its 40-digit fault;
# quadrature, at a few ms a point, runs on the whole m=2 grid.
CURVE_SNR_M1 = (10.0, 20.0, 30.0, 40.0, 50.0, 60.0)
CURVE_SNR_M2_CLOSED = (10.0, 15.0, 20.0)
CURVE_SNR_M2_QUAD = (10.0, 15.0, 20.0, 25.0, 30.0, 40.0, 60.0)
CURVE_M2_DEEP_CLOSED = ((60.0, 3, 0.0),)  # (snr_db, rank, xi)

# mc_crosscheck: one 20 dB point per sampler route of montecarlo._max_of_iid
# (m=1 CDF inversion, m=2 Erlang sums, m=1.5 gamma sampler).
MC_M = (1.0, 2.0, 1.5)
MC_SNR = 20.0
MC_TRIALS = 8 * 2**18    # eight of today's blocks per estimate
MC_Z = 5.0               # half-width of the reference check, in standard errors

# design_search: the paper's target-SNR table (m_sr, m_ru, n_s, n_rr, n_rt, n_u)
# at OP 1e-3.  The m=(2,2) searches use a [0, 20] dB bracket: with the
# paper's 70 dB endpoint each takes 20-80 s in the closed form's mp path.
SNR_TARGET = 1e-3
SNR_CONFIGS = (
    (1, 1, 1, 1, 2, 1),
    (1, 1, 2, 1, 2, 1),
    (1, 1, 2, 1, 2, 2),
    (1, 1, 2, 2, 2, 2),
    (2, 2, 2, 2, 2, 2),
)
SNR_BRACKET = {1: (0.0, 70.0), 2: (0.0, 20.0)}
# find-w at 20 dB over np.linspace(0.05, 0.95, points), as `ehnoma find-w
# --points` does: the default 91 points at m=1, 31 at m=2, where a call costs
# 60 ms against 3 ms.  The m=2 rank-3 optimum lies at OP ~5e-6, where each of
# its ~40 closed-form calls would take the mp path.
W_SNR = 20.0
W_CASES = ((1.0, 1), (1.0, 2), (1.0, 3), (2.0, 1), (2.0, 2))
W_POINTS = {1.0: 91, 2.0: 31}

# Relative tolerance of an OP against the reference.  The closed form's float
# path agrees with quadrature to ~6e-8 on the acceptance grid.
OP_RTOL = 1e-6


def point(**overrides) -> dict:
    params = dict(BASE)
    params.update(overrides)
    return params


def point_id(params: dict, k: int) -> str:
    """Stable key of one (scenario, rank) point, naming only what differs from BASE."""
    diff = ",".join(f"{key}={params[key]}" for key in BASE if params[key] != BASE[key])
    return f"k={k};{diff}"


def scenario_text(params: dict) -> str:
    """The point as a scenario file, for the program's own parser."""
    lines = []
    for key, value in params.items():
        if isinstance(value, tuple):
            value = ", ".join(repr(v) for v in value)
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


def curve_ops():
    """(method, params, k) for every op_curve operation, in canonical order."""
    ops = []
    for xi in XIS:
        for snr in CURVE_SNR_M1:
            for k in RANKS:
                p = point(snr_db=snr, xi=xi)
                ops += [("closed", p, k), ("quad", p, k)]
        for snr in CURVE_SNR_M2_QUAD:
            for k in RANKS:
                p = point(snr_db=snr, xi=xi, m_sr=2.0, m_ru=2.0)
                if snr in CURVE_SNR_M2_CLOSED or (snr, k, xi) in CURVE_M2_DEEP_CLOSED:
                    ops.append(("closed", p, k))
                ops.append(("quad", p, k))
    return ops


def mc_points():
    return [point(snr_db=MC_SNR, m_sr=m, m_ru=m) for m in MC_M]


def snr_searches():
    """(params, k, lo_db, hi_db) for every find-snr search."""
    out = []
    for m_sr, m_ru, n_s, n_rr, n_rt, n_u in SNR_CONFIGS:
        p = point(m_sr=float(m_sr), m_ru=float(m_ru), n_s=n_s, n_rr=n_rr,
                  n_rt=n_rt, n_u=n_u)
        lo, hi = SNR_BRACKET[m_sr]
        out += [(p, k, lo, hi) for k in RANKS]
    return out


def w_searches():
    """(params, k, grid points) for every find-w search."""
    return [(point(snr_db=W_SNR, m_sr=m, m_ru=m), k, W_POINTS[m]) for m, k in W_CASES]


def reference_points():
    """Every (params, k) whose reference OP is stored in reference.json."""
    seen, out = set(), []
    for _, p, k in curve_ops():
        key = point_id(p, k)
        if key not in seen:
            seen.add(key)
            out.append((p, k))
    for p in mc_points():
        out += [(p, k) for k in RANKS]
    return out


# Operations that fail today, with the fault behind each.  A failed check on
# any other operation makes the run incorrect.
QUAD_FAULT = ("analysis.op_numerical loses the deep-outage tail: quad's error "
              "estimate exceeds the tail it returns and is discarded")
CLOSED_FAULT = ("analysis.op_closed_form sums in a fixed 40 digits, too few for "
                "the cancellation at this point")
# (snr_db, xi, m, rank) of the quadrature points found wrong, all in deep outage
QUAD_FAULT_POINTS = (
    (40.0, 0.02, 1.0, 2), (50.0, 0.0, 1.0, 2), (50.0, 0.0, 1.0, 3),
    (50.0, 0.02, 1.0, 2), (50.0, 0.02, 1.0, 3), (60.0, 0.0, 1.0, 2),
    (60.0, 0.0, 1.0, 3), (60.0, 0.02, 1.0, 2), (60.0, 0.02, 1.0, 3),
    (40.0, 0.0, 2.0, 3), (40.0, 0.02, 2.0, 3), (60.0, 0.0, 2.0, 2),
    (60.0, 0.02, 2.0, 2), (60.0, 0.02, 2.0, 3),
)
KNOWN_FAULTS = {
    ("quad", point_id(point(snr_db=snr, xi=xi, m_sr=m, m_ru=m), k)): QUAD_FAULT
    for snr, xi, m, k in QUAD_FAULT_POINTS
}
KNOWN_FAULTS[("closed", point_id(point(snr_db=60.0, m_sr=2.0, m_ru=2.0), 3))] = CLOSED_FAULT
