"""Scenario files, parameter sweeps, target-OP search and CSV emission."""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, fields, replace

import numpy as np

from .analysis import op_closed_form, op_numerical
from .fading import UnsupportedModelError
from .link import InfeasibleConfigError, SystemConfig
from .montecarlo import estimate_op

EXIT_OK = 0
EXIT_INFEASIBLE = 2
EXIT_SEARCH = 3
EXIT_PARSE = 4
EXIT_UNSUPPORTED = 5

CSV_HEADER = "scenario,variable,value,user,method,op,ci_halfwidth,trials"
METHOD_ORDER = ("analytic", "quadrature", "montecarlo")

# find-snr answers within this many dB; find-w's golden-section search stops
# once its bracket is this narrow
_SNR_TOL_DB = 0.05
_W_TOL = 1e-3

_LIST_KEYS = ("a", "gamma_th")
_INT_KEYS = ("n_s", "n_rr", "n_rt", "n_u")


class ScenarioParseError(ValueError):
    pass


class SearchError(RuntimeError):
    """Bracket or grid failure in a root/optimum search."""


def _fmt_num(v) -> str:
    if float(v).is_integer():
        return str(int(v))
    return repr(float(v))


def _parse_value(key: str, text: str):
    """Type a scenario value: a float list, an integer or a float."""
    if key in _LIST_KEYS:
        return tuple(float(x) for x in text.split(","))
    if key in _INT_KEYS:
        return int(text)
    return float(text)


def parse_scenario(text: str) -> SystemConfig:
    """Parse a flat key = value scenario file into a SystemConfig."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ScenarioParseError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        try:
            values[key] = _parse_value(key, val)
        except ValueError as exc:
            raise ScenarioParseError(f"line {lineno}: bad value for {key}: {val!r}") from exc
    known = {f.name for f in fields(SystemConfig)}
    unknown = set(values) - known
    if unknown:
        raise ScenarioParseError(f"unknown scenario keys: {sorted(unknown)}")
    try:
        return SystemConfig(**values)
    except ValueError as exc:
        raise ScenarioParseError(str(exc)) from exc


def serialize_scenario(config: SystemConfig) -> str:
    """Canonical scenario text; parse(serialize(c)) == c."""
    lines = []
    for f in fields(SystemConfig):
        v = getattr(config, f.name)
        if f.name in _LIST_KEYS:
            lines.append(f"{f.name} = " + ", ".join(_fmt_num(x) for x in v))
        elif f.name in _INT_KEYS:
            lines.append(f"{f.name} = {int(v)}")
        else:
            lines.append(f"{f.name} = {_fmt_num(v)}")
    return "\n".join(lines) + "\n"


def load_scenario(path: str) -> SystemConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_scenario(fh.read())


@dataclass(frozen=True)
class SweepSpec:
    scenario: str                 # id used in the output rows
    variable: str                 # snr_db | w | d_sr | xi
    start: float
    stop: float
    points: int
    base: SystemConfig
    methods: tuple = ("analytic",)
    spacing: str = "linear"       # linear | log
    trials: int = 100_000
    seed: int = 0
    workers: int = 1

    def __post_init__(self):
        if self.variable not in ("snr_db", "w", "d_sr", "xi"):
            raise ValueError(f"unsupported sweep variable {self.variable!r}")
        if self.points < 1:
            raise ValueError("grid must be nonempty")
        if not self.methods:
            raise ValueError("at least one method must be requested")
        bad = set(self.methods) - set(METHOD_ORDER)
        if bad:
            raise ValueError(f"unknown methods: {sorted(bad)}")
        if self.spacing not in ("linear", "log"):
            raise ValueError(f"spacing must be linear or log, got {self.spacing!r}")
        for v in self.grid():
            # reject values outside the variable's domain up front
            replace(self.base, **{self.variable: float(v)})

    def grid(self) -> np.ndarray:
        if self.spacing == "log":
            return np.logspace(np.log10(self.start), np.log10(self.stop), self.points)
        return np.linspace(self.start, self.stop, self.points)


def _point_rows(scenario: str, variable: str, value: float, config: SystemConfig,
                methods, trials: int, seed: int, workers: int):
    """Rows for one grid point, in (user, method) order."""
    rows = []
    ordered = [m for m in METHOD_ORDER if m in methods]
    feasible = config.feasible
    mc = None
    if "montecarlo" in ordered and feasible:
        mc = estimate_op(config, trials=trials, seed=seed, workers=workers)
    for k in range(1, config.k_users + 1):
        for method in ordered:
            row = {
                "scenario": scenario, "variable": variable,
                "value": "%.10g" % value, "user": k, "method": method,
                "op": "", "ci_halfwidth": "", "trials": "",
            }
            if not feasible:
                row["op"] = "infeasible"
                rows.append(row)
                continue
            if method == "montecarlo":
                row["op"] = "%.8e" % mc.op_hat[k - 1]
                row["ci_halfwidth"] = "%.8e" % mc.ci_halfwidth[k - 1]
                row["trials"] = str(trials)
            else:
                op = op_closed_form if method == "analytic" else op_numerical
                try:
                    row["op"] = "%.8e" % op(k, config)
                except UnsupportedModelError:
                    row["op"] = "unsupported"
            rows.append(row)
    return rows


def run_sweep(spec: SweepSpec):
    """Evaluate every requested method on every grid point, deterministically."""
    rows = []
    for value in spec.grid():
        config = replace(spec.base, **{spec.variable: float(value)})
        rows.extend(
            _point_rows(spec.scenario, spec.variable, float(value), config,
                        spec.methods, spec.trials, spec.seed, spec.workers)
        )
    return rows


def rows_to_csv(rows) -> str:
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(",".join(str(r[c]) for c in CSV_HEADER.split(",")))
    return "\n".join(lines) + "\n"


def write_output(rows, out: str | None) -> None:
    text = rows_to_csv(rows)
    if out:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def find_snr_for_op(k: int, config: SystemConfig, target_op: float,
                    lo_db: float, hi_db: float) -> float:
    """SNR (dB) at which the analytic OP of user k crosses target_op.

    Bisection on the monotone (nonincreasing) analytic OP curve; the bracket
    endpoints must straddle the target.
    """
    if not 0 < target_op < 1:
        raise SearchError(f"target OP must be in (0,1), got {target_op}")
    f_lo = op_closed_form(k, replace(config, snr_db=lo_db))
    if f_lo == target_op:
        return lo_db
    f_hi = op_closed_form(k, replace(config, snr_db=hi_db))
    if not f_lo > target_op > f_hi:
        raise SearchError(
            f"bracket [{lo_db}, {hi_db}] dB does not straddle OP={target_op:g} "
            f"(endpoints {f_lo:.3e}, {f_hi:.3e})"
        )
    lo, hi = lo_db, hi_db
    while hi - lo > 2 * _SNR_TOL_DB:
        mid = 0.5 * (lo + hi)
        if op_closed_form(k, replace(config, snr_db=mid)) > target_op:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def find_optimal_w(k: int, config: SystemConfig, grid=None):
    """(w*, op*) minimizing the analytic OP over the power-splitting ratio."""
    if grid is None:
        grid = np.linspace(0.05, 0.95, 91)
    grid = np.asarray(sorted(grid), dtype=float)
    if np.any((grid <= 0) | (grid >= 1)):
        raise SearchError("w grid must lie inside (0, 1)")
    ops = []
    for w in grid:
        try:
            ops.append(op_closed_form(k, replace(config, w=float(w))))
        except InfeasibleConfigError:
            ops.append(np.inf)
    ops = np.asarray(ops)
    if not np.isfinite(ops).any():
        raise SearchError("every grid point is infeasible")
    i = int(np.argmin(ops))
    lo = grid[max(i - 1, 0)]
    hi = grid[min(i + 1, len(grid) - 1)]

    def f(w):
        return op_closed_form(k, replace(config, w=float(w)))

    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > _W_TOL:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    w_star = 0.5 * (a + b)
    return float(w_star), f(w_star)


def _apply_overrides(config: SystemConfig, pairs) -> SystemConfig:
    for pair in pairs or ():
        if "=" not in pair:
            raise ScenarioParseError(f"override must be KEY=VALUE, got {pair!r}")
        key, _, val = pair.partition("=")
        key = key.strip()
        known = {f.name for f in fields(SystemConfig)}
        if key not in known:
            raise ScenarioParseError(f"unknown config key {key!r}")
        try:
            config = replace(config, **{key: _parse_value(key, val)})
        except ValueError as exc:
            raise ScenarioParseError(f"bad override {pair!r}: {exc}") from exc
    return config


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("scenario", help="scenario file path")
    common.add_argument("--set", action="append", metavar="KEY=VALUE",
                        help="override a scenario value (repeatable)")
    common.add_argument("--out", help="write CSV here instead of stdout")

    p = argparse.ArgumentParser(prog="ehnoma",
                                description="Outage probability of an EH MIMO-NOMA "
                                            "downlink with joint antenna selection")
    sub = p.add_subparsers(dest="command", required=True)

    sub.add_parser("analytic", parents=[common],
                   help="closed-form OP for every user")
    sub.add_parser("quadrature", parents=[common],
                   help="quadrature OP for every user")

    sim = sub.add_parser("simulate", parents=[common], help="Monte Carlo OP")
    sim.add_argument("--trials", type=int, default=1_000_000)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--workers", type=int, default=1)

    sw = sub.add_parser("sweep", parents=[common], help="sweep one variable")
    sw.add_argument("--var", required=True, choices=("snr_db", "w", "d_sr", "xi"))
    sw.add_argument("--start", type=float, required=True)
    sw.add_argument("--stop", type=float, required=True)
    sw.add_argument("--points", type=int, required=True)
    sw.add_argument("--spacing", choices=("linear", "log"), default="linear")
    sw.add_argument("--methods", default="analytic",
                    help="comma list from analytic,quadrature,montecarlo")
    sw.add_argument("--trials", type=int, default=100_000)
    sw.add_argument("--seed", type=int, default=0)
    sw.add_argument("--workers", type=int, default=1)

    fs = sub.add_parser("find-snr", parents=[common],
                        help="SNR required to hit a target OP")
    fs.add_argument("--user", type=int, required=True)
    fs.add_argument("--target", type=float, required=True)
    fs.add_argument("--lo", type=float, default=0.0)
    fs.add_argument("--hi", type=float, default=60.0)

    fw = sub.add_parser("find-w", parents=[common],
                        help="power-splitting ratio minimizing the OP")
    fw.add_argument("--user", type=int, required=True)
    fw.add_argument("--points", type=int, default=91)
    return p


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = _apply_overrides(load_scenario(args.scenario), args.set)
        if args.command in ("analytic", "quadrature", "simulate"):
            methods = {"analytic": ("analytic",), "quadrature": ("quadrature",),
                       "simulate": ("montecarlo",)}[args.command]
            if args.command == "simulate":
                config.check_feasible()
                rows = _point_rows("scenario", "snr_db", config.snr_db, config,
                                   methods, args.trials, args.seed, args.workers)
            else:
                rows = _point_rows("scenario", "snr_db", config.snr_db, config,
                                   methods, 0, 0, 1)
            write_output(rows, args.out)
        elif args.command == "sweep":
            spec = SweepSpec(
                scenario="sweep", variable=args.var, start=args.start,
                stop=args.stop, points=args.points, base=config,
                methods=tuple(m.strip() for m in args.methods.split(",") if m.strip()),
                spacing=args.spacing, trials=args.trials, seed=args.seed,
                workers=args.workers,
            )
            write_output(run_sweep(spec), args.out)
        elif args.command == "find-snr":
            snr = find_snr_for_op(args.user, config, args.target, args.lo, args.hi)
            print(f"{snr:.2f}")
        elif args.command == "find-w":
            grid = np.linspace(0.05, 0.95, args.points)
            w_star, op_star = find_optimal_w(args.user, config, grid)
            print(f"{w_star:.4f} {op_star:.8e}")
    except ScenarioParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except InfeasibleConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except UnsupportedModelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except (SearchError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SEARCH
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
