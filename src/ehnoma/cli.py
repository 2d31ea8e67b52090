"""Scenario files, parameter sweeps, exit codes and CSV emission.

The analytic engine (`ehnoma.analysis`, which loads scipy.special and
mpmath) is imported only where an analytic result is asked for, so that
`simulate` and a Monte Carlo sweep start without it.  The analytic names
this module offers (`op_closed_form`, `find_snr_for_op` and
`find_optimal_w`, whose only caller here is the benchmark in `perfbench/`,
until it takes them from `analysis`; ROADMAP item 9) resolve through the
module `__getattr__` to analysis's own functions on first access and are
then bound here, so a caller that binds one pays the import then, and each
call goes straight to the engine.
"""

from __future__ import annotations

import argparse
import importlib
import os
import sys
from contextlib import nullcontext
from dataclasses import replace
from typing import get_type_hints

import numpy as np

from .link import (InfeasibleConfigError, SearchError, SystemConfig, UnresolvedNumericsError,
                   UnsupportedModelError)
from .montecarlo import estimate_op

EXIT_OK = 0
EXIT_INFEASIBLE = 2
EXIT_SEARCH = 3
EXIT_PARSE = 4
EXIT_UNSUPPORTED = 5
EXIT_UNRESOLVED = 6

CSV_HEADER = "scenario,variable,value,user,method,op,ci_halfwidth,trials"
METHOD_ORDER = ("analytic", "quadrature", "montecarlo")
SWEEP_VARIABLES = ("snr_db", "w", "d_sr", "xi")
SPACINGS = ("linear", "log")

# analysis's names offered here too, resolved by __getattr__
_ANALYTIC_NAMES = frozenset({"op_closed_form", "find_snr_for_op", "find_optimal_w"})

# each scenario key's type (tuple, int or float), from SystemConfig's fields
_KEY_TYPES = get_type_hints(SystemConfig)


def __getattr__(name):
    if name in _ANALYTIC_NAMES:
        value = getattr(importlib.import_module(".analysis", __package__), name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class ScenarioParseError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors exit EXIT_PARSE through main.

    argparse's own exit code for them, 2, is EXIT_INFEASIBLE here.
    """

    def error(self, message):
        raise ScenarioParseError(f"{self.prog}: {message}")


def _parse_value(key: str, text: str):
    """Type a scenario value: a float list, an integer or a float."""
    kind = _KEY_TYPES[key]
    if kind is tuple:
        return tuple(float(x) for x in text.split(","))
    return kind(text)


def parse_scenario(text: str, overrides=()) -> SystemConfig:
    """Parse a flat key = value scenario file into a SystemConfig.

    `overrides` are KEY=VALUE pairs applied over the file's values before the
    one SystemConfig is built, so together they may change K.
    """
    items = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ScenarioParseError(f"line {lineno}: expected 'key = value', got {raw!r}")
        items.append((f"line {lineno}", line))
    for pair in overrides:
        if "=" not in pair:
            raise ScenarioParseError(f"override must be KEY=VALUE, got {pair!r}")
        items.append((f"override {pair!r}", pair))
    entries = [(where, *map(str.strip, item.split("=", 1))) for where, item in items]
    unknown = {key for _, key, _ in entries} - _KEY_TYPES.keys()
    if unknown:
        raise ScenarioParseError(f"unknown scenario keys: {sorted(unknown)}")
    values = {}
    for where, key, val in entries:
        try:
            values[key] = _parse_value(key, val)
        except ValueError as exc:
            raise ScenarioParseError(f"{where}: bad value for {key}: {val!r}") from exc
    try:
        return SystemConfig(**values)
    except ValueError as exc:
        raise ScenarioParseError(str(exc)) from exc


def load_scenario(path: str, overrides=()) -> SystemConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeError) as exc:
        raise ScenarioParseError(f"cannot read scenario: {exc}") from exc
    return parse_scenario(text, overrides)


def _point_lines(scenario: str, variable: str, config: SystemConfig,
                 methods, trials: int = 0, seed: int = 0):
    """CSV lines for config's value of variable, in (user, method) order."""
    lines = []
    value = "%.10g" % getattr(config, variable)
    ordered = [m for m in METHOD_ORDER if m in methods]
    feasible = config.feasible
    mc = None
    if "montecarlo" in ordered and feasible:
        mc = estimate_op(config, trials=trials, seed=seed)
    for k in range(1, config.k_users + 1):
        for method in ordered:
            op = ci_halfwidth = n_trials = ""
            if not feasible:
                op = "infeasible"
            elif method == "montecarlo":
                op = "%.8e" % mc.op_hat[k - 1]
                ci_halfwidth = "%.8e" % mc.ci_halfwidth[k - 1]
                n_trials = str(trials)
            else:
                from . import analysis
                op_fn = (analysis.op_closed_form if method == "analytic"
                         else analysis.op_numerical)
                try:
                    op = "%.8e" % op_fn(k, config)
                except UnsupportedModelError:
                    op = "unsupported"
                except UnresolvedNumericsError:
                    op = "unresolved"
            lines.append(f"{scenario},{variable},{value},{k},{method},"
                         f"{op},{ci_halfwidth},{n_trials}")
    return lines


def run_sweep(base: SystemConfig, variable: str, values, methods,
              trials: int, seed: int):
    """CSV lines of every requested method at each value of variable, deterministically."""
    if variable not in SWEEP_VARIABLES:
        raise ValueError(f"unsupported sweep variable {variable!r}")
    if len(values) == 0:
        raise ValueError("sweep needs at least one value")
    if not methods:
        raise ValueError("at least one method must be requested")
    bad = set(methods) - set(METHOD_ORDER)
    if bad:
        raise ValueError(f"unknown methods: {sorted(bad)}")
    # every point's config is built before any is evaluated, so a value
    # outside the variable's domain is rejected up front
    configs = [replace(base, **{variable: float(v)}) for v in values]
    return [line for config in configs
            for line in _point_lines("sweep", variable, config, methods, trials, seed)]


def _grid(start: float, stop: float, points: int, spacing: str) -> np.ndarray:
    """The values of sweep's --start, --stop, --points and --spacing."""
    if points < 1:
        raise ValueError("grid must be nonempty")
    if spacing == "log":
        if min(start, stop) <= 0:
            raise ValueError("log spacing needs start > 0 and stop > 0")
        return np.logspace(np.log10(start), np.log10(stop), points)
    return np.linspace(start, stop, points)


def _build_parser() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    common.add_argument("scenario", help="scenario file path")
    common.add_argument("--set", action="append", metavar="KEY=VALUE",
                        help="override a scenario value (repeatable)")
    common.add_argument("--out", help="write the output here instead of stdout")

    p = _Parser(prog="ehnoma",
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

    sw = sub.add_parser("sweep", parents=[common], help="sweep one variable")
    sw.add_argument("--var", required=True, choices=SWEEP_VARIABLES)
    sw.add_argument("--start", type=float, required=True)
    sw.add_argument("--stop", type=float, required=True)
    sw.add_argument("--points", type=int, required=True)
    sw.add_argument("--spacing", choices=SPACINGS, default="linear")
    sw.add_argument("--methods", default="analytic",
                    help="comma list from analytic,quadrature,montecarlo")
    sw.add_argument("--trials", type=int, default=100_000)
    sw.add_argument("--seed", type=int, default=0)

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


# main's exit code for each error it reports, the first match winning:
# InfeasibleConfigError and UnsupportedModelError are ValueErrors, and any
# other ValueError is an argument the library rejects
_EXIT_CODES = (
    (InfeasibleConfigError, EXIT_INFEASIBLE),
    (UnsupportedModelError, EXIT_UNSUPPORTED),
    (UnresolvedNumericsError, EXIT_UNRESOLVED),
    (SearchError, EXIT_SEARCH),
    (ValueError, EXIT_PARSE),
)


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        config = load_scenario(args.scenario, args.set or ())
        # --out is opened before any point is computed, so a path that cannot
        # be written fails first, and for appending, so a failed run leaves it
        # as it was
        with (open(args.out, "a", encoding="utf-8", newline="\n") if args.out
              else nullcontext(sys.stdout)) as stream:
            if args.command in ("analytic", "quadrature"):
                lines = [CSV_HEADER, *_point_lines("scenario", "snr_db", config,
                                                   (args.command,))]
            elif args.command == "simulate":
                config.check_feasible()
                lines = [CSV_HEADER, *_point_lines("scenario", "snr_db", config,
                                                   ("montecarlo",), args.trials, args.seed)]
            elif args.command == "sweep":
                values = _grid(args.start, args.stop, args.points, args.spacing)
                methods = tuple(m.strip() for m in args.methods.split(",") if m.strip())
                lines = [CSV_HEADER, *run_sweep(config, args.var, values, methods,
                                                 args.trials, args.seed)]
            elif args.command == "find-snr":
                from . import analysis
                lines = ["%.2f" % analysis.find_snr_for_op(args.user, config, args.target,
                                                           args.lo, args.hi)]
            elif args.command == "find-w":
                from . import analysis
                # a negative count is an empty grid, which find_optimal_w rejects
                grid = np.linspace(0.05, 0.95, max(args.points, 0))
                lines = ["%.4f %.8e" % analysis.find_optimal_w(args.user, config, grid)]
            if args.out and os.fstat(stream.fileno()).st_size:
                stream.truncate(0)  # now that the text is ready; never a device or pipe
            stream.write("\n".join(lines) + "\n")
    except OSError as exc:
        # load_scenario reports its own, so this one is opening or writing the output
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except tuple(error for error, _ in _EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for error, code in _EXIT_CODES if isinstance(exc, error))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
