"""Compare a change with its parent on one benchmark workload, in pairs of runs.

    python3 tools/bench_pairs.py PARENT_CHECKOUT --workload W --seeds A-B

For each seed from A to B it runs BENCHMARK.json's command (perfbench/run.py)
with that seed, the workload, BENCHMARK.json's run_seconds and --trace 0, once
in PARENT_CHECKOUT and once in the checkout this script lives in, each from
its own tree, the parent first in the first pair and in every other pair
after it, so that both sides see the machine's drift alike.  It fails (exit 1)
on any run that does not report `correct: true` or that fails more
operations than the parent's run of the same seed.

For each end-to-end metric it prints each side's median and quartiles, the
number of pairs the change wins (is strictly better in), whether a claimed
gain would hold and the no-regression verdict.  A claimed gain holds when
the change wins at least 9 pairs in 10 and its median is better than the
parent's by more than the parent's interquartile distance.  The verdict is
"holds" when the change's median is worse than the parent's by at most the
metric's BENCHMARK.json bound, a fraction of the parent's median, and
"regressed" when it is worse by more; it is "unresolved" when the parent's
interquartile distance exceeds that bound, as the runs then spread too
widely to tell, unless every change run is better than every parent run.
Quartiles are statistics.quantiles(..., n=4, method="inclusive").

It also writes what it prints to BENCH_<W>.json beside BENCHMARK.json: each
run's metrics, each metric's quartiles, wins, claim and verdict, and the
seeds, the pair count, the machine (cores, CPU model, numpy, scipy and
mpmath versions) and both checkouts' git revisions, each with a flag that
says whether its measured code, the tracked files under src/ and perfbench/,
differed from that revision.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from importlib.metadata import version
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def seed_range(text: str) -> list:
    first, _, last = text.partition("-")
    seeds = list(range(int(first), int(last or first) + 1))
    if not seeds:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return seeds


def run(checkout: Path, workload: str, seed: int) -> dict:
    """The JSON report of one benchmark run in checkout."""
    argv = [*SPEC["command"], "--workload", workload, "--seed", str(seed),
            "--seconds", str(SPEC["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        raise SystemExit(f"{checkout} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(lines[-1])


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def revision(checkout: Path) -> dict:
    """checkout's HEAD commit, and whether a tracked file under src/ or
    perfbench/, the code a run measures, differs from it.  Other files, such
    as documentation and the BENCH files this script writes, do not count."""
    def git(*args):
        return subprocess.run(["git", *args], cwd=checkout, capture_output=True,
                              text=True).stdout.strip()
    return {"commit": git("rev-parse", "HEAD") or None,
            "dirty": bool(git("status", "--porcelain", "--untracked-files=no", "--",
                              "src", "perfbench"))}


def summary(values) -> tuple:
    """(q1, median, q3)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def cell(quartiles) -> str:
    q1, median, q3 = quartiles
    return f"{median:.4g} [{q1:.4g}, {q3:.4g}]"


def verdict(metric: dict, values: dict, parent: tuple, change: tuple) -> str:
    """"holds", "regressed" or "unresolved": is the change's median within
    metric's bound of the parent's (see the module docstring)?"""
    sign = 1 if metric["better"] == "lower" else -1
    allowed = metric["bound"] * abs(parent[1])
    # every change run better than every parent run
    if max(sign * v for v in values["change"]) < min(sign * v for v in values["parent"]):
        return "holds"
    if parent[2] - parent[0] > allowed:
        return "unresolved"
    return "holds" if sign * (change[1] - parent[1]) <= allowed else "regressed"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seeds", type=seed_range, required=True, metavar="A-B")
    args = parser.parse_args(argv)
    sides = {"parent": args.parent.resolve(), "change": ROOT}
    reports = {"parent": [], "change": []}
    problems = []
    for i, seed in enumerate(args.seeds):
        for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
            report = run(sides[side], args.workload, seed)
            reports[side].append(report)
            if not report["correct"]:
                problems.append(f"{side} seed {seed}: not correct")
        failed = [reports[side][-1]["failed"] for side in ("parent", "change")]
        if failed[1] > failed[0]:
            problems.append(f"seed {seed}: change failed {failed[1]} operations, "
                            f"parent {failed[0]}")
        print(f"seed {seed}: " + "  ".join(
            f"{side} " + " ".join(f"{name}={m['value']:.4g}"
                                  for name, m in reports[side][-1]["metrics"].items())
            for side in ("parent", "change")), flush=True)
    pairs = len(args.seeds)
    print(f"\n{args.workload}, seeds {args.seeds[0]}-{args.seeds[-1]}, {pairs} pairs")
    print(f"{'metric':14s} {'parent median [q1, q3]':32s} {'change median [q1, q3]':32s}"
          " wins    claim    no regression")
    table = {}
    for metric in SPEC["end_to_end"]:
        name = metric["name"]
        values = {side: [r["metrics"][name]["value"] for r in reports[side]]
                  for side in reports}
        sign = 1 if metric["better"] == "lower" else -1
        wins = sum(sign * (c - p) < 0 for p, c in zip(values["parent"], values["change"]))
        parent, change = (summary(values[side]) for side in reports)
        holds = wins >= 0.9 * pairs and sign * (parent[1] - change[1]) > parent[2] - parent[0]
        no_regression = verdict(metric, values, parent, change)
        print(f"{name:14s} {cell(parent):32s} {cell(change):32s} {wins:2d}/{pairs:<4d} "
              f"{'holds' if holds else 'not met':8s} {no_regression}")
        table[name] = {"unit": metric["unit"], "better": metric["better"],
                       "bound": metric["bound"],
                       **{side: dict(zip(("q1", "median", "q3"), quartiles))
                          for side, quartiles in (("parent", parent), ("change", change))},
                       "wins": wins, "claim_holds": holds, "no_regression": no_regression}
    for problem in problems:
        print(f"FAIL: {problem}", file=sys.stderr)
    bench = {
        "workload": args.workload, "seeds": args.seeds, "pairs": pairs,
        "run_seconds": SPEC["run_seconds"],
        "machine": {"cores": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                    else os.cpu_count(),
                    "cpu": cpu_model(), "python": platform.python_version(),
                    **{lib: version(lib) for lib in ("numpy", "scipy", "mpmath")}},
        "revisions": {side: revision(path) for side, path in sides.items()},
        "metrics": table,
        "runs": {side: [{"seed": seed, **{name: m["value"] for name, m in r["metrics"].items()}}
                        for seed, r in zip(args.seeds, reports[side])] for side in reports},
        "problems": problems,
    }
    (ROOT / f"BENCH_{args.workload}.json").write_text(json.dumps(bench, indent=1) + "\n")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
