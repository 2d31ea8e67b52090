#!/usr/bin/env python3
"""Benchmark of ehnoma, run from the repository root:

    python3 perfbench/run.py --workload op_curve --seed 1 --seconds 24 --trace 0

It imports ehnoma from ./src, calls its public functions in whole rounds of
the workload's operations, as many as fill --seconds on the machine the
benchmark was set up on (spec.ROUND_S), times every call from outside, and checks every output (see checks.py).  It prints a report, then
one JSON line: the end-to-end metrics of BENCHMARK.json with --trace 0, or
its per-layer metrics with --trace 1.  Traced runs run each operation
untraced and traced in turn and write their spans to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial

import numpy as np

import checks
import reference
import spec

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

SETUP_PROBES = 3
DEEP_OP = 1e-5          # a closed-form call is deep when its point's OP is below this
BLOCK_PROBES = 3        # simulate_block repetitions per fading case in a traced run

# Set-up as a user pays it: a fresh interpreter imports the program with
# numpy, scipy and mpmath, then parses the workload's scenarios.
SETUP_CODE = """
import json, sys
sys.path.insert(0, sys.argv[1])
import numpy, scipy, mpmath
import ehnoma
from ehnoma.cli import parse_scenario
for text in json.load(sys.stdin):
    parse_scenario(text)
"""


def import_program():
    sys.path.insert(0, SRC)
    try:
        import ehnoma
        from ehnoma import cli, montecarlo
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import ehnoma from {SRC}: {exc}")
    if os.path.dirname(os.path.abspath(ehnoma.__file__)) != os.path.join(SRC, "ehnoma"):
        raise SystemExit(f"perfbench: ehnoma came from {ehnoma.__file__}, not {SRC}")
    return ehnoma, cli, montecarlo


ehnoma, cli, montecarlo = import_program()


class Tracer:
    """Spans (name, start, end, parent) kept in memory, written out at the end."""

    def __init__(self):
        self.spans = []
        self.round = None
        self._stack = []

    @contextmanager
    def span(self, name: str, **attrs):
        rec = {"id": len(self.spans), "name": name, "round": self.round,
               "parent": self._stack[-1] if self._stack else None, **attrs}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def closed_form_calls_inside_cli(self):
        """Span every closed-form call the search functions make."""
        original = cli.op_closed_form

        def op_closed_form(k, config):
            with self.span("analysis.op_closed_form") as rec:
                value = original(k, config)
                # search points have no stored reference; the returned OP
                # stands in for it (its worst known error is a few per cent)
                rec["deep"] = value < DEEP_OP
            return value

        cli.op_closed_form = op_closed_form
        try:
            yield
        finally:
            cli.op_closed_form = original

    def write(self, path: str):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


@dataclass
class Op:
    kind: str                   # closed | quad | mc | snr | w
    key: str                    # point or search the operation runs on
    call: object                # () -> output
    span: str                   # name of the layer call it times
    attrs: dict = field(default_factory=dict)


@dataclass
class Round:
    traced: bool
    times: list = field(default_factory=list)
    outputs: list = field(default_factory=list)

    @property
    def wall(self) -> float:
        """Wall time of the round's operations, back to back."""
        return sum(self.times)


def timed(op, tracer=None):
    t0 = time.perf_counter()
    if tracer is None:
        out = op.call()
    else:
        with tracer.span(op.span, **op.attrs), tracer.closed_form_calls_inside_cli():
            out = op.call()
    return time.perf_counter() - t0, out


def run_round(ops, tracer=None):
    """One pass over the operations: [untraced round] or [untraced, traced].

    With a tracer each operation runs twice in a row, alternately traced
    first and second, so that both passes see the same machine speed and
    their difference is the tracing overhead.
    """
    rounds = [Round(False)] + ([Round(True)] if tracer else [])
    for i, op in enumerate(ops):
        for r in (rounds[::-1] if i % 2 else rounds):
            t, out = timed(op, tracer if r.traced else None)
            r.times.append(t)
            r.outputs.append(out)
    return rounds


def run_rounds(ops, rounds: int, tracer=None):
    """The given number of rounds; traced, each round runs every operation twice."""
    out = []
    for i in range(rounds):
        if tracer is not None:
            tracer.round = i
        out += run_round(ops, tracer)
    return out


# ---------------------------------------------------------------- workloads

class Workload:
    """Builds a workload's operations from the seed and checks their outputs."""

    def __init__(self, seed: int, refs: dict):
        self.seed = seed
        self.refs = refs
        self.configs = {}

    def config(self, params: dict):
        """The point as the program sees it, through its own scenario parser."""
        text = spec.scenario_text(params)
        if text not in self.configs:
            self.configs[text] = cli.parse_scenario(text)
        return self.configs[text]

    def shuffled(self, ops):
        random.Random(self.seed).shuffle(ops)
        return ops


class OpCurve(Workload):
    workers = 0

    def ops(self):
        ops = []
        for method, params, k in spec.curve_ops():
            cfg, key = self.config(params), spec.point_id(params, k)
            if method == "closed":
                ops.append(Op("closed", key, partial(ehnoma.op_closed_form, k, cfg),
                              "analysis.op_closed_form",
                              {"deep": self.refs[key] < DEEP_OP}))
            else:
                ops.append(Op("quad", key, partial(ehnoma.op_numerical, k, cfg),
                              "analysis.op_numerical"))
        return self.shuffled(ops)

    def check(self, ops, outputs):
        failed, problems = [], []
        for op, value in zip(ops, outputs):
            if checks.op_matches(value, self.refs[op.key], spec.OP_RTOL):
                continue
            line = f"{op.kind} {op.key}: {float(value)!r} vs reference {self.refs[op.key]!r}"
            if (op.kind, op.key) in spec.KNOWN_FAULTS:
                failed.append(line + " -- " + spec.KNOWN_FAULTS[(op.kind, op.key)])
            else:
                problems.append(line)
        return failed, problems


class McCrosscheck(Workload):
    workers = len(os.sched_getaffinity(0))

    def ops(self):
        ops = []
        for params in spec.mc_points():
            cfg = self.config(params)
            ops.append(Op("mc", spec.point_id(params, 0),
                          partial(ehnoma.estimate_op, cfg, spec.MC_TRIALS,
                                  seed=self.seed, workers=self.workers),
                          "montecarlo.estimate_op", {"m": params["m_sr"]}))
        return self.shuffled(ops)

    def check(self, ops, outputs):
        problems = []
        for op, est in zip(ops, outputs):
            params = spec.point(snr_db=spec.MC_SNR, m_sr=op.attrs["m"], m_ru=op.attrs["m"])
            for k in spec.RANKS:
                ref = self.refs[spec.point_id(params, k)]
                if not checks.mc_contains(est.op_hat[k - 1], est.trials, ref, spec.MC_Z):
                    problems.append(f"mc {op.key} k={k}: {est.op_hat[k - 1]!r} over "
                                    f"{est.trials} trials vs reference {ref!r}")
        # bit-identity across worker counts, on a small run of two blocks
        small = montecarlo.BLOCK_SIZE + montecarlo.BLOCK_SIZE // 2
        for params in spec.mc_points():
            cfg = self.config(params)
            one = ehnoma.estimate_op(cfg, small, seed=self.seed, workers=1)
            many = ehnoma.estimate_op(cfg, small, seed=self.seed, workers=self.workers)
            if not checks.mc_identical(one, many):
                problems.append(f"mc m={params['m_sr']}: 1 worker {one.op_hat} vs "
                                f"{self.workers} workers {many.op_hat}")
        return [], problems


class DesignSearch(Workload):
    workers = 0

    def ops(self):
        ops = []
        for params, k, lo, hi in spec.snr_searches():
            ops.append(Op("snr", spec.point_id(params, k),
                          partial(cli.find_snr_for_op, k, self.config(params),
                                  spec.SNR_TARGET, lo, hi),
                          "cli.find_snr_for_op", {"params": params, "k": k}))
        for params, k, points in spec.w_searches():
            ops.append(Op("w", spec.point_id(params, k),
                          partial(cli.find_optimal_w, k, self.config(params),
                                  np.linspace(0.05, 0.95, points)),
                          "cli.find_optimal_w", {"params": params, "k": k}))
        return self.shuffled(ops)

    def check(self, ops, outputs):
        problems, w_by_m = [], {}
        for op, out in zip(ops, outputs):
            params, k = op.attrs["params"], op.attrs["k"]
            if op.kind == "snr":
                ref = lambda snr: reference.op_fast(dict(params, snr_db=snr), k)
                if not checks.snr_brackets_target(out, ref, spec.SNR_TARGET):
                    problems.append(f"find-snr {op.key}: {out!r} dB does not bracket "
                                    f"OP {spec.SNR_TARGET:g} at +-0.05 dB")
                continue
            w_star, op_star = out
            ref = lambda w: reference.op_fast(dict(params, w=w), k)
            if not checks.w_is_local_min(w_star, ref):
                problems.append(f"find-w {op.key}: reference OP at w*={w_star!r} "
                                f"exceeds its value at w* +- 0.01")
            at = ref(w_star)
            if not checks.op_matches(op_star, at, spec.OP_RTOL):
                problems.append(f"find-w {op.key}: OP {op_star!r} at w*={w_star!r} vs "
                                f"reference {at!r}")
            w_by_m.setdefault(params["m_sr"], {})[k] = w_star
        for m, w_by_rank in w_by_m.items():
            if not checks.w_ordered(w_by_rank):
                problems.append(f"find-w m={m}: w* by rank {w_by_rank} not decreasing")
        return [], problems


WORKLOADS = {"op_curve": OpCurve, "mc_crosscheck": McCrosscheck,
             "design_search": DesignSearch}


# ------------------------------------------------------------------ metrics

def setup_seconds(texts) -> float:
    """Median wall time of fresh interpreters doing the program's set-up."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE, SRC], input=json.dumps(texts),
                       text=True, check=True, timeout=120)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def peak_rss_mib(workers: int) -> float:
    """Peak RSS of this process plus, per pool worker, the largest worker peak.

    Read before any set-up probe runs, so the children counted are pool workers.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss if workers else 0
    return (own + workers * child) / 1024.0


def tail(times):
    """(percentile, time) of the highest percentile with ten samples beyond it."""
    n = len(times)
    if n < 40:
        return None
    pct = 100.0 * (n - 10) / n
    return pct, sorted(times)[n - 11]


def block_seconds(tracer, workload) -> dict:
    """Single-process time of one full block per fading case (serial baseline)."""
    out = {}
    for params in spec.mc_points():
        cfg = workload.config(params)
        times = []
        for rep in range(BLOCK_PROBES):
            with tracer.span("montecarlo.simulate_block", m=params["m_sr"]) as rec:
                montecarlo.simulate_block(cfg, rep, 0, montecarlo.BLOCK_SIZE)
            times.append(rec["end"] - rec["start"])
        out[params["m_sr"]] = statistics.median(times)
    return out


def layer_metrics(tracer, rounds, workload) -> dict:
    """Per-layer metrics: per-round sums and counts, median over traced rounds."""
    def dur(rec):
        return rec["end"] - rec["start"]

    per_round = []
    for r in sorted({s["round"] for s in tracer.spans if s["round"] is not None}):
        spans = [s for s in tracer.spans if s["round"] == r]
        by_id = {s["id"]: s for s in spans}
        closed = [s for s in spans if s["name"] == "analysis.op_closed_form"]
        quad = [s for s in spans if s["name"] == "analysis.op_numerical"]
        est = [s for s in spans if s["name"] == "montecarlo.estimate_op"]
        row = {
            "analysis.op_closed_form.calls": len(closed),
            "analysis.op_closed_form.shallow_s": sum(dur(s) for s in closed if not s["deep"]),
            "analysis.op_closed_form.deep_s": sum(dur(s) for s in closed if s["deep"]),
            "analysis.op_numerical.calls": len(quad),
            "analysis.op_numerical.s": sum(dur(s) for s in quad),
            "montecarlo.estimate_op.s": sum(dur(s) for s in est),
            "montecarlo.blocks": len(est) * math.ceil(spec.MC_TRIALS / montecarlo.BLOCK_SIZE),
        }
        for name in ("cli.find_snr_for_op", "cli.find_optimal_w"):
            roots = [s for s in spans if s["name"] == name]
            row[name + ".s"] = sum(dur(s) for s in roots)
            row[name + ".closed_form_calls"] = sum(
                1 for s in closed if s["parent"] is not None
                and by_id[s["parent"]]["name"] == name)
        per_round.append((row, est))
    metrics = {name: statistics.median(row[name] for row, _ in per_round)
               for name in per_round[0][0]}

    blocks = block_seconds(tracer, workload) if workload.workers else {}
    for m, label in ((1.0, "s_m1"), (2.0, "s_m2"), (1.5, "s_mfrac")):
        metrics["montecarlo.simulate_block." + label] = blocks.get(m, 0.0)
    est_s, estimates = metrics["montecarlo.estimate_op.s"], per_round[0][1]
    if est_s > 0:
        serial = sum(spec.MC_TRIALS / montecarlo.BLOCK_SIZE * blocks[s["m"]]
                     for s in estimates)
        metrics["montecarlo.parallel_efficiency"] = serial / (workload.workers * est_s)
        metrics["montecarlo.trials_per_s"] = len(estimates) * spec.MC_TRIALS / est_s
    else:
        metrics["montecarlo.parallel_efficiency"] = 0.0
        metrics["montecarlo.trials_per_s"] = 0.0
    walls = {traced: statistics.median(r.wall for r in rounds if r.traced == traced)
             for traced in (False, True)}
    metrics["trace.overhead_s"] = walls[True] - walls[False]
    return metrics


# --------------------------------------------------------------------- main

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    wanted = bench["per_layer" if args.trace else "end_to_end"]

    workload = WORKLOADS[args.workload](args.seed, reference.load())
    ops = workload.ops()
    tracer = Tracer() if args.trace else None
    count = max(1, round(args.seconds / spec.ROUND_S[args.workload]))
    if tracer is not None:
        count = max(1, count // 2)
    rounds = run_rounds(ops, count, tracer)
    rss = peak_rss_mib(workload.workers)

    failed, problems = workload.check(ops, rounds[0].outputs)
    for i, r in enumerate(rounds[1:], start=2):
        for op, a, b in zip(ops, rounds[0].outputs, r.outputs):
            if a != b:
                problems.append(f"round {i} {op.kind} {op.key}: {b!r} differs from {a!r}")

    times = [t for r in rounds if not r.traced for t in r.times]
    print(f"workload {args.workload}, seed {args.seed}: {len(rounds)} rounds of "
          f"{len(ops)} operations, round wall {[round(r.wall, 3) for r in rounds]} s")
    for line in failed:
        print("FAILED (known fault) " + line)
    for line in problems:
        print("WRONG " + line)
    print(f"op_p50_s: {statistics.median(times):.6f} s over {len(times)} operations")
    tail_at = tail(times)
    if tail_at:
        print(f"op_tail_s: p{tail_at[0]:.1f} of {len(times)} operations = {tail_at[1]:.6f} s")
    if workload.workers:
        print(f"mc_trials_per_s: {len(times) * spec.MC_TRIALS / sum(times):.6g} "
              f"with {workload.workers} workers")

    if args.trace:
        metrics = layer_metrics(tracer, rounds, workload)
        tracer.write(os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.jsonl"))
    else:
        metrics = {
            "setup_s": setup_seconds(sorted(workload.configs)),
            "wall_s": statistics.median(r.wall for r in rounds),
            "peak_rss_mib": rss,
        }
    mismatch = {m["name"] for m in wanted} ^ set(metrics)
    if mismatch:
        raise RuntimeError(f"metrics out of step with BENCHMARK.json: {sorted(mismatch)}")
    result = {
        "correct": not problems,
        "attempted": len(ops) * len(rounds),
        "failed": len(failed) * len(rounds),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
