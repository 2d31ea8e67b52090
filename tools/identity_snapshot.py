"""Write a snapshot of ehnoma's outputs for a bit-identity check.

    python tools/identity_snapshot.py OUTDIR

imports ehnoma from the `src` directory of the checkout this script lives
in and writes into OUTDIR:

- `grid.txt`: `op_closed_form(...).hex()` on 486 points, m_sr = m_ru in
  1-3 x snr_db 0-40 in 5 dB steps x w {0.2, 0.5, 0.8} x xi {0, 0.02} x
  ranks 1-3, one `m snr_db w xi k hex` line each;
- `grid-asym.txt`: `op_closed_form` and `op_numerical` on hops of unequal
  rates, (m_sr, m_ru) in {(1, 2), (2, 1), (1, 3), (3, 1), (1.5, 2.5)} x
  d_sr {0.3, 0.7} at alpha 2.7 x snr_db 0-40 in 10 dB steps x ranks 1-3,
  one `m_sr m_ru d_sr snr_db k method result` line each, the result being
  the hex of the OP or the error's type and message (the closed form
  rejects m = 1.5 and 2.5);
- `grid-deep.txt`: `op_closed_form(...).hex()` deep in outage, where the
  closed form takes its high-precision pass, on 144 points, m_sr = m_ru in
  1-3 x snr_db 50-120 in 10 dB steps x xi {0, 0.02} x ranks 1-3, one
  `m snr_db xi k hex` line each;
- `grid-extreme.txt`: `op_closed_form` and `op_numerical` at extreme SNR,
  where float terms overflow and OPs reach the bottom of the doubles or
  underflow, m_sr = m_ru = 3 at snr_db 400-700 and m_sr = m_ru = 2 at
  snr_db 800-1000, in 50 dB steps x ranks 1-3, one
  `m snr_db k method result` line each, the result as in `grid-asym.txt`;
- for each of the shipped scenarios, six sweep CSVs (snr_db 0-40 in 11
  points analytic; w 0.1-0.9 in 9 points analytic and quadrature; m_sr =
  m_ru = 2 at snr_db 0-15 in 4 points analytic and quadrature; snr_db
  10-20 in 3 points analytic and Monte Carlo, 300,000 trials, two blocks,
  at seed 2, whose estimates run on every core; xi 0.001-0.02 in 3
  log-spaced points analytic and quadrature, feasible on every shipped
  scenario; m_sr = m_ru = 3 at w 0.1-0.9 in 9 points analytic, whose
  float passes sum by exponent bucket) and the
  stdout, stderr and exit code of `find-snr --user 2 --target 1e-3`, of
  `find-snr --user 3 --target 1e-6`, a deep target, of `find-w --user 1`,
  of `find-w --user 3`, of `find-w --user 2 --points 31` with m_sr = m_ru
  = 2, whose batched grid sums by exponent bucket,
  and of `simulate --trials 300000 --seed 4`, the last also with
  `--set n_rt=3`, which reaches the majority vote's tie-break, and of
  `simulate --trials 100000 --seed 4`, one block on a pool of one thread
  that draws its first hop in one call, and of
  `analytic` and `find-snr --user 2 --target 1e-3` with `--set m_sr=1.5`,
  which the closed form rejects, and of `analytic`,
  `find-snr --user 1 --target 1e-3` and `find-snr --user 3 --target 1e-3`
  with `--set xi=0.1`, which makes stage 2 infeasible: `analytic` marks
  every row, the rank-1 search succeeds, as it needs only stage 1, and the
  rank-3 search fails on stage 2; and of two invalid inputs,
  `find-snr --user 1 --target 1e-3 --lo 40 --hi 0`, a reversed bracket,
  and `find-w --user 1 --points -3`, a negative grid size;
- `analytic-out-dir.txt`: the stdout, stderr and exit code of `analytic`
  on `scenarios/perfect_sic.scn` with `--out scenarios`, a directory, which
  cannot be written;
- `find-snr-out.txt` and `find-w-out.txt`: the files that
  `find-snr --user 2 --target 1e-3` and `find-w --user 1` on
  `scenarios/perfect_sic.scn` write with `--out`, and
  `find-snr-out.streams.txt` and `find-w-out.streams.txt`: their stdout,
  stderr and exit code;
- `simulate-xi0.1-out.csv`: a file the script writes first, then passes as
  `--out` to `simulate --set xi=0.1` on `scenarios/perfect_sic.scn`, which
  fails on the infeasible stage and must leave it as it was, and
  `simulate-xi0.1-out.streams.txt`: that run's stdout, stderr and exit code;
- `sweep-mc-missing-dir.txt`: the stdout, stderr and exit code of the
  Monte Carlo sweep above (snr_db 10-20, 300,000 trials) on
  `scenarios/perfect_sic.scn` with `--out missing/x.csv`, in a directory
  that does not exist;
- `find-w-grid-end.txt` and `find-w-grid-flat.txt`: the stdout, stderr and
  exit code of `find-w --user 1 --set snr_db=60`, whose grid OP is lowest
  at its end w = 0.95, and of `find-w --user 2 --set snr_db=-60`, whose
  grid OP is 1 at every point, on `scenarios/perfect_sic.scn`; find-w
  refuses both.

That is 203 files.  To check that a change moves no output, copy this
script into a checkout of the parent commit, snapshot both checkouts and
compare with `diff -r PARENT_OUT CHANGE_OUT`.  The full snapshot takes
about 9-15 s on a 2-core machine, about 4 s of it in the extreme-SNR grid.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from ehnoma import SystemConfig, cli, op_closed_form, op_numerical  # noqa: E402

SWEEPS = {
    "snr": ["--var", "snr_db", "--start", "0", "--stop", "40", "--points", "11",
            "--methods", "analytic"],
    "w": ["--var", "w", "--start", "0.1", "--stop", "0.9", "--points", "9",
          "--methods", "analytic,quadrature"],
    "m22": ["--var", "snr_db", "--start", "0", "--stop", "15", "--points", "4",
            "--methods", "analytic,quadrature", "--set", "m_sr=2", "--set", "m_ru=2"],
    "mc": ["--var", "snr_db", "--start", "10", "--stop", "20", "--points", "3",
           "--methods", "analytic,montecarlo", "--trials", "300000", "--seed", "2"],
    "xi-log": ["--var", "xi", "--start", "0.001", "--stop", "0.02", "--points", "3",
               "--spacing", "log", "--methods", "analytic,quadrature"],
    "w-m33": ["--var", "w", "--start", "0.1", "--stop", "0.9", "--points", "9",
              "--methods", "analytic", "--set", "m_sr=3", "--set", "m_ru=3"],
}
# output file label: (command, arguments after the scenario)
COMMANDS = {
    "find-snr": ("find-snr", ["--user", "2", "--target", "1e-3"]),
    "find-snr-deep": ("find-snr", ["--user", "3", "--target", "1e-6"]),
    "find-w": ("find-w", ["--user", "1"]),
    "find-w-user3": ("find-w", ["--user", "3"]),
    "find-w-m22": ("find-w", ["--user", "2", "--points", "31", "--set", "m_sr=2",
                              "--set", "m_ru=2"]),
    "simulate": ("simulate", ["--trials", "300000", "--seed", "4"]),
    "simulate-n_rt3": ("simulate", ["--trials", "300000", "--seed", "4",
                                    "--set", "n_rt=3"]),
    "simulate-one-block": ("simulate", ["--trials", "100000", "--seed", "4"]),
    "analytic-m_sr1.5": ("analytic", ["--set", "m_sr=1.5"]),
    "find-snr-m_sr1.5": ("find-snr", ["--user", "2", "--target", "1e-3",
                                      "--set", "m_sr=1.5"]),
    "analytic-xi0.1": ("analytic", ["--set", "xi=0.1"]),
    "find-snr-user1-xi0.1": ("find-snr", ["--user", "1", "--target", "1e-3",
                                          "--set", "xi=0.1"]),
    "find-snr-user3-xi0.1": ("find-snr", ["--user", "3", "--target", "1e-3",
                                          "--set", "xi=0.1"]),
    "find-snr-reversed": ("find-snr", ["--user", "1", "--target", "1e-3",
                                       "--lo", "40", "--hi", "0"]),
    "find-w-points-3": ("find-w", ["--user", "1", "--points", "-3"]),
}
# output file label: (command, arguments after the scenario), run with --out
OUT_COMMANDS = {
    "find-snr-out": ("find-snr", ["--user", "2", "--target", "1e-3"]),
    "find-w-out": ("find-w", ["--user", "1"]),
}
# output file label: (command, arguments after the scenario), on perfect_sic.scn
SEARCH_REFUSALS = {
    "find-w-grid-end": ("find-w", ["--user", "1", "--set", "snr_db=60"]),
    "find-w-grid-flat": ("find-w", ["--user", "2", "--set", "snr_db=-60"]),
}


def grid_lines():
    for m in (1, 2, 3):
        for snr in range(0, 41, 5):
            for w in (0.2, 0.5, 0.8):
                for xi in (0.0, 0.02):
                    config = SystemConfig(m_sr=m, m_ru=m, snr_db=snr, w=w, xi=xi)
                    for k in (1, 2, 3):
                        yield f"{m} {snr} {w} {xi} {k} {op_closed_form(k, config).hex()}\n"


def method_results(k, config):
    """(method, hex of the OP or the error's type and message) per analytic method."""
    for name, op in (("closed", op_closed_form), ("quad", op_numerical)):
        try:
            yield name, op(k, config).hex()
        except (ArithmeticError, ValueError) as exc:
            yield name, f"{type(exc).__name__}: {exc}"


def asym_grid_lines():
    for m_sr, m_ru in ((1, 2), (2, 1), (1, 3), (3, 1), (1.5, 2.5)):
        for d_sr in (0.3, 0.7):
            for snr in range(0, 41, 10):
                config = SystemConfig(m_sr=m_sr, m_ru=m_ru, d_sr=d_sr, alpha=2.7,
                                      snr_db=snr)
                for k in (1, 2, 3):
                    for name, result in method_results(k, config):
                        yield f"{m_sr} {m_ru} {d_sr} {snr} {k} {name} {result}\n"


def deep_grid_lines():
    for m in (1, 2, 3):
        for snr in range(50, 121, 10):
            for xi in (0.0, 0.02):
                config = SystemConfig(m_sr=m, m_ru=m, snr_db=snr, xi=xi)
                for k in (1, 2, 3):
                    yield f"{m} {snr} {xi} {k} {op_closed_form(k, config).hex()}\n"


def extreme_grid_lines():
    for m, snrs in ((3, range(400, 701, 50)), (2, range(800, 1001, 50))):
        for snr in snrs:
            config = SystemConfig(m_sr=m, m_ru=m, snr_db=snr)
            for k in (1, 2, 3):
                for name, result in method_results(k, config):
                    yield f"{m} {snr} {k} {name} {result}\n"


def run_cli(argv):
    """(exit code, stdout, stderr) of one in-process CLI run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def record_cli(path: Path, argv) -> None:
    """Write one CLI run's exit code, stdout and stderr to path."""
    code, out, err = run_cli(argv)
    path.write_text(f"exit {code}\nstdout:\n{out}stderr:\n{err}")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    outdir = Path(argv[0]).resolve()
    outdir.mkdir(parents=True, exist_ok=True)
    # scenario paths relative to the checkout, so messages match across checkouts
    os.chdir(ROOT)
    (outdir / "grid.txt").write_text("".join(grid_lines()))
    (outdir / "grid-asym.txt").write_text("".join(asym_grid_lines()))
    (outdir / "grid-deep.txt").write_text("".join(deep_grid_lines()))
    (outdir / "grid-extreme.txt").write_text("".join(extreme_grid_lines()))
    for scn in sorted(Path("scenarios").glob("*.scn")):
        for name, args in SWEEPS.items():
            csv = outdir / f"{scn.stem}.sweep-{name}.csv"
            code, out, err = run_cli(["sweep", str(scn), "--out", str(csv), *args])
            if code:
                csv.write_text(f"exit {code}\n{out}{err}")
        for name, (command, args) in COMMANDS.items():
            record_cli(outdir / f"{scn.stem}.{name}.txt", [command, str(scn), *args])
    scn = "scenarios/perfect_sic.scn"
    # unwritable paths relative to the checkout, so the messages do not name OUTDIR
    record_cli(outdir / "analytic-out-dir.txt", ["analytic", scn, "--out", "scenarios"])
    record_cli(outdir / "sweep-mc-missing-dir.txt",
               ["sweep", scn, *SWEEPS["mc"], "--out", "missing/x.csv"])
    for name, (command, args) in OUT_COMMANDS.items():
        record_cli(outdir / f"{name}.streams.txt",
                   [command, scn, *args, "--out", str(outdir / f"{name}.txt")])
    for name, (command, args) in SEARCH_REFUSALS.items():
        record_cli(outdir / f"{name}.txt", [command, scn, *args])
    kept = outdir / "simulate-xi0.1-out.csv"
    kept.write_text("written before the run\n")
    record_cli(outdir / "simulate-xi0.1-out.streams.txt",
               ["simulate", scn, "--set", "xi=0.1", "--trials", "100000", "--out", str(kept)])
    return 0

if __name__ == "__main__":
    sys.exit(main())
