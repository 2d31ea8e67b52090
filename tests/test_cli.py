"""Scenario parsing, sweeps, searches, CSV output, exit codes and imports."""

import math
import os
import re
import subprocess
import sys
from dataclasses import fields, replace
from functools import partial
from pathlib import Path
from typing import get_type_hints

import numpy as np
import pytest

import ehnoma
from ehnoma import SystemConfig, analysis, cli, estimate_op, op_closed_form
from ehnoma.analysis import find_optimal_w, find_snr_for_op
from ehnoma.cli import (
    CSV_HEADER,
    EXIT_INFEASIBLE,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_SEARCH,
    EXIT_UNRESOLVED,
    EXIT_UNSUPPORTED,
    ScenarioParseError,
    SearchError,
    load_scenario,
    main,
    parse_scenario,
    run_sweep,
)

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
KEY_TYPES = get_type_hints(SystemConfig)


def _fmt_num(v) -> str:
    if float(v).is_integer():
        return str(int(v))
    return repr(float(v))


def serialize_scenario(config: SystemConfig) -> str:
    """Canonical scenario text; parse(serialize(c)) == c."""
    lines = []
    for f in fields(SystemConfig):
        v = getattr(config, f.name)
        if KEY_TYPES[f.name] is tuple:
            lines.append(f"{f.name} = " + ", ".join(_fmt_num(x) for x in v))
        elif KEY_TYPES[f.name] is int:
            lines.append(f"{f.name} = {int(v)}")
        else:
            lines.append(f"{f.name} = {_fmt_num(v)}")
    return "\n".join(lines) + "\n"


def write_scenario(tmp_path, config=None, name="case.scn"):
    path = tmp_path / name
    path.write_text(serialize_scenario(config or SystemConfig()))
    return str(path)


class TestScenarioFormat:
    def test_roundtrip_defaults(self):
        c = SystemConfig()
        assert parse_scenario(serialize_scenario(c)) == c

    def test_roundtrip_nondefault(self):
        c = SystemConfig(a=(0.5, 0.35, 0.15), gamma_th=(1.0, 1.5, 2.0),
                         xi=0.02, w=0.37, snr_db=17.5, n_u=3, m_sr=2, d_sr=0.35)
        assert parse_scenario(serialize_scenario(c)) == c

    def test_comments_and_blank_lines(self):
        text = "# header\n\nsnr_db = 25  # inline note\n"
        assert parse_scenario(text) == SystemConfig(snr_db=25)

    def test_list_valued_keys(self):
        c = parse_scenario("a = 0.5, 0.3, 0.2\ngamma_th = 1, 1, 1\n")
        assert c.a == (0.5, 0.3, 0.2)

    @pytest.mark.parametrize("key", [k for k, kind in KEY_TYPES.items() if kind is int])
    def test_integer_keys_reject_floats(self, key):
        with pytest.raises(ScenarioParseError, match=f"bad value for {key}: '2.5'"):
            parse_scenario(f"{key} = 2.5\n")

    def test_missing_equals(self):
        with pytest.raises(ScenarioParseError, match="line 1"):
            parse_scenario("snr_db 20\n")

    def test_unknown_key(self):
        with pytest.raises(ScenarioParseError, match="unknown"):
            parse_scenario("snr = 20\n")

    def test_derived_stages_not_a_key(self):
        with pytest.raises(ScenarioParseError, match=r"unknown scenario keys: \['stages'\]"):
            parse_scenario("stages = 1\n")

    def test_invalid_config_value(self):
        with pytest.raises(ScenarioParseError):
            parse_scenario("w = 1.5\n")

    def test_shipped_scenarios_parse(self):
        files = sorted(SCENARIO_DIR.glob("*.scn"))
        assert files, "scenario directory must ship example files"
        for f in files:
            load_scenario(str(f))


def as_rows(lines):
    """CSV lines as dicts keyed by the header's columns."""
    return [dict(zip(CSV_HEADER.split(","), line.split(","))) for line in lines]


class TestSweepSpec:
    """A sweep's values from the CLI's grid flags; the sweeps run_sweep rejects."""

    def grid_values(self, tmp_path, capsys, *flags):
        """The value of each point of an analytic sweep over flags."""
        path = write_scenario(tmp_path)
        assert main(["sweep", path, "--points", "3", *flags]) == EXIT_OK
        rows = as_rows(capsys.readouterr().out.splitlines()[1:])
        return [float(r["value"]) for r in rows if r["user"] == "1"]

    def test_linear_grid(self, tmp_path, capsys):
        values = self.grid_values(tmp_path, capsys, "--var", "snr_db",
                                  "--start", "0", "--stop", "10")
        assert values == pytest.approx([0.0, 5.0, 10.0])

    def test_log_grid(self, tmp_path, capsys):
        values = self.grid_values(tmp_path, capsys, "--var", "xi", "--start", "0.001",
                                  "--stop", "0.1", "--spacing", "log")
        assert values == pytest.approx([0.001, 0.01, 0.1])

    @pytest.mark.parametrize("kw", [
        {"variable": "zeta"}, {"values": []}, {"methods": ()},
        {"methods": ("exact",)}, {"methods": ("analytic", "exact")},
        {"variable": "w", "values": [0.5, 1.5]},
    ])
    def test_rejects_invalid(self, kw):
        args = dict(base=SystemConfig(), variable="snr_db", values=[0.0, 5.0, 10.0],
                    methods=("analytic",), trials=100_000, seed=0)
        args.update(kw)
        with pytest.raises(ValueError):
            run_sweep(**args)

    def test_domain_checked_before_any_point(self, monkeypatch):
        def evaluated(*args):
            raise AssertionError("a point was evaluated")

        # _point_lines reaches the engine through the analysis module
        monkeypatch.setattr(analysis, "op_closed_form", evaluated)
        monkeypatch.setattr(analysis, "op_numerical", evaluated)
        with pytest.raises(ValueError, match=re.escape("w must be in (0, 1)")):
            run_sweep(SystemConfig(), "w", [0.5, 1.5], ("analytic",), 100_000, 0)


class TestRunSweep:
    def test_row_structure_and_order(self):
        rows = as_rows(run_sweep(SystemConfig(), "snr_db", [10.0, 20.0],
                                 ("montecarlo", "analytic"), 2000, 0))
        assert len(rows) == 2 * 3 * 2
        # analytic precedes montecarlo inside each grid point
        assert [r["method"] for r in rows[:6]] == ["analytic", "montecarlo"] * 3
        assert rows[0]["user"] == "1" and rows[2]["user"] == "2"
        mc = rows[1]
        assert mc["trials"] == "2000" and mc["ci_halfwidth"] != ""
        assert rows[0]["ci_halfwidth"] == "" and rows[0]["trials"] == ""

    def test_analytic_rows_match_library(self):
        rows = as_rows(run_sweep(SystemConfig(), "snr_db", [15.0], ("analytic",), 0, 0))
        expect = op_closed_form(2, SystemConfig(snr_db=15))
        got = float(next(r["op"] for r in rows if r["user"] == "2"))
        assert got == pytest.approx(expect, rel=1e-8)

    def test_infeasible_points_marked(self):
        rows = as_rows(run_sweep(SystemConfig(), "xi", np.linspace(0.0, 0.1, 3),
                                 ("analytic",), 0, 0))
        by_value = {}
        for r in rows:
            by_value.setdefault(r["value"], set()).add(r["op"])
        assert by_value["0.1"] == {"infeasible"}
        assert "infeasible" not in by_value["0"]

    def test_csv_is_deterministic(self, tmp_path):
        argv = ["sweep", write_scenario(tmp_path), "--var", "w", "--start", "0.3",
                "--stop", "0.7", "--points", "3", "--methods", "analytic,montecarlo",
                "--trials", "5000", "--seed", "0"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main([*argv, "--out", str(a)]) == EXIT_OK
        assert main([*argv, "--out", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()
        assert a.read_text().startswith(CSV_HEADER + "\n")


def bisect_values(k, config, target_op, lo_db, hi_db):
    """find_snr_for_op's bisection deciding each step on op_closed_form's value."""
    f_lo = op_closed_form(k, replace(config, snr_db=lo_db))
    if f_lo == target_op:
        return lo_db
    f_hi = op_closed_form(k, replace(config, snr_db=hi_db))
    assert f_lo > target_op > f_hi
    lo, hi = lo_db, hi_db
    while hi - lo > 0.1:
        mid = 0.5 * (lo + hi)
        if op_closed_form(k, replace(config, snr_db=mid)) > target_op:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def scan_values(k, config, grid):
    """find_optimal_w's grid scan and golden section, one op_closed_form call a point:
    the lowest OP evaluated, and its w, from an argmin inside the grid."""
    grid = sorted(grid)
    ops = [op_closed_form(k, replace(config, w=float(w))) for w in grid]
    i = int(np.argmin(ops))
    if i in (0, len(grid) - 1):
        raise SearchError(f"grid argmin at its end w={grid[i]}")
    evaluated = {float(grid[i]): ops[i]}

    def f(w):
        evaluated[float(w)] = op = op_closed_form(k, replace(config, w=float(w)))
        return op

    a, b = grid[i - 1], grid[i + 1]
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    c, d = b - invphi * (b - a), a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > 1e-3:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    w_star = min(evaluated, key=evaluated.get)
    return w_star, evaluated[w_star]


def count_passes(monkeypatch):
    """The pass, "float" or "exact", of every closed-form point summed from now on."""
    passes = []
    for name, label in (("_closed_form_sums", "float"), ("_exact_sum", "exact")):
        def counting(*args, label=label, real=getattr(analysis, name)):
            # the float pass takes X's, the exact pass one X
            passes.extend([label] * np.size(args[1]))
            return real(*args)

        monkeypatch.setattr(analysis, name, counting)
    return passes


# the paper's target-SNR searches at OP 1e-3, as the design benchmark runs
# them, (m, n_s, n_rr, n_u) with m_sr = m_ru = m over [0, 70] dB at m=1 and
# [0, 20] dB at m=2, and the m=2 ones also over [0, 70] dB
SNR_SEARCHES = [
    (dict(m_sr=m, m_ru=m, n_s=n_s, n_rr=n_rr, n_u=n_u), k, 0.0, hi)
    for m, n_s, n_rr, n_u, hi in ((1, 1, 1, 1, 70.0), (1, 2, 1, 1, 70.0),
                                  (1, 2, 1, 2, 70.0), (1, 2, 2, 2, 70.0),
                                  (2, 2, 2, 2, 20.0), (2, 2, 2, 2, 70.0))
    for k in (1, 2, 3)
]


class TestFindSnr:
    @pytest.mark.parametrize("kwargs,k,lo,hi", SNR_SEARCHES)
    def test_float_sides_match_value_bisection(self, monkeypatch, kwargs, k, lo, hi):
        # every step, the 70 dB end included, is decided by the float sum,
        # and on the side the value-based bisection takes
        config = SystemConfig(**kwargs)
        expect = bisect_values(k, config, 1e-3, lo, hi)
        passes = count_passes(monkeypatch)
        assert find_snr_for_op(k, config, 1e-3, lo, hi) == expect
        assert passes and set(passes) == {"float"}

    def test_target_at_deep_point_returns_lo(self, monkeypatch):
        # at 60 dB the float sum lies below its own rounding noise, so a
        # target equal to the point's OP falls back to the value, exactly,
        # resolved from the probe's one float pass
        target = op_closed_form(2, SystemConfig(snr_db=60.0))
        passes = count_passes(monkeypatch)
        assert find_snr_for_op(2, SystemConfig(), target, 60.0, 70.0) == 60.0
        assert passes == ["float", "exact"]

    @pytest.mark.parametrize("target,lo,hi", [(1e-30, 0.0, 10.0), (0.9, 30.0, 60.0)])
    def test_no_bracket_reports_both_endpoints(self, target, lo, hi):
        f_lo, f_hi = (op_closed_form(1, SystemConfig(snr_db=s)) for s in (lo, hi))
        with pytest.raises(SearchError,
                           match=re.escape(f"(endpoints {f_lo:.3e}, {f_hi:.3e})")):
            find_snr_for_op(1, SystemConfig(), target, lo, hi)

    def test_hits_target(self):
        c = SystemConfig()
        target = 1e-3
        snr = find_snr_for_op(2, c, target, 0.0, 60.0)
        got = op_closed_form(2, SystemConfig(snr_db=snr))
        # within the 0.05 dB stopping width of the true crossing
        lo = op_closed_form(2, SystemConfig(snr_db=snr + 0.06))
        hi = op_closed_form(2, SystemConfig(snr_db=snr - 0.06))
        assert lo <= target <= hi
        assert math.isclose(got, target, rel_tol=0.05)

    def test_no_bracket(self):
        with pytest.raises(SearchError):
            find_snr_for_op(1, SystemConfig(), 1e-30, 0.0, 10.0)

    @pytest.mark.parametrize("lo,hi", [(40.0, 0.0), (20.0, 20.0), (math.nan, 60.0)])
    def test_bracket_needs_lo_below_hi(self, monkeypatch, lo, hi):
        # invalid input (a ValueError, where a failed search raises a
        # SearchError), found before any point is summed
        passes = count_passes(monkeypatch)
        message = f"bracket [{lo}, {hi}] dB needs lo < hi"
        with pytest.raises(ValueError, match=re.escape(message)):
            find_snr_for_op(1, SystemConfig(), 1e-3, lo, hi)
        assert passes == []

    def test_bad_target(self):
        with pytest.raises(ValueError, match=re.escape("target OP must be in (0,1)")):
            find_snr_for_op(1, SystemConfig(), 0.0, 0.0, 60.0)


class TestFindW:
    def test_interior_minimum(self):
        c = SystemConfig(snr_db=20)
        w_star, op_star = find_optimal_w(1, c, np.linspace(0.05, 0.95, 91))
        assert 0.05 < w_star < 0.95
        assert op_star == pytest.approx(op_closed_form(1, SystemConfig(w=w_star)),
                                        rel=1e-10)
        for dw in (-0.03, 0.03):
            assert op_closed_form(1, SystemConfig(w=w_star + dw)) >= op_star

    def test_grid_validation(self):
        with pytest.raises(ValueError, match=re.escape("w must be in (0, 1)")):
            find_optimal_w(1, SystemConfig(), grid=[0.0, 0.5])

    @pytest.mark.parametrize("m,k,points", [(1, 1, 91), (1, 2, 91), (1, 3, 91),
                                            (2, 1, 31), (2, 2, 31)])
    def test_batched_grid_matches_point_scan(self, m, k, points):
        # the grid's batched float passes pick the bracket and value that one
        # op_closed_form call per grid point picks
        c = SystemConfig(m_sr=m, m_ru=m)
        grid = np.linspace(0.05, 0.95, points)
        assert find_optimal_w(k, c, grid) == scan_values(k, c, grid)

    @pytest.mark.parametrize("args,message", [
        (["--user", "1", "--set", "snr_db=60"],
         "no optimum inside the w grid: its lowest OP, 9.12712289e-12, is at its end w=0.95"),
        (["--user", "2", "--set", "snr_db=-60"],
         "no optimum inside the w grid: every grid OP is 1.00000000e+00, as at its end "
         "w=0.05")], ids=["end", "flat"])
    def test_grid_end_refused(self, capsys, args, message):
        # deep in outage the optimum lies past w = 0.95, and at -60 dB the OP
        # is 1 at every grid point: neither end is reported as an optimum
        path = str(SCENARIO_DIR / "perfect_sic.scn")
        assert main(["find-w", path, *args]) == EXIT_SEARCH
        out, err = capsys.readouterr()
        assert (out, err) == ("", f"error: {message}\n")

    def test_returns_lowest_evaluated(self):
        # the answer is a point the search evaluated, no worse than any grid point
        rng = np.random.default_rng(32)
        for _ in range(12):
            m, k = int(rng.integers(1, 3)), int(rng.integers(1, 4))
            c = SystemConfig(m_sr=m, m_ru=m, snr_db=float(rng.uniform(-5, 40)),
                             xi=float(rng.choice([0.0, 0.02])))
            grid = np.linspace(0.05, 0.95, int(rng.integers(5, 41)))
            ops = [op_closed_form(k, replace(c, w=float(w))) for w in grid]
            if int(np.argmin(ops)) in (0, len(grid) - 1):
                with pytest.raises(SearchError, match="no optimum inside the w grid"):
                    find_optimal_w(k, c, grid)
                continue
            w_star, op_star = find_optimal_w(k, c, grid)
            assert op_star <= min(ops)
            assert op_star == op_closed_form(k, replace(c, w=w_star))


class TestMain:
    def test_analytic_stdout(self, tmp_path, capsys):
        path = write_scenario(tmp_path)
        assert main(["analytic", path]) == EXIT_OK
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 4
        assert ",analytic," in lines[1]

    def test_out_file(self, tmp_path):
        path = write_scenario(tmp_path)
        dest = tmp_path / "res.csv"
        assert main(["quadrature", path, "--out", str(dest)]) == EXIT_OK
        assert dest.read_text().startswith(CSV_HEADER)

    def test_set_override_changes_result(self, tmp_path, capsys):
        path = write_scenario(tmp_path)
        main(["analytic", path])
        base = capsys.readouterr().out
        main(["analytic", path, "--set", "snr_db=30"])
        assert capsys.readouterr().out != base

    @pytest.mark.parametrize("first,second", [
        ("a=0.5,0.25,0.15,0.1", "gamma_th=0.5,0.5,0.5,0.5"),
        ("gamma_th=0.5,0.5,0.5,0.5", "a=0.5,0.25,0.15,0.1"),
    ])
    def test_set_overrides_change_user_count(self, tmp_path, capsys, first, second):
        # the overrides apply together, so a and gamma_th can change K
        k4 = SystemConfig(a=(0.5, 0.25, 0.15, 0.1), gamma_th=(0.5, 0.5, 0.5, 0.5))
        trials = ["--trials", "2000", "--seed", "1"]
        assert main(["simulate", write_scenario(tmp_path, k4, "k4.scn"), *trials]) == EXIT_OK
        from_file = capsys.readouterr().out
        assert len(from_file.splitlines()) == 1 + 4
        code = main(["simulate", write_scenario(tmp_path), *trials,
                     "--set", first, "--set", second])
        assert code == EXIT_OK
        assert capsys.readouterr().out == from_file

    def test_simulate(self, tmp_path, capsys):
        path = write_scenario(tmp_path)
        code = main(["simulate", path, "--trials", "2000", "--seed", "1"])
        assert code == EXIT_OK
        assert ",montecarlo," in capsys.readouterr().out

    def test_sweep(self, tmp_path, capsys):
        path = write_scenario(tmp_path)
        code = main(["sweep", path, "--var", "snr_db", "--start", "10",
                     "--stop", "20", "--points", "2"])
        assert code == EXIT_OK
        assert len(capsys.readouterr().out.strip().splitlines()) == 1 + 6

    def test_default_thread_count_moves_no_byte(self, tmp_path, capsys, monkeypatch):
        # simulate and a Monte Carlo sweep run their blocks on every core the
        # process may use; their CSVs equal the rows of one-worker estimates
        path = write_scenario(tmp_path)
        runs = (["simulate", path, "--trials", "600000", "--seed", "5"],
                ["sweep", path, "--var", "snr_db", "--start", "10", "--stop", "20",
                 "--points", "2", "--methods", "analytic,montecarlo",
                 "--trials", "300000", "--seed", "5"])
        outputs = []
        for argv in runs:
            assert main(argv) == EXIT_OK
            outputs.append(capsys.readouterr().out)
        monkeypatch.setattr(cli, "estimate_op", partial(estimate_op, workers=1))
        for argv, out in zip(runs, outputs):
            assert main(argv) == EXIT_OK
            assert capsys.readouterr().out == out

    def test_find_snr_prints_db(self, tmp_path, capsys):
        path = write_scenario(tmp_path)
        code = main(["find-snr", path, "--user", "1", "--target", "1e-2"])
        assert code == EXIT_OK
        snr = float(capsys.readouterr().out)
        assert 0.0 < snr < 60.0

    def test_find_w_prints_pair(self, tmp_path, capsys):
        path = write_scenario(tmp_path)
        assert main(["find-w", path, "--user", "1"]) == EXIT_OK
        w, op = capsys.readouterr().out.split()
        assert 0.0 < float(w) < 1.0 and 0.0 < float(op) < 1.0

    def test_parse_error_exit(self, tmp_path, capsys):
        bad = tmp_path / "bad.scn"
        bad.write_text("nonsense\n")
        assert main(["analytic", str(bad)]) == EXIT_PARSE
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,dest", [
        (["analytic"], "missing/res.csv"),
        (["analytic"], "."),
        (["sweep", "--var", "snr_db", "--start", "0", "--stop", "40", "--points", "5",
          "--methods", "montecarlo", "--trials", "2000000"], "missing/res.csv"),
    ], ids=["missing-dir", "dir", "sweep-montecarlo-missing-dir"])
    def test_unwritable_out_exit(self, tmp_path, capsys, monkeypatch, argv, dest):
        # --out is opened before any point is computed
        def never_called(*args, **kwargs):
            raise AssertionError("a point was computed before --out was opened")
        monkeypatch.setattr(cli, "estimate_op", never_called)
        monkeypatch.setattr(cli, "_point_lines", never_called)
        command, *flags = argv
        code = main([command, write_scenario(tmp_path), *flags, "--out", str(tmp_path / dest)])
        assert code == EXIT_PARSE
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: cannot write output: ") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("argv", [
        ["find-snr", "--user", "1", "--target", "1e-2"],
        ["find-w", "--user", "1", "--points", "11"],
    ], ids=["find-snr", "find-w"])
    def test_search_out_file(self, tmp_path, capsys, argv):
        command, *flags = argv
        run = [command, write_scenario(tmp_path), *flags]
        assert main(run) == EXIT_OK
        stdout = capsys.readouterr().out
        dest = tmp_path / "answer.txt"
        assert main([*run, "--out", str(dest)]) == EXIT_OK
        assert capsys.readouterr() == ("", "")
        assert dest.read_bytes() == stdout.encode()

    def test_out_file_replaced_only_by_success(self, tmp_path, capsys):
        path = write_scenario(tmp_path)
        dest = tmp_path / "res.csv"
        old = b"an earlier run's output\n" * 200
        dest.write_bytes(old)
        assert main(["simulate", path, "--set", "xi=0.1", "--trials", "2000",
                     "--out", str(dest)]) == EXIT_INFEASIBLE
        assert main(["find-snr", path, "--user", "1", "--target", "1e-3",
                     "--lo", "40", "--hi", "0", "--out", str(dest)]) == EXIT_PARSE
        assert dest.read_bytes() == old
        capsys.readouterr()
        assert main(["analytic", path]) == EXIT_OK
        stdout = capsys.readouterr().out
        assert main(["analytic", path, "--out", str(dest)]) == EXIT_OK
        assert dest.read_bytes() == stdout.encode()
        # a device holds nothing and is written, not truncated
        assert main(["analytic", path, "--out", os.devnull]) == EXIT_OK

    def test_missing_scenario_exit(self, tmp_path, capsys):
        assert main(["analytic", str(tmp_path / "nonexistent.scn")]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("argv", [["find-w", "{path}"],
                                      ["simulate", "{path}", "--trials", "abc"],
                                      ["simulate", "{path}", "--workers", "2"],
                                      ["sweep", "{path}", "--var", "snr_db", "--start", "1",
                                       "--stop", "10", "--points", "2",
                                       "--spacing", "geometric"]])
    def test_usage_error_exit(self, tmp_path, capsys, argv):
        # argparse would exit 2, which is EXIT_INFEASIBLE
        path = write_scenario(tmp_path)
        assert main([a.format(path=path) for a in argv]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("argv", [["find-w", "{path}", "--user", "4"],
                                      ["find-snr", "{path}", "--user", "0",
                                       "--target", "1e-3"]])
    def test_user_outside_range_exit(self, tmp_path, capsys, argv):
        path = write_scenario(tmp_path)
        assert main([a.format(path=path) for a in argv]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert err.startswith("error: need 1 <= k <= K") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("argv,message", [
        (["sweep", "{path}", "--var", "snr_db", "--start", "0", "--stop", "10",
          "--points", "2", "--methods", "foo"], "unknown methods: ['foo']"),
        (["sweep", "{path}", "--var", "snr_db", "--start", "0", "--stop", "10",
          "--points", "0"], "grid must be nonempty"),
        (["sweep", "{path}", "--var", "w", "--start", "0.1", "--stop", "1.5",
          "--points", "3"], "power-splitting ratio w must be in (0, 1)"),
        (["simulate", "{path}", "--trials", "0"], "trials must be >= 1"),
        (["find-w", "{path}", "--user", "1", "--points", "0"],
         "w grid must be nonempty"),
        (["sweep", "{path}", "--var", "snr_db", "--start", "0", "--stop", "10",
          "--points", "2", "--spacing", "log"],
         "log spacing needs start > 0 and stop > 0"),
        (["sweep", "{path}", "--var", "snr_db", "--start", "-5", "--stop", "10",
          "--points", "2", "--spacing", "log"],
         "log spacing needs start > 0 and stop > 0"),
        (["simulate", "{path}", "--set", "m_sr=0.3"],
         "Nakagami m_sr must be finite and >= 0.5, got 0.3"),
        (["simulate", "{path}", "--set", "m_sr=0"],
         "Nakagami m_sr must be finite and >= 0.5, got 0.0"),
        (["analytic", "{path}", "--set", "n_u=2.5"],
         "override 'n_u=2.5': bad value for n_u: '2.5'"),
        # finite inputs whose linear SNR or mean gain overflows or underflows
        (["analytic", "{path}", "--set", "snr_db=4000"],
         "snr_db=4000.0, d_sr=0.5 and alpha=2.0 give a linear SNR or mean channel "
         "gain that is not a finite double > 0"),
        (["analytic", "{path}", "--set", "alpha=2000"],
         "snr_db=20.0, d_sr=0.5 and alpha=2000.0 give a linear SNR or mean channel "
         "gain that is not a finite double > 0"),
        (["quadrature", "{path}", "--set", "d_sr=1e-300"],
         "snr_db=20.0, d_sr=1e-300 and alpha=2.0 give a linear SNR or mean channel "
         "gain that is not a finite double > 0"),
        (["analytic", "{path}", "--set", "snr_db=-4000"],
         "snr_db=-4000.0, d_sr=0.5 and alpha=2.0 give a linear SNR or mean channel "
         "gain that is not a finite double > 0"),
        (["simulate", "{path}", "--set", "snr_db=-4000"],
         "snr_db=-4000.0, d_sr=0.5 and alpha=2.0 give a linear SNR or mean channel "
         "gain that is not a finite double > 0"),
        # keys are checked before any value is typed
        (["analytic", "{path}", "--set", "snr=abc"], "unknown scenario keys: ['snr']"),
        (["find-snr", "{path}", "--user", "1", "--target", "2"],
         "target OP must be in (0,1), got 2.0"),
        (["find-snr", "{path}", "--user", "1", "--target", "nan"],
         "target OP must be in (0,1), got nan"),
        (["simulate", "{path}", "--seed", "-1"], "seed must be >= 0"),
        (["find-snr", "{path}", "--user", "1", "--target", "1e-3", "--lo", "40",
          "--hi", "0"], "bracket [40.0, 0.0] dB needs lo < hi"),
        (["find-w", "{path}", "--user", "1", "--points", "-3"],
         "w grid must be nonempty"),
    ])
    def test_invalid_argument_exit(self, tmp_path, capsys, argv, message):
        # invalid input, not a search failure
        path = write_scenario(tmp_path)
        assert main([a.format(path=path) for a in argv]) == EXIT_PARSE
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_nonfinite_threshold_exit(self, capsys):
        # a NaN stage margin once passed the feasibility check and max()
        # dropped the NaN threshold, giving a finite rank-3 OP
        path = str(SCENARIO_DIR / "perfect_sic.scn")
        assert main(["analytic", path, "--set", "gamma_th=1.4,2.2,inf"]) == EXIT_PARSE
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1

    def test_infeasible_simulate_exit(self, tmp_path, capsys):
        path = write_scenario(tmp_path, SystemConfig(xi=0.1))
        assert main(["simulate", str(path), "--trials", "100"]) == EXIT_INFEASIBLE

    @pytest.mark.parametrize("command", ["find-w", "find-snr"])
    def test_infeasible_search_exit(self, tmp_path, capsys, command):
        # stage 2 is infeasible at every w and every SNR
        path = write_scenario(tmp_path, SystemConfig(xi=0.1))
        argv = [command, path, "--user", "2"]
        if command == "find-snr":
            argv += ["--target", "1e-3"]
        assert main(argv) == EXIT_INFEASIBLE
        err = capsys.readouterr().err
        assert err.startswith("error: stage l=2 infeasible") and len(err.splitlines()) == 1

    def test_infeasible_analytic_rows_not_error(self, tmp_path, capsys):
        path = write_scenario(tmp_path, SystemConfig(xi=0.1))
        assert main(["analytic", path]) == EXIT_OK
        assert "infeasible" in capsys.readouterr().out

    def test_search_failure_exit(self, tmp_path, capsys):
        path = write_scenario(tmp_path)
        code = main(["find-snr", path, "--user", "1", "--target", "1e-30",
                     "--lo", "0", "--hi", "5"])
        assert code == EXIT_SEARCH
        f_lo, f_hi = (op_closed_form(1, SystemConfig(snr_db=s)) for s in (0.0, 5.0))
        assert capsys.readouterr().err == (
            "error: bracket [0.0, 5.0] dB does not straddle OP=1e-30 "
            f"(endpoints {f_lo:.3e}, {f_hi:.3e})\n")

    @pytest.mark.parametrize("command", ["analytic", "quadrature"])
    def test_subnormal_snr_gives_op_one(self, capsys, command):
        # the linear SNR 1e-320 is a subnormal, so tau* is infinite
        path = str(SCENARIO_DIR / "perfect_sic.scn")
        assert main([command, path, "--set", "snr_db=-3200"]) == EXIT_OK
        out, err = capsys.readouterr()
        assert [line.split(",")[5] for line in out.splitlines()[1:]] == [
            "1.00000000e+00"] * 3
        assert err == ""

    def test_huge_tau_gives_op_one(self, capsys):
        # tau* is finite but the float terms overflow
        path = str(SCENARIO_DIR / "perfect_sic.scn")
        assert main(["analytic", path, "--set", "snr_db=-1000"]) == EXIT_OK
        out, err = capsys.readouterr()
        assert [line.split(",")[5] for line in out.splitlines()[1:]] == [
            "1.00000000e+00"] * 3
        assert err == ""

    @pytest.mark.parametrize("m,snr_db", [(3, 700), (2, 900)])
    def test_extreme_snr_gives_op_zero(self, capsys, m, snr_db):
        # at m=3 and 700 dB the float power (p X / ((1+u) Y))^(nu/2)
        # overflows, and at m=2 and 900 dB the OP underflows; both print
        # OP 0, as the quadrature does
        path = str(SCENARIO_DIR / "perfect_sic.scn")
        assert main(["analytic", path, "--set", f"m_sr={m}", "--set", f"m_ru={m}",
                     "--set", f"snr_db={snr_db}"]) == EXIT_OK
        out, err = capsys.readouterr()
        assert [line.split(",")[5] for line in out.splitlines()[1:]] == [
            "0.00000000e+00"] * 3
        assert err == ""

    def test_oversized_table_exit(self, capsys):
        path = str(SCENARIO_DIR / "perfect_sic.scn")
        code = main(["find-snr", path, "--user", "1", "--target", "1e-3",
                     "--set", "m_sr=2", "--set", "m_ru=2", "--set", "n_s=8",
                     "--set", "n_rr=8", "--set", "n_u=8"])
        assert code == EXIT_UNSUPPORTED
        err = capsys.readouterr().err
        assert err.startswith("error: closed-form term table") and "quadrature" in err

    def test_unsupported_model_exit(self, capsys):
        path = str(SCENARIO_DIR / "perfect_sic.scn")
        code = main(["find-snr", path, "--set", "n_rt=3", "--user", "1",
                     "--target", "1e-2"])
        assert code == EXIT_UNSUPPORTED
        assert "error:" in capsys.readouterr().err

    def test_unsupported_rows_not_error(self, capsys):
        path = str(SCENARIO_DIR / "perfect_sic.scn")
        code = main(["sweep", path, "--set", "m_sr=1.5", "--var", "snr_db",
                     "--start", "10", "--stop", "20", "--points", "2",
                     "--methods", "analytic,quadrature"])
        assert code == EXIT_OK
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
        assert len(rows) == 2 * 3 * 2
        for row in rows:
            if row[4] == "analytic":
                assert row[5] == "unsupported"
            else:
                assert 0.0 < float(row[5]) < 1.0

    def test_unresolved_rows_and_exit(self, monkeypatch, capsys):
        # terms that cancel exactly leave every closed-form point unresolved
        monkeypatch.setattr(analysis, "_closed_form_sums",
                            lambda table, xs, ys: [(0.0, 2.0)] * len(xs))
        monkeypatch.setattr(analysis, "_exact_sum",
                            lambda table, x, y, bits: (0, 2 << bits, bits))
        path = str(SCENARIO_DIR / "perfect_sic.scn")
        code = main(["sweep", path, "--var", "snr_db", "--start", "10",
                     "--stop", "10", "--points", "1",
                     "--methods", "analytic,quadrature"])
        assert code == EXIT_OK
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
        assert len(rows) == 3 * 2
        for row in rows:
            if row[4] == "analytic":
                assert row[5] == "unresolved"
            else:
                assert 0.0 < float(row[5]) < 1.0
        code = main(["find-snr", path, "--user", "1", "--target", "1e-2"])
        assert code == EXIT_UNRESOLVED
        assert "error:" in capsys.readouterr().err


def loaded_by_import(*modules, argv=None):
    """Which of modules a fresh interpreter holds after `import ehnoma, ehnoma.cli`.

    Given argv, the interpreter also runs `ehnoma.cli.main(argv)`, which must
    return EXIT_OK.
    """
    src = Path(ehnoma.__file__).resolve().parent.parent
    run_main = f"assert ehnoma.cli.main({argv!r}) == {EXIT_OK}; " if argv else ""
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import ehnoma, ehnoma.cli; "
            + run_main + "print(*(name in sys.modules for name in sys.argv[2:]))")
    run = subprocess.run([sys.executable, "-c", code, str(src), *modules],
                         capture_output=True, text=True, timeout=120, check=True)
    return run.stdout.split()


def test_import_leaves_out_scipy_integrate():
    # scipy.integrate drags in scipy.optimize, scipy.sparse and scipy.linalg,
    # a large share of a fresh process's start-up time and memory
    assert loaded_by_import("scipy.integrate") == ["False"]


def test_import_leaves_out_process_pools():
    # the simulator runs its blocks on threads, so nothing loads the
    # machinery that starts and feeds worker processes
    assert loaded_by_import("multiprocessing", "concurrent.futures.process") == [
        "False", "False"]


# what the analytic engine loads, and the engine itself: scipy.special's
# array-API shim pulls in numpy.testing, numpy.f2py and numpy.ma, most of a
# fresh process's start-up time
ANALYTIC_ENGINE = ("scipy.special", "mpmath", "ehnoma.analysis")


def test_import_leaves_out_analytic_engine():
    assert loaded_by_import(*ANALYTIC_ENGINE) == ["False"] * 3


@pytest.mark.parametrize("command, engine", [
    (["simulate", "--trials", "1000"], "False"),
    (["sweep", "--var", "snr_db", "--start", "10", "--stop", "20", "--points", "2",
      "--methods", "montecarlo", "--trials", "1000"], "False"),
    # the engine is loaded where an analytic result is asked for, so the
    # rows above cannot pass for want of any path that loads it
    (["analytic"], "True"),
], ids=["simulate", "sweep-montecarlo", "analytic"])
def test_only_analytic_runs_load_analytic_engine(command, engine, tmp_path):
    argv = [command[0], str(SCENARIO_DIR / "perfect_sic.scn"), *command[1:],
            "--out", str(tmp_path / "out.csv")]
    assert loaded_by_import(*ANALYTIC_ENGINE, argv=argv) == [engine] * 3


@pytest.mark.parametrize("module, names, others", [
    (ehnoma, ("op_closed_form", "op_numerical"), ()),
    # the three that callers outside the tests still reach through cli
    (cli, ("op_closed_form", "find_snr_for_op", "find_optimal_w"),
     ("closed_form_side", "op_closed_form_batch", "op_numerical")),
], ids=["ehnoma", "cli"])
def test_analytic_names_are_the_engines(module, names, others, monkeypatch):
    for name in others:
        with pytest.raises(AttributeError):
            getattr(module, name)
    for name in names:
        # unbound, so that the access goes through the module __getattr__
        monkeypatch.delitem(vars(module), name, raising=False)
        assert getattr(module, name) is getattr(analysis, name)
        # bound by the first access, so later ones skip the hook
        assert vars(module)[name] is getattr(analysis, name)
    # the hook itself, since importing the submodule binds ehnoma.analysis
    for name in ("no_such_name", "analysis"):
        with pytest.raises(AttributeError, match=re.escape(
                f"module {module.__name__!r} has no attribute {name!r}")):
            module.__getattr__(name)
    with pytest.raises(AttributeError, match=re.escape(
            f"module {module.__name__!r} has no attribute 'no_such_name'")):
        module.no_such_name
