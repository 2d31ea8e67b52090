"""Scenario parsing, sweeps, searches, CSV output and exit codes."""

import math
from pathlib import Path

import numpy as np
import pytest

from ehnoma import SystemConfig, op_closed_form
from ehnoma.cli import (
    CSV_HEADER,
    EXIT_INFEASIBLE,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_SEARCH,
    EXIT_UNSUPPORTED,
    ScenarioParseError,
    SearchError,
    SweepSpec,
    find_optimal_w,
    find_snr_for_op,
    load_scenario,
    main,
    parse_scenario,
    rows_to_csv,
    run_sweep,
    serialize_scenario,
)

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


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

    def test_integer_keys_reject_floats(self):
        with pytest.raises(ScenarioParseError):
            parse_scenario("n_u = 2.5\n")

    def test_missing_equals(self):
        with pytest.raises(ScenarioParseError, match="line 1"):
            parse_scenario("snr_db 20\n")

    def test_unknown_key(self):
        with pytest.raises(ScenarioParseError, match="unknown"):
            parse_scenario("snr = 20\n")

    def test_invalid_config_value(self):
        with pytest.raises(ScenarioParseError):
            parse_scenario("w = 1.5\n")

    def test_shipped_scenarios_parse(self):
        files = sorted(SCENARIO_DIR.glob("*.scn"))
        assert files, "scenario directory must ship example files"
        for f in files:
            load_scenario(str(f))


class TestSweepSpec:
    def base(self, **kw):
        args = dict(scenario="s", variable="snr_db", start=0.0, stop=10.0,
                    points=3, base=SystemConfig())
        args.update(kw)
        return SweepSpec(**args)

    def test_linear_grid(self):
        assert self.base().grid() == pytest.approx([0.0, 5.0, 10.0])

    def test_log_grid(self):
        g = self.base(variable="xi", start=0.001, stop=0.1, points=3,
                      spacing="log").grid()
        assert g == pytest.approx([0.001, 0.01, 0.1])

    @pytest.mark.parametrize("kw", [
        {"variable": "zeta"}, {"points": 0}, {"methods": ()},
        {"methods": ("exact",)}, {"spacing": "geometric"},
        {"variable": "w", "start": 0.5, "stop": 1.5},
    ])
    def test_rejects_invalid(self, kw):
        with pytest.raises(ValueError):
            self.base(**kw)


class TestRunSweep:
    def test_row_structure_and_order(self):
        spec = SweepSpec(scenario="s", variable="snr_db", start=10, stop=20,
                         points=2, base=SystemConfig(),
                         methods=("montecarlo", "analytic"), trials=2000)
        rows = run_sweep(spec)
        assert len(rows) == 2 * 3 * 2
        # analytic precedes montecarlo inside each grid point
        assert [r["method"] for r in rows[:6]] == ["analytic", "montecarlo"] * 3
        assert rows[0]["user"] == 1 and rows[2]["user"] == 2
        mc = rows[1]
        assert mc["trials"] == "2000" and mc["ci_halfwidth"] != ""
        assert rows[0]["ci_halfwidth"] == "" and rows[0]["trials"] == ""

    def test_analytic_rows_match_library(self):
        spec = SweepSpec(scenario="s", variable="snr_db", start=15, stop=15,
                         points=1, base=SystemConfig())
        rows = run_sweep(spec)
        expect = op_closed_form(2, SystemConfig(snr_db=15))
        got = float(next(r["op"] for r in rows if r["user"] == 2))
        assert got == pytest.approx(expect, rel=1e-8)

    def test_infeasible_points_marked(self):
        spec = SweepSpec(scenario="s", variable="xi", start=0.0, stop=0.1,
                         points=3, base=SystemConfig())
        rows = run_sweep(spec)
        by_value = {}
        for r in rows:
            by_value.setdefault(r["value"], set()).add(r["op"])
        assert by_value["0.1"] == {"infeasible"}
        assert "infeasible" not in by_value["0"]

    def test_csv_is_deterministic(self):
        spec = SweepSpec(scenario="s", variable="w", start=0.3, stop=0.7,
                         points=3, base=SystemConfig(),
                         methods=("analytic", "montecarlo"), trials=5000)
        a = rows_to_csv(run_sweep(spec))
        b = rows_to_csv(run_sweep(spec))
        assert a == b
        assert a.startswith(CSV_HEADER + "\n")


class TestFindSnr:
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

    def test_bad_target(self):
        with pytest.raises(SearchError):
            find_snr_for_op(1, SystemConfig(), 0.0, 0.0, 60.0)


class TestFindW:
    def test_interior_minimum(self):
        c = SystemConfig(snr_db=20)
        w_star, op_star = find_optimal_w(1, c)
        assert 0.05 < w_star < 0.95
        assert op_star == pytest.approx(op_closed_form(1, SystemConfig(w=w_star)),
                                        rel=1e-10)
        for dw in (-0.03, 0.03):
            assert op_closed_form(1, SystemConfig(w=w_star + dw)) >= op_star

    def test_grid_validation(self):
        with pytest.raises(SearchError):
            find_optimal_w(1, SystemConfig(), grid=[0.0, 0.5])


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

    def test_infeasible_simulate_exit(self, tmp_path, capsys):
        path = write_scenario(tmp_path, SystemConfig(xi=0.1))
        assert main(["simulate", str(path), "--trials", "100"]) == EXIT_INFEASIBLE

    def test_infeasible_analytic_rows_not_error(self, tmp_path, capsys):
        path = write_scenario(tmp_path, SystemConfig(xi=0.1))
        assert main(["analytic", path]) == EXIT_OK
        assert "infeasible" in capsys.readouterr().out

    def test_search_failure_exit(self, tmp_path, capsys):
        path = write_scenario(tmp_path)
        code = main(["find-snr", path, "--user", "1", "--target", "1e-30",
                     "--lo", "0", "--hi", "5"])
        assert code == EXIT_SEARCH

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
