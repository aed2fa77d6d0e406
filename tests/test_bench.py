import json
import math
import os
import stat
import subprocess
import sys
from pathlib import Path

import pytest

from seqaccel import BadParameter, parse_problem, parse_transform
from seqaccel.bench import (
    BenchmarkReport,
    FixtureMismatch,
    FixtureRow,
    ReportRow,
    RunConfig,
    builtin_fixture_path,
    builtin_fixtures,
    check_fixture,
    config_for_fixture,
    export,
    import_csv,
    load_fixture,
    render,
    run,
)
from seqaccel.cli import main as cli_main


def small_config(**kw):
    defaults = dict(
        problems=(parse_problem("alt-ln2"),),
        transforms=(parse_transform("seps"), parse_transform("epsilon"),
                    parse_transform("theta"), parse_transform("iterated-theta")),
        n_min=7,
        n_max=14,
    )
    defaults.update(kw)
    return RunConfig(**defaults)


class TestRunConfig:
    def test_empty_transforms_rejected(self):
        with pytest.raises(BadParameter):
            RunConfig(problems=(parse_problem("alt-ln2"),), transforms=(),
                      n_min=4, n_max=8)

    def test_budget_order(self):
        with pytest.raises(BadParameter):
            small_config(n_min=10, n_max=5)

    def test_unknown_transform_suggests(self):
        cfg = RunConfig(problems=(parse_problem("alt-ln2"),),
                        transforms=(parse_transform("epsilonn"),),
                        n_min=4, n_max=8)
        with pytest.raises(BadParameter, match="did you mean"):
            run(cfg)


class TestRun:
    def test_table1_shape(self):
        report = run(small_config())
        budgets = {r.budget for r in report.rows}
        assert budgets == set(range(7, 15))  # 8-row rendered table
        transforms = {r.transform for r in report.rows}
        assert transforms == {"input", "seps", "epsilon", "theta", "iterated-theta"}
        for row in report.rows:
            if row.transform != "input" and row.status == "valid":
                assert row.abs_error is not None and row.abs_error >= 0.0

    def test_determinism(self):
        a = render(run(small_config()), "csv")
        b = render(run(small_config()), "csv")
        assert a == b

    def test_staircase_contract_in_rows(self):
        from seqaccel import apply, generate, staircase_entry
        from seqaccel.problems import ProblemSpec

        report = run(small_config())
        sample = generate(ProblemSpec("alt-ln2", count=15))
        for row in report.rows:
            if row.transform == "seps":
                table = apply(parse_transform("seps"), sample)
                entry = staircase_entry(table, row.budget)
                assert (entry.k, entry.n) == (row.k, row.n)
                assert entry.value == row.value


class TestExportFormats:
    def test_csv_round_trip(self, tmp_path):
        report = run(small_config())
        path = export(report, "csv", tmp_path / "out.csv")
        back = import_csv(path)
        assert len(back) == len(report.rows)
        for mine, theirs in zip(report.rows, back):
            assert mine.key() == theirs.key()
            assert (mine.k, mine.n, mine.status) == (theirs.k, theirs.n, theirs.status)
            assert mine.value == theirs.value or (
                math.isnan(mine.value) and math.isnan(theirs.value))
            assert mine.abs_error == theirs.abs_error

    def test_csv_header(self):
        text = render(run(small_config()), "csv")
        assert text.splitlines()[0] == "problem,transform,budget,k,n,value,abs_error,status"

    def test_json_round_trips_doubles(self, tmp_path):
        report = run(small_config())
        path = export(report, "json", tmp_path / "out.json")
        payload = json.loads(path.read_text())
        assert "meta" in payload and "timestamp" in payload["meta"]
        by_key = {(r["problem"], r["transform"], r["budget"]): r for r in payload["rows"]}
        for row in report.rows:
            rec = by_key[row.key()]
            assert rec["value"] == row.value  # shortest round-trip representation
            assert rec["abs_error"] == row.abs_error

    def test_markdown_layout(self):
        text = render(run(small_config()), "markdown")
        assert "## alt-ln2" in text
        header = [ln for ln in text.splitlines() if ln.startswith("| n |")][0]
        assert header == "| n | |S_n - S| | seps | epsilon | theta | iterated-theta |"
        body = [ln for ln in text.splitlines()
                if ln.startswith("|") and not ln.startswith("| n") and "---" not in ln]
        assert len(body) == 8

    def test_atomic_export_unwritable(self, tmp_path):
        target = tmp_path / "ro"
        target.mkdir()
        os.chmod(target, stat.S_IRUSR | stat.S_IXUSR)
        report = run(small_config())
        if os.geteuid() == 0:
            pytest.skip("directory permissions do not bind as root")
        with pytest.raises(OSError):
            export(report, "csv", target / "out.csv")


def fake_report(rows):
    return BenchmarkReport(rows=tuple(rows), meta={})


def row(problem="p", transform="t", budget=7, error=1e-8, status="valid"):
    return ReportRow(problem=problem, transform=transform, budget=budget,
                     k=2, n=budget - 2, value=1.0, abs_error=error, status=status)


class TestFixtureRules:
    def test_same_decade_passes(self):
        rep = fake_report([row(error=2.0e-8)])
        summary = check_fixture(rep, [FixtureRow("p", "t", 7, 1.521e-8)])
        assert summary.passed

    def test_three_decades_fails(self):
        rep = fake_report([row(error=5e-10)])
        summary = check_fixture(rep, [FixtureRow("p", "t", 7, 3.936e-13)])
        assert not summary.passed

    def test_adjacent_decade_passes(self):
        rep = fake_report([row(error=9e-13)])
        summary = check_fixture(rep, [FixtureRow("p", "t", 7, 1.075e-11)])
        assert summary.passed

    def test_subfloor_band_widens(self):
        rep = fake_report([row(error=3e-11)])
        summary = check_fixture(rep, [FixtureRow("p", "t", 7, 9e-13)])
        assert summary.passed  # two decades allowed below 1e-12

    def test_unstable_rows_do_not_contribute(self):
        rep = fake_report([row(error=None, status="unstable")])
        summary = check_fixture(rep, [FixtureRow("p", "t", 7, 1e-3)])
        assert summary.passed
        assert len(summary.skipped) == 1

    def test_noted_rows_report_but_do_not_gate(self):
        rep = fake_report([row(error=1.0)])
        summary = check_fixture(rep, [FixtureRow("p", "t", 7, 1e-9, note="known")])
        assert summary.passed
        assert len(summary.waived) == 1
        assert not summary.waived[0].passed  # reported as failing, not gated

    def test_shape_mismatch(self):
        rep = fake_report([row()])
        with pytest.raises(FixtureMismatch):
            check_fixture(rep, [FixtureRow("p", "other", 7, 1e-8)])

    def test_exact_zero_observed_passes(self):
        rep = fake_report([row(error=0.0)])
        assert check_fixture(rep, [FixtureRow("p", "t", 7, 1e-15)]).passed


class TestBuiltinFixtures:
    def test_names(self):
        assert builtin_fixtures() == [f"table{i}" for i in range(1, 8)]

    @pytest.mark.parametrize("name", [f"table{i}" for i in range(1, 8)])
    def test_all_tables_pass(self, name):
        fixture = load_fixture(builtin_fixture_path(name))
        report = run(config_for_fixture(fixture))
        summary = check_fixture(report, fixture)
        assert summary.passed, summary.describe()


class TestCli:
    def test_run_to_stdout(self, capsys):
        code = cli_main(["run", "--problem", "alt-ln2", "--transform", "seps",
                         "--n-min", "7", "--n-max", "10"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("problem,transform,budget")

    def test_run_determinism_bytes(self, tmp_path):
        argv = ["run", "--problem", "euler-divergent:z=3", "--transform", "seps",
                "--transform", "epsilon", "--n-min", "14", "--n-max", "21",
                "--format", "csv"]
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert cli_main(argv + ["--out", str(a)]) == 0
        assert cli_main(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_check_builtin_fixture_exit_zero(self, capsys):
        assert cli_main(["check", "--fixture", "table3"]) == 0
        assert "gated rows pass" in capsys.readouterr().out

    def test_check_failing_fixture_exit_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text(
            "problem,transform,budget,expected_error,note\n"
            "alt-ln2,epsilon,7,1.0e-20,\n"
        )
        assert cli_main(["check", "--fixture", str(bad)]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_unknown_problem_exit_two(self, capsys):
        code = cli_main(["run", "--problem", "no-such-series", "--transform", "seps"])
        assert code == 2
        assert "did you mean" in capsys.readouterr().err

    def test_negative_start_exit_two(self, capsys):
        code = cli_main(["run", "--problem", "model-log:start=-1", "--transform", "epsilon"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_check_never_loads_scipy(self):
        # A fresh interpreter, so that modules the test session loaded do not count.
        src = Path(__file__).resolve().parents[1] / "src"
        script = (
            "import sys\n"
            "from seqaccel import cli\n"
            "assert cli.main(['check', '--fixture', 'table6']) == 0\n"
            "loaded = [m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')]\n"
            "assert not loaded, loaded\n"
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr

    def test_config_file_flags_win(self, tmp_path, capsys):
        cfg = tmp_path / "bench.cfg"
        cfg.write_text(
            "# run configuration\n"
            "problem = alt-ln2\n"
            "transform = epsilon, seps\n"
            "n-min = 7\n"
            "n-max = 9\n"
            "format = csv\n"
        )
        assert cli_main(["run", "--config", str(cfg)]) == 0
        base = capsys.readouterr().out
        assert ",9," in base and ",10," not in base
        assert cli_main(["run", "--config", str(cfg), "--n-max", "10"]) == 0
        overridden = capsys.readouterr().out
        assert ",10," in overridden  # flag wins over the file value

    def test_default_z_flag(self, capsys):
        code = cli_main(["run", "--problem", "euler-divergent", "--z", "3",
                         "--transform", "seps", "--n-min", "14", "--n-max", "16"])
        assert code == 0
        assert "euler-divergent:z=3" in capsys.readouterr().out

    def test_osada_theta_flag(self, capsys):
        code = cli_main(["run", "--problem", "lemniscate", "--theta", "0.5",
                         "--transform", "rho-osada", "--n-min", "14", "--n-max", "16"])
        assert code == 0
        assert "rho-osada:theta=0.5" in capsys.readouterr().out

    def test_list(self, capsys):
        assert cli_main(["list"]) == 0
        out = capsys.readouterr().out
        assert "alt-ln2" in out and "seps" in out and "table6" in out
