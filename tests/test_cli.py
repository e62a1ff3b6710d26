"""Unit tests for the command-line interface."""

import importlib.util
import json
from pathlib import Path

import pytest

from repro.cli import (
    EXIT_BUDGET_EXHAUSTED,
    EXIT_BUILD_FAILED,
    EXIT_OK,
    EXIT_USAGE,
    build_parser,
    main,
)


def _load_check_trace():
    """Import benchmarks/check_trace.py (not an installed package)."""
    path = Path(__file__).parent.parent / "benchmarks" / "check_trace.py"
    spec = importlib.util.spec_from_file_location("check_trace", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_gen_data_args(self):
        args = build_parser().parse_args(
            ["gen-data", "usedcars", "--rows", "100", "--out", "x.csv"]
        )
        assert args.dataset == "usedcars"
        assert args.rows == 100


class TestCommands:
    def test_gen_data_roundtrip(self, tmp_path, capsys):
        out = str(tmp_path / "cars.csv")
        rc = main(["gen-data", "usedcars", "--rows", "200", "--out", out])
        assert rc == 0
        assert "wrote 200 rows" in capsys.readouterr().out

        # the CSV can feed the other commands
        rc = main([
            "cadview", "--dataset", "usedcars", "--csv", out,
            "--sql", "SELECT Make FROM data LIMIT 2",
        ])
        assert rc == 0

    def test_cadview_statement(self, capsys):
        rc = main([
            "cadview", "--dataset", "usedcars", "--rows", "2000",
            "--sql",
            "CREATE CADVIEW v AS SET pivot = Make SELECT Price FROM data "
            "WHERE BodyType = SUV AND Make IN (Jeep, Ford) IUNITS 2",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "IUnit 1" in out and "Jeep" in out

    def test_cadview_select(self, capsys):
        rc = main([
            "cadview", "--dataset", "mushroom", "--rows", "500",
            "--sql", "SELECT class FROM data LIMIT 3",
        ])
        assert rc == 0
        assert "3 row(s)" in capsys.readouterr().out

    def test_parse_error_returns_nonzero(self, capsys):
        rc = main([
            "cadview", "--dataset", "usedcars", "--rows", "500",
            "--sql", "FROBNICATE everything",
        ])
        assert rc == 1
        assert "error" in capsys.readouterr().err

    def test_deps_command(self, capsys):
        rc = main(["deps", "--dataset", "usedcars", "--rows", "1500"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Model -> Make" in out

    def test_profile_command(self, capsys):
        rc = main(["profile", "--dataset", "usedcars", "--rows", "3000"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "naive" in out and "optimized" in out


class TestExitCodes:
    """The documented exit-code contract: 0 ok, 1 usage, 2 build
    failure, 3 budget exhausted with nothing built."""

    def test_usage_error_is_1(self, capsys):
        rc = main(["cadview"])  # missing required --sql
        assert rc == EXIT_USAGE
        assert "required" in capsys.readouterr().err

    def test_bad_faults_spec_is_1_on_stderr(self, capsys):
        rc = main([
            "cadview", "--rows", "300", "--faults", "not-a-spec",
            "--sql", "SELECT Make FROM data LIMIT 1",
        ])
        assert rc == EXIT_USAGE
        captured = capsys.readouterr()
        assert "error" in captured.err and "fault" in captured.err
        assert "error" not in captured.out

    def test_build_failure_is_2(self, capsys):
        rc = main([
            "cadview", "--rows", "300",
            "--sql",
            "CREATE CADVIEW v AS SET pivot = Make SELECT Price "
            "FROM data WHERE Price < 0",  # empty result set
        ])
        assert rc == EXIT_BUILD_FAILED
        assert "error" in capsys.readouterr().err

    def test_budget_exhausted_is_3(self, capsys):
        rc = main([
            "cadview", "--rows", "2000", "--budget-ms", "0.0001",
            "--sql",
            "CREATE CADVIEW v AS SET pivot = Make SELECT Price "
            "FROM data IUNITS 2",
        ])
        assert rc == EXIT_BUDGET_EXHAUSTED
        assert "budget" in capsys.readouterr().err

    def test_success_is_0(self):
        rc = main([
            "cadview", "--rows", "300",
            "--sql", "SELECT Make FROM data LIMIT 1",
        ])
        assert rc == EXIT_OK


class TestObservabilityFlags:
    def test_trace_and_metrics_written_and_valid(self, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        metrics = tmp_path / "metrics.json"
        rc = main([
            "cadview", "--rows", "2000",
            "--sql",
            "CREATE CADVIEW v AS SET pivot = Make SELECT Price FROM data "
            "WHERE BodyType = SUV IUNITS 2",
            "--trace", str(trace), "--metrics", str(metrics),
        ])
        assert rc == EXIT_OK
        checker = _load_check_trace()
        assert checker.validate_trace(str(trace)) == []
        assert checker.validate_metrics(str(metrics)) == []
        # the trace holds the whole build pipeline
        names = {
            e["name"] for e in
            json.loads(trace.read_text())["traceEvents"]
        }
        assert "cadview.build" in names and "kmeans" in names
        # the metrics snapshot saw the build
        snap = json.loads(metrics.read_text())
        assert snap["counters"]["build.total"] >= 1

    def test_trace_written_even_when_build_fails(self, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        rc = main([
            "cadview", "--rows", "300",
            "--sql",
            "CREATE CADVIEW v AS SET pivot = Make SELECT Price "
            "FROM data WHERE Price < 0",
            "--trace", str(trace),
        ])
        assert rc == EXIT_BUILD_FAILED
        checker = _load_check_trace()
        assert checker.validate_trace(str(trace)) == []

    def test_explain_analyze_through_cli(self, capsys):
        rc = main([
            "cadview", "--rows", "2000",
            "--sql",
            "EXPLAIN ANALYZE CREATE CADVIEW v AS SET pivot = Make "
            "SELECT Price FROM data WHERE BodyType = SUV IUNITS 2",
        ])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert "cadview.build" in out
        assert "bucket reconciliation" in out

    def test_check_trace_cli_rejects_garbage(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{\"traceEvents\": \"nope\"}")
        checker = _load_check_trace()
        assert checker.main(["--trace", str(bad)]) == 1

    def test_worklog_written_through_cli(self, tmp_path, capsys):
        worklog = tmp_path / "w.jsonl"
        rc = main([
            "cadview", "--rows", "2000",
            "--sql",
            "CREATE CADVIEW v AS SET pivot = Make SELECT Price FROM data "
            "WHERE BodyType = SUV IUNITS 2",
            "--worklog", str(worklog),
        ])
        assert rc == EXIT_OK
        checker = _load_check_trace()
        assert checker.validate_worklog(str(worklog)) == []
        lines = [
            json.loads(line)
            for line in worklog.read_text().splitlines()
        ]
        assert lines[0]["kind"] == "session"
        assert lines[0]["command"] == "cadview"
        assert lines[1]["statement_kind"] == "create_cadview"
        assert lines[1]["status"] == "ok"

    def test_artifacts_survive_analysis_gate_abort(self, tmp_path, capsys):
        """The analyzer rejecting a statement must not lose artifacts.

        A pre-execution AnalysisError aborts before any build span
        opens; the trace, metrics snapshot and worklog must be written
        anyway (with the failure recorded), and the exit code stays 1.
        """
        trace = tmp_path / "trace.json"
        metrics = tmp_path / "metrics.json"
        worklog = tmp_path / "w.jsonl"
        rc = main([
            "cadview", "--rows", "300",
            # contradictory range: rejected by the gate, never executed
            "--sql", "SELECT Price FROM data "
                     "WHERE Price > 9000 AND Price < 5000",
            "--trace", str(trace), "--metrics", str(metrics),
            "--worklog", str(worklog),
        ])
        assert rc == EXIT_USAGE
        assert "error" in capsys.readouterr().err
        checker = _load_check_trace()
        assert checker.validate_trace(str(trace)) == []
        assert checker.validate_metrics(str(metrics)) == []
        assert checker.validate_worklog(str(worklog)) == []
        # the worklog names the failure
        record = [
            json.loads(line)
            for line in worklog.read_text().splitlines()
        ][-1]
        assert record["status"] == "analysis_error"
        assert "QA" in record["error"]
        # the session span carries the error annotation
        events = json.loads(trace.read_text())["traceEvents"]
        notes = [e for e in events if e.get("cat") == "error"]
        assert notes and "AnalysisError" in str(notes[0])

    def test_worklog_written_when_table_load_fails(self, tmp_path, capsys):
        worklog = tmp_path / "w.jsonl"
        rc = main([
            "cadview", "--csv", str(tmp_path / "missing.csv"),
            "--sql", "SELECT Make FROM data LIMIT 1",
            "--worklog", str(worklog),
        ])
        assert rc == EXIT_USAGE
        # no statement ever ran, but the session header is on disk
        lines = [
            json.loads(line)
            for line in worklog.read_text().splitlines()
        ]
        assert [r["kind"] for r in lines] == ["session"]


class TestReplayCommand:
    SESSION = str(
        Path(__file__).parent.parent
        / "examples" / "session_nba.worklog.jsonl"
    )

    def test_replay_canned_session_prints_percentiles(self, capsys):
        rc = main([
            "replay", self.SESSION, "--budget-ms", "0", "--rows", "2000",
        ])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert "p50" in out and "p95" in out and "p99" in out
        assert "create_cadview" in out
        assert "analysis_error=1" in out

    def test_replay_json_report(self, capsys):
        rc = main([
            "replay", self.SESSION, "--rows", "2000", "--json",
        ])
        assert rc == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["statements"] == 17
        assert report["statuses"]["analysis_error"] == 1
        assert "create_cadview" in report["by_kind"]

    def test_replay_under_budget_degrades_not_dies(self, capsys):
        rc = main([
            "replay", self.SESSION, "--rows", "2000",
            "--budget-ms", "1",
        ])
        # statement failures are measured, not raised: still exit 0
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert "budget_exhausted" in out or "degradations:" in out

    def test_replay_refuses_self_capture(self, tmp_path, capsys):
        rc = main([
            "replay", self.SESSION, "--rows", "2000",
            "--worklog", self.SESSION,
        ])
        assert rc == EXIT_USAGE
        assert "into itself" in capsys.readouterr().err

    def test_replay_without_statements_is_usage_error(
        self, tmp_path, capsys
    ):
        empty = tmp_path / "empty.jsonl"
        empty.write_text(json.dumps(
            {"kind": "session", "dataset": "usedcars", "rows": 100}
        ) + "\n")
        rc = main(["replay", str(empty)])
        assert rc == EXIT_USAGE
        assert "no statement records" in capsys.readouterr().err

    def test_concurrent_replay_verifies_against_sequential(self, capsys):
        rc = main([
            "replay", self.SESSION, "--rows", "1000",
            "--concurrency", "4", "--verify-sequential",
        ])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert "byte-identical" in out

    def test_concurrent_replay_json_report(self, capsys):
        rc = main([
            "replay", self.SESSION, "--rows", "1000",
            "--concurrency", "2", "--json",
        ])
        assert rc == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["concurrency"] == 2
        assert report["statements"] == 17
        assert set(report["outcomes"]) <= {
            "ok", "degraded", "rejected", "failed"
        }

    def test_one_definition_of_sequential(self, capsys):
        """The default replay *is* concurrency 1: under faults it forks
        them per statement and retries transient errors exactly like
        any other concurrency level, so every answer matches."""
        runs = []
        for extra in ([], ["--concurrency", "1"], ["--concurrency", "4"]):
            rc = main([
                "replay", self.SESSION, "--rows", "2000", "--json",
                "--faults", "cluster=convergence*3", *extra,
            ])
            assert rc == EXIT_OK
            runs.append(json.loads(capsys.readouterr().out))
        default, c1, c4 = runs
        for other in (c1, c4):
            assert [r["digest"] for r in other["results"]] == [
                r["digest"] for r in default["results"]
            ]
            assert other["statuses"] == default["statuses"]
            assert other["degradations"] == default["degradations"]
            assert other["work"]["totals"] == default["work"]["totals"]
        assert len(default["results"]) == 17

    def test_concurrent_replay_rejects_bad_concurrency(self, capsys):
        rc = main([
            "replay", self.SESSION, "--rows", "1000",
            "--concurrency", "0",
        ])
        assert rc == EXIT_USAGE


class TestServeCommand:
    SESSION = TestReplayCommand.SESSION

    def test_serve_requires_stress(self, capsys):
        rc = main(["serve", self.SESSION, "--rows", "500"])
        assert rc == EXIT_USAGE
        assert "stress" in capsys.readouterr().err

    def test_stress_run_reports_outcomes(self, capsys):
        rc = main([
            "serve", self.SESSION, "--stress", "--rows", "500",
            "--workers", "2", "--queue-limit", "2",
        ])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert "concurrent replay" in out
        assert "outcomes:" in out

    def test_stress_under_faults_never_wrong_answers(
        self, tmp_path, capsys
    ):
        metrics = tmp_path / "m.json"
        rc = main([
            "serve", self.SESSION, "--stress", "--rows", "500",
            "--workers", "2", "--deadline-ms", "2000",
            "--faults", "cluster=convergence*1,serve.slow_worker=crash*1",
            "--metrics", str(metrics),
        ])
        assert rc == EXIT_OK
        report = json.loads(
            metrics.read_text()
        )
        assert report["counters"]["serve.admitted"] >= 17


class TestMaxBadRows:
    HEADER = (
        "Make,Model,BodyType,Price,Mileage,Year,Engine,Drivetrain,"
        "Transmission,Color,FuelEconomy"
    )
    GOOD = "Ford,F-150,Truck,30000,40000,2015,V6,AWD,Automatic,Red,20"
    BAD = "Ford,F-150,Truck,30000,40000,cheap,V6,AWD,Automatic,Red,20"

    def _write(self, tmp_path, *rows):
        path = tmp_path / "cars.csv"
        path.write_text("\n".join((self.HEADER,) + rows) + "\n")
        return str(path)

    def test_bad_row_fails_with_location(self, tmp_path, capsys):
        csv = self._write(tmp_path, self.GOOD, self.BAD)
        rc = main([
            "cadview", "--dataset", "usedcars", "--csv", csv,
            "--sql", "SELECT Make FROM data LIMIT 1",
        ])
        assert rc == EXIT_USAGE
        err = capsys.readouterr().err
        assert "row 2" in err and "Year" in err

    def test_max_bad_rows_quarantines_and_warns(self, tmp_path, capsys):
        csv = self._write(tmp_path, self.GOOD, self.BAD, self.GOOD)
        rc = main([
            "cadview", "--dataset", "usedcars", "--csv", csv,
            "--max-bad-rows", "1",
            "--sql", "SELECT Make FROM data LIMIT 5",
        ])
        assert rc == EXIT_OK
        captured = capsys.readouterr()
        assert "skipped bad row" in captured.err
        assert "row 2" in captured.err


class TestShowVariants:
    def test_describe_through_cli(self, capsys):
        rc = main([
            "cadview", "--dataset", "usedcars", "--rows", "500",
            "--sql", "DESCRIBE data",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Engine  categorical  hidden" in out

    def test_show_cadviews_through_cli(self, capsys):
        rc = main([
            "cadview", "--dataset", "usedcars", "--rows", "500",
            "--sql", "SHOW CADVIEWS",
        ])
        assert rc == 0
        assert "empty result" in capsys.readouterr().out
