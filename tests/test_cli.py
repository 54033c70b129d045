"""Tests for the command-line interface."""

from __future__ import annotations

import dataclasses

import pytest

from repro.cli import build_parser, main
from repro.sql import PlanError


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for key in ("fig9a", "fig14", "table1", "ablation-heartbeat"):
        assert key in out


def test_experiment_command_runs(capsys):
    assert main(["experiment", "fig13"]) == 0
    out = capsys.readouterr().out
    assert "M1" in out and "498" in out
    assert "**Check:** passed." in out


def test_experiment_exits_1_on_failed_claim(capsys, monkeypatch):
    from repro.experiments import reporting

    real = reporting._sections

    def failing_sections():
        return [dataclasses.replace(s, check=lambda result: ["broken"])
                for s in real()]

    monkeypatch.setattr(reporting, "_sections", failing_sections)
    assert main(["experiment", "fig13"]) == 1
    assert "**Check: FAILED** — broken." in capsys.readouterr().out


def test_experiment_unknown_key(capsys):
    assert main(["experiment", "fig99"]) == 2
    err = capsys.readouterr().err
    assert "unknown experiment" in err


def test_sql_command(capsys):
    assert main([
        "sql", "--query", "select count(*) c from nation",
        "--scale", "1", "--machines", "4", "--execute",
    ]) == 0
    out = capsys.readouterr().out
    assert "graphlets" in out
    assert "'c': 25" in out


def test_sql_command_engine_flag(capsys):
    for engine in ("row", "columnar"):
        assert main([
            "sql", "--query", "select count(*) c from nation",
            "--scale", "1", "--machines", "4", "--execute",
            "--engine", engine,
        ]) == 0
        out = capsys.readouterr().out
        assert "'c': 25" in out
        assert f"engine={engine}" in out


def test_sql_command_reports_chosen_engine(capsys):
    assert main([
        "sql", "--query", "select count(*) c from nation",
        "--scale", "1", "--machines", "4", "--execute",
    ]) == 0
    out = capsys.readouterr().out
    assert "engine=columnar" in out


def test_sql_command_rejects_right_join():
    # RIGHT JOIN is a planning error on either engine, never inner-join rows.
    query = ("select * from tpch_region r right join tpch_nation n "
             "on n.n_regionkey = r.r_regionkey and r.r_regionkey < 2")
    for engine in ("row", "columnar"):
        with pytest.raises(PlanError, match="RIGHT JOIN"):
            main(["sql", "--query", query, "--scale", "1", "--machines", "4",
                  "--execute", "--engine", engine])


def test_sql_command_engine_choices():
    parser = build_parser()
    assert parser.parse_args(["sql"]).engine == "columnar"
    with pytest.raises(SystemExit):
        parser.parse_args(["sql", "--engine", "auto"])


def test_replay_command(capsys):
    assert main(["replay", "--n-jobs", "30"]) == 0
    out = capsys.readouterr().out
    assert "replaying 30 jobs" in out
    assert "swift" in out and "jetscope" in out and "speedup" in out


def test_replay_canonical_n_jobs_flag():
    assert build_parser().parse_args(["replay", "--n-jobs", "30"]).n_jobs == 30
    # Workload size is only --n-jobs; --jobs means worker count elsewhere.
    with pytest.raises(SystemExit):
        build_parser().parse_args(["replay", "--jobs", "30"])


def test_trace_command_writes_perfetto_trace(tmp_path, capsys):
    import json

    base = tmp_path / "t"
    assert main(["trace", "fig9a", "--out", str(base), "--format", "both"]) == 0
    out = capsys.readouterr().out
    assert "records" in out and str(base) + ".json" in out
    chrome = json.loads((tmp_path / "t.json").read_text())
    assert {"traceEvents", "displayTimeUnit"} <= set(chrome)
    assert any(e["ph"] == "X" for e in chrome["traceEvents"])
    jsonl_lines = (tmp_path / "t.jsonl").read_text().splitlines()
    assert json.loads(jsonl_lines[0])["args"]["schema"] == 1


def test_trace_command_normalizes_key_spellings():
    from repro.cli import _normalize_trace_key, _trace_registry

    assert _normalize_trace_key("fig03") == "fig3"
    assert _normalize_trace_key("FIG9A") == "fig9a"
    assert _normalize_trace_key("terasort") == "table1"
    assert {"fig3", "fig9a", "fig9b", "fig13", "table1",
            "replay"} <= set(_trace_registry())


def test_trace_command_unknown_experiment(capsys):
    assert main(["trace", "fig99"]) == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_maybe_plot_renders_scalability_chart(capsys):
    from repro.cli import _maybe_plot
    from repro.experiments.harness import ExperimentResult

    result = ExperimentResult(name="fake_scaling")
    for executors, speedup, ideal in ((10_000, 1.0, 1.0), (20_000, 1.9, 2.0)):
        result.add(executors=executors, makespan_s=1.0, speedup=speedup, ideal=ideal)
    _maybe_plot(result)
    out = capsys.readouterr().out
    assert "o=ideal" in out and "x=measured" in out


def test_maybe_plot_noop_for_other_results(capsys):
    from repro.cli import _maybe_plot
    from repro.experiments.harness import ExperimentResult

    result = ExperimentResult(name="plain")
    result.add(metric="a", value=1.0)
    _maybe_plot(result)
    assert capsys.readouterr().out == ""


def test_experiment_json_output(capsys):
    import json

    assert main(["experiment", "fig13", "--json"]) == 0
    out = capsys.readouterr().out
    payload = json.loads(out)
    assert payload["name"] == "fig13_q13_details"
    assert payload["rows"][0]["stage"] == "M1"


# ----------------------------------------------------------------------
# repro chaos / repro serve
# ----------------------------------------------------------------------

def test_chaos_parser_accepts_named_profiles():
    from repro.chaos import PROFILES

    for name in PROFILES:
        args = build_parser().parse_args(["chaos", "--profile", name])
        assert args.profile == name
    with pytest.raises(SystemExit):
        build_parser().parse_args(["chaos", "--profile", "nope"])


def test_serve_parser_defaults():
    args = build_parser().parse_args(["serve"])
    assert args.trace == "paper"
    assert args.out == "service_out"
    assert args.seed == 7
    assert args.audit is False
    assert args.check is False


def test_serve_smoke_writes_outputs(tmp_path, capsys):
    out = tmp_path / "svc"
    assert main(["serve", "--trace", "smoke", "--n-jobs", "16",
                 "--n-tenants", "8", "--out", str(out)]) == 0
    assert (out / "queue_times.csv").exists()
    assert (out / "summary.json").exists()
    stdout = capsys.readouterr().out
    assert "time-in-queue" in stdout
    header = (out / "queue_times.csv").read_text().splitlines()[0]
    assert header.startswith("seq,tenant,job_id,status")


def test_serve_check_passes_deterministically(tmp_path, capsys):
    out = tmp_path / "svc"
    assert main(["serve", "--trace", "smoke", "--n-jobs", "16",
                 "--n-tenants", "8", "--audit", "--check",
                 "--out", str(out)]) == 0
    assert "serve check passed" in capsys.readouterr().out


def test_serve_summary_json_has_percentiles(tmp_path):
    import json

    out = tmp_path / "svc"
    assert main(["serve", "--trace", "smoke", "--n-jobs", "12",
                 "--out", str(out)]) == 0
    payload = json.loads((out / "summary.json").read_text())
    totals = payload["totals"]
    assert {"p50", "p95", "p99"} <= set(totals["queue_time"])
    assert totals["submitted"] == 12
