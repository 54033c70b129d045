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
    # --execute always runs the columnar engine; there is no --engine.
    for engine in ("row", "columnar"):
        with pytest.raises(SystemExit) as excinfo:
            main([
                "sql", "--query", "select count(*) c from nation",
                "--scale", "1", "--machines", "4", "--execute",
                "--engine", engine,
            ])
        assert excinfo.value.code == 2
        assert "--engine" in capsys.readouterr().err


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
    with pytest.raises(PlanError, match="RIGHT JOIN"):
        main(["sql", "--query", query, "--scale", "1", "--machines", "4",
              "--execute"])


def test_sql_command_engine_choices():
    parser = build_parser()
    assert not hasattr(parser.parse_args(["sql"]), "engine")
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


def test_trace_command_accepts_exact_keys_only(capsys):
    from repro.cli import _trace_registry

    assert main(["trace", "fig03"]) == 2
    err = capsys.readouterr().err
    assert "unknown experiment 'fig03'" in err
    assert "available: fig3, fig9a, fig9b, fig13, table1, replay" in err
    assert list(_trace_registry()) == [
        "fig3", "fig9a", "fig9b", "fig13", "table1", "replay",
    ]


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


@pytest.mark.parametrize("command", (["experiment", "fig13"], ["report"], ["chaos"]))
def test_worker_count_is_the_only_harness_option(command):
    parser = build_parser()
    assert parser.parse_args([*command, "--jobs", "2"]).jobs_workers == 2
    # Cell results are cached in process memory only.
    with pytest.raises(SystemExit):
        parser.parse_args([*command, "--cache-dir", "cache"])


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


#: sha256 of ``serve --trace smoke`` outputs (seed 7).  The gateway's
#: dispatch order, admission verdicts and the runtime all feed these
#: bytes, so a change that moves any simulated outcome of the service
#: shows here, not only between two replays of one build.
SERVE_SMOKE_SHA256 = {
    "queue_times.csv": "d5411a3da48cbd8c94ce9ceb060316337595c80f7e430ba46343dea00d12cdae",
    "summary.json": "e487efd902ac66de9adb48fcecfa5b8095772dad780a1fa84ad832858106468d",
}


def test_serve_smoke_outputs_are_pinned(tmp_path):
    import hashlib

    out = tmp_path / "svc"
    assert main(["serve", "--trace", "smoke", "--out", str(out)]) == 0
    digests = {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in SERVE_SMOKE_SHA256
    }
    assert digests == SERVE_SMOKE_SHA256


def test_serve_summary_json_has_percentiles(tmp_path):
    import json

    out = tmp_path / "svc"
    assert main(["serve", "--trace", "smoke", "--n-jobs", "12",
                 "--out", str(out)]) == 0
    payload = json.loads((out / "summary.json").read_text())
    totals = payload["totals"]
    assert {"p50", "p95", "p99"} <= set(totals["queue_time"])
    assert totals["submitted"] == 12
