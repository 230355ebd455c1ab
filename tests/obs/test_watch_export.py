"""End-to-end tests for `repro obs watch`, `obs export`, `obs trends
--slo`, the snapshot publication of `repro triage --snapshot-out`, and
the torn-trace tolerance of `repro obs report`."""

import io
import json
import subprocess
import sys

import pytest

from repro.cli import main
from repro.obs import Observability, use
from repro.obs.ledger import Ledger
from repro.obs.export import build_snapshot, publish_snapshot
from repro.obs.metrics import Metrics
from repro.obs.watch import render_dashboard, sparkline, watch


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


TRIAGE = ("triage", "--reports", "8", "--seed", "3", "--runs", "3",
          "--bugs", "sort", "apache1")


@pytest.fixture(scope="module")
def published(tmp_path_factory):
    """One triage run with a published snapshot + ledger, shared."""
    root = tmp_path_factory.mktemp("telemetry")
    snapshot = root / "snap.json"
    ledger = root / "ledger"
    code, text = run_cli(*TRIAGE, "--ledger-dir", str(ledger),
                         "--snapshot-out", str(snapshot))
    assert code == 0
    assert "telemetry snapshot published" in text
    return {"snapshot": snapshot, "ledger": ledger}


# -- sparklines / dashboard --------------------------------------------

def test_sparkline_scales_to_levels():
    assert sparkline([0, 1]) == "▁█"
    assert sparkline([5, 5, 5]) == "▁▁▁"
    assert sparkline([]) == ""
    assert sparkline([None, 1])[0] == " "


def test_render_dashboard_sections():
    metrics = Metrics()
    for _ in range(5):
        metrics.tick()
        metrics.counter("fleet.reports").inc()
    metrics.counter("executor.dispatch_pool", timing=True).inc()
    metrics.gauge("fleet.rank_of_true_cause.abcd1234").set(1)
    with metrics.timer("stage.cluster.seconds"):
        pass
    frame = render_dashboard(build_snapshot(
        metrics, fleet={"reports": 5}, executor={"jobs": 2},
        complete=False))
    assert "running" in frame
    assert "fleet.reports" in frame
    assert "executor.dispatch_pool" not in frame     # timing: not shown
    assert "abcd1234" in frame
    assert "stage.cluster.seconds" in frame
    assert "executor" in frame and "jobs=2" in frame


# -- watch --------------------------------------------------------------

def test_watch_once_renders_a_frame(published):
    code, text = run_cli("obs", "watch", str(published["snapshot"]),
                         "--once")
    assert code == 0
    assert "repro fleet telemetry — complete" in text
    assert "convergence" in text


def test_watch_once_missing_file_exits_2(tmp_path):
    code, text = run_cli("obs", "watch", str(tmp_path / "none.json"),
                         "--once")
    assert code == 2
    assert "no snapshot" in text


def test_watch_rejects_non_snapshot(tmp_path):
    path = tmp_path / "bogus.json"
    path.write_text("{\"foo\": 1}\n")
    code, text = run_cli("obs", "watch", str(path), "--once")
    assert code == 2
    assert "not a telemetry snapshot" in text


def test_watch_live_stops_on_complete(tmp_path):
    path = tmp_path / "live.json"
    metrics = Metrics()
    metrics.tick()
    publish_snapshot(str(path), build_snapshot(metrics, complete=True))
    out = io.StringIO()
    code = watch(str(path), out, interval=0.01, clear=False)
    assert code == 0
    assert "complete" in out.getvalue()


# -- export -------------------------------------------------------------

def test_export_from_snapshot_is_valid_openmetrics(published):
    code, text = run_cli("obs", "export", "--snapshot",
                         str(published["snapshot"]))
    assert code == 0
    assert text.rstrip().endswith("# EOF")
    assert "# TYPE repro_logical_clock counter" in text
    assert "repro_fleet_reports_total 8" in text
    assert "repro_machine_runs_total" in text
    # Timing instruments stay out of the deterministic surface...
    assert "stage_campaign_seconds" not in text
    assert "repro_executor_" not in text
    # ...unless explicitly asked for.
    code, timed = run_cli("obs", "export", "--snapshot",
                          str(published["snapshot"]),
                          "--include-timings")
    assert code == 0
    assert "repro_stage_campaign_seconds" in timed
    # Both pass the format self-check CI pipes through.
    for body in (text, timed):
        result = subprocess.run(
            [sys.executable, "tools/check_openmetrics.py"],
            input=body, capture_output=True, text=True)
        assert result.returncode == 0, result.stdout


def test_export_from_ledger_matches_snapshot_series(published):
    code, from_snap = run_cli("obs", "export", "--snapshot",
                              str(published["snapshot"]))
    assert code == 0
    code, from_ledger = run_cli("obs", "export", "--ledger-dir",
                                str(published["ledger"]))
    assert code == 0
    assert from_snap == from_ledger


def test_export_to_file(published, tmp_path):
    out_path = tmp_path / "metrics.om"
    code, text = run_cli("obs", "export", "--snapshot",
                         str(published["snapshot"]), "--out",
                         str(out_path))
    assert code == 0
    assert "written to" in text
    assert out_path.read_text().rstrip().endswith("# EOF")


def test_export_from_ledger_folds_pre_merge_entries(published, tmp_path):
    """Ledger entries written before the two registries merged carry
    their telemetry under ``obs.timeseries`` (``windowed``/``sketches``)
    and must still export, identically."""
    ledger = Ledger(tmp_path / "legacy")
    for entry in Ledger(published["ledger"]).entries(kind="triage",
                                                      workload="fleet"):
        series = entry["obs"]
        legacy = {"counters": {},           # plain ints, never exported
                  "timeseries": {
                      "clock": series["clock"],
                      "window": series["window"],
                      "windowed": series["counters"],
                      "gauges": series["gauges"],
                      "sketches": series["histograms"]}}
        ledger.append(kind="triage", tool=None, workload="fleet",
                      seed=entry["seed"], params=entry["params"],
                      quality=entry["quality"], obs=legacy)
    code, from_legacy = run_cli("obs", "export", "--ledger-dir",
                                str(tmp_path / "legacy"))
    assert code == 0
    code, from_ledger = run_cli("obs", "export", "--ledger-dir",
                                str(published["ledger"]))
    assert from_legacy == from_ledger
    assert "repro_fleet_reports_total 8" in from_legacy


def test_export_without_telemetry_exits_2(tmp_path):
    code, text = run_cli("obs", "export", "--ledger-dir",
                         str(tmp_path / "empty"))
    assert code == 2
    assert "no telemetry" in text


# -- trends --slo gating ------------------------------------------------

def _write_slo(path, slos):
    path.write_text(json.dumps({"slos": slos}))
    return str(path)


def test_trends_slo_gate_passes(published, tmp_path):
    slo = _write_slo(tmp_path / "slo.json", [
        {"name": "convergence", "metric": "fleet.runs_to_rank1",
         "max": 6},
        {"name": "ingest", "metric": "fleet.reports",
         "min_per_window": 1, "budget": 0.25},
    ])
    code, text = run_cli("obs", "trends", "--slo", slo, "--snapshot",
                         str(published["snapshot"]))
    assert code == 0
    assert "SLO evaluation" in text


def test_trends_slo_gate_fails_nonzero(published, tmp_path):
    slo = _write_slo(tmp_path / "slo.json", [
        {"name": "impossible", "metric": "fleet.runs",
         "min_per_window": 10000},
    ])
    code, text = run_cli("obs", "trends", "--slo", slo, "--snapshot",
                         str(published["snapshot"]))
    assert code == 1
    assert "SLO VIOLATION" in text


def test_trends_slo_from_ledger(published, tmp_path):
    slo = _write_slo(tmp_path / "slo.json", [
        {"name": "convergence", "metric": "fleet.runs_to_rank1",
         "max": 6},
    ])
    code, text = run_cli("obs", "trends", "--slo", slo, "--ledger-dir",
                         str(published["ledger"]))
    assert code == 0


def test_trends_slo_bad_file_exits_2(published, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{\"slos\": [{\"name\": \"x\"}]}")
    code, text = run_cli("obs", "trends", "--slo", str(path),
                         "--snapshot", str(published["snapshot"]))
    assert code == 2
    assert "bad SLO file" in text


# -- torn-trace tolerance of `repro obs report` -------------------------

def _trace_records():
    obs = Observability()
    with use(obs):
        with obs.span("outer"):
            with obs.span("inner"):
                pass
    return obs.tracer.records


def test_obs_report_tolerates_a_torn_tail(tmp_path):
    path = tmp_path / "trace.jsonl"
    lines = [json.dumps(r, sort_keys=True) for r in _trace_records()]
    # Simulate a writer killed mid-export: half of the last line lands.
    torn = "\n".join(lines[:-1]) + "\n" + lines[-1][:len(lines[-1]) // 2]
    path.write_text(torn)
    code, text = run_cli("obs", "report", str(path))
    assert code == 0
    assert "Trace report" in text
    assert "skipped 1 torn/corrupt line" in text


def test_obs_report_tolerates_corrupt_interior_lines(tmp_path):
    path = tmp_path / "trace.jsonl"
    lines = [json.dumps(r, sort_keys=True) for r in _trace_records()]
    lines.insert(1, "{broken json")
    path.write_text("\n".join(lines) + "\n")
    code, text = run_cli("obs", "report", str(path))
    assert code == 0
    assert "skipped 1 torn/corrupt line" in text


def test_obs_report_still_rejects_non_jsonl(tmp_path):
    path = tmp_path / "not-a-trace.txt"
    path.write_text("this is not json\nnot even close\n")
    code, text = run_cli("obs", "report", str(path))
    assert code == 2
    assert "not a span trace" in text
