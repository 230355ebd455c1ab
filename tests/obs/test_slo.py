"""Tests for declarative SLOs and burn-rate gating (repro.obs.slo)."""

import json
import math

import pytest

from repro.obs.slo import (
    SLOError,
    evaluate_slo,
    evaluate_slos,
    load_slos,
    parse_slos,
    render_slo_report,
)
from repro.obs.export import build_snapshot
from repro.obs.metrics import Metrics


def _snapshot():
    metrics = Metrics()
    for index in range(32):
        metrics.tick()
        metrics.counter("fleet.reports").inc()
        metrics.histogram("score").observe(0.1 + 0.01 * (index % 5))
    metrics.gauge("fleet.runs_to_rank1.aaa").set(3)
    metrics.gauge("fleet.runs_to_rank1.bbb").set(9)
    metrics.histogram("stage.campaign.seconds", timing=True).observe(0.25)
    return build_snapshot(metrics, complete=True)


# -- parsing ------------------------------------------------------------

def test_parse_valid_document():
    slos = parse_slos({"slos": [
        {"name": "a", "metric": "m", "max": 5},
        {"name": "b", "metric": "m", "quantile": 0.95, "max": 1.0},
        {"name": "c", "metric": "m", "min_per_window": 2,
         "budget": 0.5},
    ]})
    assert [slo.name for slo in slos] == ["a", "b", "c"]
    assert slos[2].windowed


@pytest.mark.parametrize("document", [
    {},                                        # no slos key
    {"slos": []},                              # empty list
    {"slos": [{"metric": "m", "max": 1}]},     # missing name
    {"slos": [{"name": "a", "max": 1}]},       # missing metric
    {"slos": [{"name": "a", "metric": "m"}]},  # no bound at all
    {"slos": [{"name": "a", "metric": "m", "quantile": 0.5}]},
    {"slos": [{"name": "a", "metric": "m", "quantile": 2, "max": 1}]},
    {"slos": [{"name": "a", "metric": "m", "max": 1, "budget": 1.5}]},
    {"slos": [{"name": "a", "metric": "m", "max": 1, "bogus": 1}]},
])
def test_parse_rejects_malformed(document):
    with pytest.raises(SLOError):
        parse_slos(document)


def test_load_slos_rejects_non_json(tmp_path):
    path = tmp_path / "slo.json"
    path.write_text("nope")
    with pytest.raises(SLOError):
        load_slos(str(path))


# -- evaluation ---------------------------------------------------------

def test_gauge_objective_passes_and_fails():
    snapshot = _snapshot()
    ok = evaluate_slo(parse_slos({"slos": [
        {"name": "conv", "metric": "fleet.runs_to_rank1", "max": 10},
    ]})[0], snapshot)
    assert ok.ok and ok.checked == 2 and ok.violations == 0
    bad = evaluate_slo(parse_slos({"slos": [
        {"name": "conv", "metric": "fleet.runs_to_rank1", "max": 5},
    ]})[0], snapshot)
    assert not bad.ok
    assert bad.violations == 1
    assert math.isinf(bad.burn_rate)   # zero budget: any violation burns
    assert bad.value == 9              # worst observed


def test_gauge_none_point_violates_a_max_bound():
    metrics = Metrics()
    metrics.gauge("fleet.runs_to_rank1.x").set(None)  # never converged
    result = evaluate_slo(parse_slos({"slos": [
        {"name": "conv", "metric": "fleet.runs_to_rank1", "max": 99},
    ]})[0], build_snapshot(metrics))
    assert not result.ok


def test_windowed_objective_ignores_the_filling_tail_window():
    metrics = Metrics()
    # 20 ticks, window 16: window 0 full (16), window 1 only 4 — the
    # tail window is still filling and must not trip a min gate.
    for _ in range(20):
        metrics.tick()
        metrics.counter("fleet.reports").inc()
    result = evaluate_slo(parse_slos({"slos": [
        {"name": "thru", "metric": "fleet.reports",
         "min_per_window": 10},
    ]})[0], build_snapshot(metrics))
    assert result.ok
    assert result.checked == 1


def test_budget_tolerates_a_fraction_of_violations():
    metrics = Metrics()
    # 4 interior windows: counts 16,16,16,2 (violating), tail dropped.
    for index in range(66):
        metrics.tick()
        if index < 50 or index >= 64:
            metrics.counter("fleet.reports").inc()
    slo = parse_slos({"slos": [
        {"name": "thru", "metric": "fleet.reports", "min_per_window": 10,
         "budget": 0.5},
    ]})[0]
    result = evaluate_slo(slo, build_snapshot(metrics))
    assert result.violations == 1 and result.checked == 4
    assert result.ok                  # 25% violating / 50% budget = 0.5
    assert result.burn_rate == pytest.approx(0.5)
    tight = parse_slos({"slos": [
        {"name": "thru", "metric": "fleet.reports", "min_per_window": 10,
         "budget": 0.1},
    ]})[0]
    assert not evaluate_slo(tight, build_snapshot(metrics)).ok


def test_quantile_objective_covers_timing_sketches():
    snapshot = _snapshot()
    ok = evaluate_slo(parse_slos({"slos": [
        {"name": "lat", "metric": "stage.campaign.seconds",
         "quantile": 0.95, "max": 1.0},
    ]})[0], snapshot)
    assert ok.ok
    bad = evaluate_slo(parse_slos({"slos": [
        {"name": "lat", "metric": "stage.campaign.seconds",
         "quantile": 0.95, "max": 0.01},
    ]})[0], snapshot)
    assert not bad.ok


def test_missing_metric_fails_the_objective():
    result = evaluate_slo(parse_slos({"slos": [
        {"name": "ghost", "metric": "no.such.series", "max": 1},
    ]})[0], _snapshot())
    assert not result.ok
    assert result.value is None


# -- rendering ----------------------------------------------------------

def test_render_report_exit_codes():
    snapshot = _snapshot()
    slos = parse_slos({"slos": [
        {"name": "ok-one", "metric": "fleet.runs_to_rank1", "max": 10},
    ]})
    text, code = render_slo_report(evaluate_slos(slos, snapshot))
    assert code == 0
    assert "SLO VIOLATION" not in text
    slos = parse_slos({"slos": [
        {"name": "ok-one", "metric": "fleet.runs_to_rank1", "max": 10},
        {"name": "bad-one", "metric": "fleet.runs_to_rank1", "max": 1},
    ]})
    text, code = render_slo_report(evaluate_slos(slos, snapshot))
    assert code == 1
    assert "SLO VIOLATION: 1 objective over budget" in text
    assert "FAIL" in text


def test_slo_file_roundtrip(tmp_path):
    path = tmp_path / "slo.json"
    path.write_text(json.dumps({"slos": [
        {"name": "a", "metric": "fleet.reports", "min_per_window": 1,
         "budget": 0.25},
    ]}))
    slos = load_slos(str(path))
    assert slos[0].budget == 0.25
