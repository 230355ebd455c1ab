"""Metric instruments, snapshot/merge semantics, and the no-op path."""

import json

import pytest

from repro.obs.metrics import NULL_METRICS, Metrics


def test_instruments_are_cached_by_name():
    metrics = Metrics()
    assert metrics.counter("c") is metrics.counter("c")
    assert metrics.gauge("g") is metrics.gauge("g")
    assert metrics.histogram("h") is metrics.histogram("h")


def test_counter_gauge_histogram_basics():
    metrics = Metrics()
    metrics.counter("runs").inc()
    metrics.counter("runs").inc(4)
    metrics.gauge("jobs").set(8)
    for value in (2.0, 1.0, 4.0):
        metrics.histogram("dur").observe(value)
    snapshot = metrics.to_dict()
    assert snapshot["counters"]["runs"]["total"] == 5
    assert snapshot["gauges"]["jobs"]["points"] == [[0, 8]]
    assert metrics.gauge("jobs").value == 8
    dur = snapshot["histograms"]["dur"]
    assert (dur["count"], dur["sum"], dur["min"], dur["max"]) \
        == (3, 7.0, 1.0, 4.0)
    assert metrics.histogram("dur").mean == pytest.approx(7.0 / 3)


def test_merge_accumulates_counters_and_histograms():
    parent = Metrics()
    parent.counter("runs").inc(2)
    parent.gauge("jobs").set(1)
    parent.histogram("dur").observe(5.0)
    worker = Metrics()
    worker.counter("runs").inc(3)
    worker.counter("only.worker").inc()
    worker.gauge("jobs").set(8)
    worker.histogram("dur").observe(1.0)
    worker.histogram("dur").observe(9.0)

    parent.merge(worker.to_dict())
    snapshot = parent.to_dict()
    assert {name: summary["total"]
            for name, summary in snapshot["counters"].items()} \
        == {"runs": 5, "only.worker": 1}
    assert parent.gauge("jobs").value == 8          # last write wins
    dur = snapshot["histograms"]["dur"]
    assert (dur["count"], dur["sum"], dur["min"], dur["max"]) \
        == (3, 15.0, 1.0, 9.0)


def test_merge_skips_empty_histograms():
    parent = Metrics()
    parent.histogram("dur").observe(2.0)
    parent.merge({"histograms": {"dur": {"count": 0, "sum": 0.0,
                                         "min": None, "max": None}}})
    assert parent.histogram("dur").count == 1
    assert parent.histogram("dur").min == 2.0


def test_export_json_is_valid_and_sorted(tmp_path):
    metrics = Metrics()
    metrics.counter("b").inc()
    metrics.counter("a").inc()
    path = tmp_path / "metrics.json"
    metrics.export_json(str(path))
    loaded = json.loads(path.read_text())
    assert loaded == metrics.to_dict()
    assert list(loaded["counters"]) == ["a", "b"]


def test_null_metrics_is_inert_but_loud_on_export(tmp_path):
    NULL_METRICS.counter("x").inc(10)
    NULL_METRICS.gauge("x").set(10)
    NULL_METRICS.histogram("x").observe(10)
    assert NULL_METRICS.counter("x").total == 0
    assert NULL_METRICS.to_dict() == {
        "clock": 0, "window": 16,
        "counters": {}, "gauges": {}, "histograms": {},
    }
    NULL_METRICS.merge({"counters": {"x": {"total": 3}}})   # still inert
    with pytest.raises(RuntimeError):
        NULL_METRICS.export_json(str(tmp_path / "nope.json"))


def test_timing_flag_serializes_and_filters():
    metrics = Metrics()
    metrics.counter("runs").inc()
    metrics.counter("executor.dispatch_pool", timing=True).inc()
    metrics.gauge("executor.queue_depth", timing=True).set(3)
    with metrics.timer("stage.x.seconds"):
        pass
    full = metrics.to_dict()
    assert full["counters"]["executor.dispatch_pool"]["timing"] is True
    assert full["counters"]["runs"]["timing"] is False
    assert full["histograms"]["stage.x.seconds"]["timing"] is True
    deterministic = metrics.to_dict(include_timings=False)
    assert list(deterministic["counters"]) == ["runs"]
    assert deterministic["gauges"] == {}
    assert deterministic["histograms"] == {}
    # The flag survives a merge into a fresh registry.
    clone = Metrics()
    clone.merge(full)
    assert clone.to_dict() == full


def test_unticked_buffer_is_credited_to_the_receivers_clock():
    """Pool workers never tick: their counts land at the tick the
    consumer merges them, where an in-process run would have counted."""
    serial = Metrics()
    consumer = Metrics()
    for index in range(40):
        serial.tick()
        consumer.tick()
        serial.counter("machine.runs").inc()
        serial.gauge("depth").set(index)
        worker = Metrics()
        worker.counter("machine.runs").inc()
        worker.gauge("depth").set(index)
        consumer.merge(worker.to_dict())
    assert consumer.to_dict() == serial.to_dict()


def test_ticked_buffer_keeps_its_own_keys():
    """Ledger aggregation: a buffer that ticked is merged as recorded."""
    first = Metrics()
    first.tick(20)
    first.counter("fleet.reports").inc(5)
    first.gauge("fleet.clusters").set(2)
    receiver = Metrics()
    receiver.tick(100)
    receiver.merge(first.to_dict())
    assert receiver.now == 100
    assert receiver.counter("fleet.reports").buckets == {1: 5}
    assert receiver.gauge("fleet.clusters").points == {20: 2}
