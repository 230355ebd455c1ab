"""Tests for the logical-clock side of the metrics registry
(repro.obs.metrics: per-window counters, gauge points, quantile
histograms) and the telemetry snapshot file (repro.obs.export)."""

import json
import math

import pytest

from repro.obs import NULL_OBS, Observability
from repro.obs.export import (
    NotASnapshot,
    SNAPSHOT_FORMAT_VERSION,
    build_snapshot,
    publish_snapshot,
    read_snapshot,
)
from repro.obs.metrics import (
    DEFAULT_WINDOW,
    NULL_METRICS,
    Histogram,
    Metrics,
)


# -- logical clock ------------------------------------------------------

def test_clock_ticks_monotonically():
    metrics = Metrics()
    assert metrics.now == 0
    assert metrics.tick() == 1
    assert metrics.tick(3) == 4
    assert metrics.now == 4


# -- counter windows ----------------------------------------------------

def test_windowed_counter_buckets_by_clock_window():
    metrics = Metrics()
    counter = metrics.counter("events", window=4)
    for _ in range(10):
        counter.inc()
        metrics.tick()
    summary = counter.summary()
    assert summary["total"] == 10
    # ticks 0..9 with window 4: windows 0 (ticks 0-3), 1 (4-7), 2 (8-9)
    assert summary["buckets"] == {"0": 4, "1": 4, "2": 2}


def test_windowed_counter_merge_adds_buckets():
    a = Metrics().counter("x", window=4)
    a.inc(2)
    later = Metrics()
    later.tick(6)
    b = later.counter("x", window=4)
    b.inc(5)
    a.merge(b.summary())
    assert a.total == 7
    assert a.summary()["buckets"] == {"0": 2, "1": 5}


# -- gauge points -------------------------------------------------------

def test_gauge_series_last_write_per_tick_wins():
    metrics = Metrics()
    gauge = metrics.gauge("rank")
    gauge.set(5)
    gauge.set(3)                      # same tick: overwrite
    metrics.tick()
    gauge.set(1)
    assert gauge.value == 1
    assert gauge.summary()["points"] == [[0, 3], [1, 1]]


def test_gauge_series_merge_overwrites_per_tick():
    a = Metrics().gauge("rank")
    a.set(9)
    a.merge({"points": [[0, 4], [7, 1]]})
    assert a.summary()["points"] == [[0, 4], [7, 1]]


# -- quantile histogram -------------------------------------------------

def test_sketch_quantiles_within_relative_error():
    sketch = Histogram("lat", alpha=0.01)
    values = [0.001 * i for i in range(1, 1001)]
    for value in values:
        sketch.observe(value)
    for q in (0.5, 0.9, 0.99):
        exact = values[max(0, math.ceil(q * len(values)) - 1)]
        estimate = sketch.quantile(q)
        assert abs(estimate - exact) / exact <= 0.011


def test_sketch_zero_and_negative_share_the_zero_bucket():
    sketch = Histogram("x")
    sketch.observe(0.0)
    sketch.observe(-3.0)
    sketch.observe(10.0)
    assert sketch.zero == 2
    assert sketch.quantile(0.1) == 0.0
    assert sketch.count == 3


def test_sketch_merge_is_exact_and_order_independent():
    serial = Histogram("x")
    part_a = Histogram("x")
    part_b = Histogram("x")
    for index in range(200):
        value = 0.5 + (index % 17) * 0.25
        serial.observe(value)
        (part_a if index % 2 else part_b).observe(value)
    merged = Histogram("x")
    merged.merge(part_a.summary())
    merged.merge(part_b.summary())
    assert merged.summary() == serial.summary()
    # Reverse merge order: byte-identical summaries either way.
    other = Histogram("x")
    other.merge(part_b.summary())
    other.merge(part_a.summary())
    assert other.summary() == merged.summary()


def test_sketch_merge_rejects_alpha_mismatch():
    sketch = Histogram("x", alpha=0.01)
    foreign = Histogram("x", alpha=0.05)
    foreign.observe(1.0)
    with pytest.raises(ValueError):
        sketch.merge(foreign.summary())


# -- registry -----------------------------------------------------------

def test_registry_instruments_are_cached_by_name():
    metrics = Metrics()
    assert metrics.counter("a") is metrics.counter("a")
    assert metrics.gauge("g") is metrics.gauge("g")
    assert metrics.histogram("s") is metrics.histogram("s")


def test_registry_roundtrip_through_to_dict_merge():
    metrics = Metrics()
    for index in range(20):
        metrics.tick()
        metrics.counter("runs").inc()
        metrics.gauge("rank").set(20 - index)
        metrics.histogram("score").observe(0.1 * (index + 1))
    clone = Metrics()
    clone.merge(metrics.to_dict())
    assert clone.to_dict() == metrics.to_dict()
    assert clone.now == metrics.now


def test_registry_merge_takes_max_clock():
    metrics = Metrics()
    metrics.tick(5)
    metrics.merge({"clock": 3})
    assert metrics.now == 5
    metrics.merge({"clock": 11})
    assert metrics.now == 11


def test_timer_observes_into_a_timing_sketch():
    metrics = Metrics()
    with metrics.timer("stage.x.seconds"):
        pass
    histogram = metrics.histogram("stage.x.seconds")
    assert histogram.timing is True
    assert histogram.count == 1


def test_jobs_invariance_by_construction():
    """The same consumption order yields identical serialized series
    no matter how worker buffers were split."""
    def consume(metrics):
        for index in range(30):
            metrics.tick()
            metrics.counter("runs", window=8).inc()
            metrics.histogram("score").observe(float(index % 7))
    serial = Metrics()
    consume(serial)
    # "Workers": fresh, never-ticked buffers merged into a consumer
    # that ticked the same 30 progress points.
    consumer = Metrics()
    for index in range(30):
        consumer.tick()
        target = consumer if index % 3 else Metrics(window=8)
        target.counter("runs", window=8).inc()
        target.histogram("score").observe(float(index % 7))
        if target is not consumer:
            consumer.merge(target.to_dict())
    assert json.dumps(consumer.to_dict(), sort_keys=True) \
        == json.dumps(serial.to_dict(), sort_keys=True)


# -- the null registry --------------------------------------------------

def test_null_timeseries_hands_out_singletons():
    assert NULL_METRICS.counter("a") is NULL_METRICS.counter("b")
    assert NULL_METRICS.gauge("a") is NULL_METRICS.histogram("b")
    assert NULL_METRICS.timer("a") is NULL_METRICS.timer("b")
    assert NULL_METRICS.tick() == 0
    assert NULL_METRICS.now == 0


def test_null_timeseries_instruments_do_nothing():
    instrument = NULL_METRICS.counter("x")
    instrument.inc()
    instrument.set(3)
    instrument.observe(1.0)
    assert instrument.quantile(0.5) is None
    assert NULL_METRICS.to_dict()["counters"] == {}
    with NULL_METRICS.timer("t"):
        pass


def test_obs_bundle_wires_the_timeseries():
    obs = Observability()
    assert obs.metrics.enabled
    assert NULL_OBS.metrics is NULL_METRICS
    with obs.timer("stage.y.seconds"):
        pass
    payload = obs.to_payload()
    assert set(payload) == {"metrics", "spans"}
    assert payload["metrics"]["histograms"]["stage.y.seconds"]["count"] \
        == 1
    other = Observability()
    other.merge_payload(payload)
    assert other.metrics.histogram("stage.y.seconds").count == 1


# -- snapshots ----------------------------------------------------------

def test_snapshot_roundtrip(tmp_path):
    metrics = Metrics()
    metrics.tick(4)
    metrics.counter("runs").inc(4)
    snapshot = build_snapshot(metrics, fleet={"reports": 4},
                              complete=True)
    assert snapshot["version"] == SNAPSHOT_FORMAT_VERSION
    path = tmp_path / "snap.json"
    assert publish_snapshot(str(path), snapshot)
    loaded = read_snapshot(str(path))
    assert loaded["complete"] is True
    assert loaded["clock"] == 4
    assert loaded["series"]["counters"]["runs"]["total"] == 4
    assert loaded["fleet"] == {"reports": 4}


def test_publish_snapshot_is_atomic(tmp_path):
    path = tmp_path / "snap.json"
    metrics = Metrics()
    publish_snapshot(str(path), build_snapshot(metrics))
    publish_snapshot(str(path), build_snapshot(metrics, complete=True))
    # No temp droppings left behind.
    assert [p.name for p in tmp_path.iterdir()] == ["snap.json"]
    assert read_snapshot(str(path))["complete"] is True


def test_read_snapshot_rejects_non_snapshots(tmp_path):
    path = tmp_path / "not.json"
    path.write_text("{\"foo\": 1}\n")
    with pytest.raises(NotASnapshot):
        read_snapshot(str(path))
    path.write_text("not json at all")
    with pytest.raises(NotASnapshot):
        read_snapshot(str(path))


def test_read_snapshot_rejects_unknown_versions(tmp_path):
    """A version-1 snapshot (two registries) must not render as an
    empty dashboard: the reader names the version it cannot read."""
    path = tmp_path / "old.json"
    path.write_text(json.dumps({
        "version": 1, "clock": 3, "complete": True,
        "series": {"clock": 3, "windowed": {}, "gauges": {},
                   "sketches": {}}}))
    with pytest.raises(NotASnapshot, match="version 1"):
        read_snapshot(str(path))
    snapshot = build_snapshot(Metrics())
    del snapshot["version"]
    path.write_text(json.dumps(snapshot))
    with pytest.raises(NotASnapshot, match="version None"):
        read_snapshot(str(path))


def test_default_window_constant():
    assert Metrics().counter("x").window == DEFAULT_WINDOW
