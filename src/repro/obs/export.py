"""Telemetry snapshots and their OpenMetrics text exposition.

A **snapshot** is the at-rest form of a :class:`~repro.obs.metrics.
Metrics` registry plus dashboard sections: ``repro triage
--snapshot-out`` publishes one atomically after every diagnosed
cluster (:func:`build_snapshot`, :func:`publish_snapshot`), ``repro obs
watch`` tails it and :func:`read_snapshot` reads it back.

``repro obs export`` renders a snapshot file — or a snapshot
reconstructed from the run ledger's triage entries — in the OpenMetrics
text format (Prometheus exposition): ``# TYPE``/``# HELP`` metadata
lines, one sample per line, terminated by ``# EOF``.

The default export surface is **deterministic only**: every instrument
whose ``timing`` flag is clear, keyed by the logical clock.  Timing
instruments (stage latency, executor venue counts) and the
executor/wall snapshot sections are excluded unless
``include_timings=True`` — this exclusion is what makes ``repro triage
--jobs 1`` and ``--jobs 4`` export byte-identical bodies, the property
``tests/obs/test_merge_invariance.py`` pins.

Metric naming: instrument name dots become underscores under a
``repro_`` prefix (``fleet.reports`` → ``repro_fleet_reports``).  An
instrument whose last dotted segment looks like a per-signature label
(the fleet pipeline emits ``fleet.rank_of_true_cause.<sig>``) keeps the
family name and carries the segment as a ``key`` label, so one
Prometheus query covers the whole family.
"""

import json
import re
import time

from repro.obs.metrics import DEFAULT_ALPHA, Histogram, Metrics

#: Bump when the snapshot / series layout changes incompatibly.
SNAPSHOT_FORMAT_VERSION = 2

#: Quantiles rendered for each sketch family.
EXPORT_QUANTILES = (0.5, 0.9, 0.95, 0.99)

_NAME_OK = re.compile(r"[^a-zA-Z0-9_]")

#: Series families whose trailing dotted segment is a label value
#: (per-signature series), not part of the metric name.
LABELED_FAMILIES = (
    "fleet.rank_of_true_cause",
    "fleet.runs_to_rank1",
)


def _metric_name(series_name):
    """``(openmetrics_name, label, family)`` for one series name."""
    label = None
    for family in LABELED_FAMILIES:
        if series_name.startswith(family + "."):
            label = series_name[len(family) + 1:]
            series_name = family
            break
    return ("repro_" + _NAME_OK.sub("_", series_name), label,
            series_name)


def _format_value(value):
    if value is None:
        return "NaN"
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    return "%.10g" % value


def _label_str(pairs):
    if not pairs:
        return ""
    return "{%s}" % ",".join('%s="%s"' % (key, value)
                             for key, value in pairs)


class _Family:
    """One OpenMetrics metric family: metadata plus sample lines."""

    def __init__(self, name, kind, help_text):
        self.name = name
        self.kind = kind
        self.help = help_text
        self.samples = []

    def add(self, suffix, labels, value):
        self.samples.append("%s%s%s %s" % (self.name, suffix,
                                           _label_str(labels),
                                           _format_value(value)))

    def lines(self):
        out = ["# TYPE %s %s" % (self.name, self.kind),
               "# HELP %s %s" % (self.name, self.help)]
        out.extend(self.samples)
        return out


def render_openmetrics(snapshot, include_timings=False):
    """Render *snapshot* as OpenMetrics text (ends with ``# EOF``)."""
    series = snapshot.get("series", {})
    families = {}

    def family(name, kind, help_text):
        existing = families.get(name)
        if existing is None:
            existing = families[name] = _Family(name, kind, help_text)
        return existing

    clock = family("repro_logical_clock", "counter",
                   "Deterministic pipeline progress counter.")
    clock.add("_total", (), snapshot.get("clock", 0))

    def shown(summary):
        return include_timings or not summary.get("timing")

    for series_name, summary in sorted(
            series.get("counters", {}).items()):
        if not shown(summary):
            continue
        name, label, base_name = _metric_name(series_name)
        fam = family(name, "counter",
                     "Windowed counter %s (logical-clock windows of %s)."
                     % (base_name, summary.get("window")))
        base = (("key", label),) if label else ()
        fam.add("_total", base, summary.get("total", 0))
        for bucket, count in sorted(summary.get("buckets", {}).items(),
                                    key=lambda item: int(item[0])):
            fam.add("_window", base + (("window", bucket),), count)

    for series_name, summary in sorted(series.get("gauges", {}).items()):
        if not shown(summary):
            continue
        name, label, base_name = _metric_name(series_name)
        fam = family(name, "gauge",
                     "Gauge series %s sampled at logical-clock ticks."
                     % base_name)
        base = (("key", label),) if label else ()
        points = summary.get("points", ())
        for tick, value in points:
            fam.add("", base + (("tick", str(tick)),), value)

    for series_name, summary in sorted(
            series.get("histograms", {}).items()):
        if not shown(summary):
            continue
        name, label, base_name = _metric_name(series_name)
        fam = family(name, "summary",
                     "Quantile sketch %s (relative error %s)."
                     % (base_name, summary.get("alpha",
                                               DEFAULT_ALPHA)))
        base = (("key", label),) if label else ()
        sketch = Histogram.from_summary(series_name, summary)
        for q in EXPORT_QUANTILES:
            fam.add("", base + (("quantile", _format_value(q)),),
                    sketch.quantile(q))
        fam.add("_count", base, summary.get("count", 0))
        fam.add("_sum", base, summary.get("sum", 0.0))

    lines = []
    for name in sorted(families):
        lines.extend(families[name].lines())
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


def snapshot_from_ledger(ledger, kind="triage"):
    """Rebuild a telemetry snapshot from the ledger's obs payloads.

    Each triage invocation's fleet-summary entry (``kind="triage"``,
    ``workload="fleet"``) records that invocation's cumulative metrics
    buffer, timing instruments left out, under the timing-exempt
    ``obs`` bucket; merging the summaries in seq order reconstructs the
    fleet's aggregate series — the offline twin of the live snapshot
    file.  Returns ``None`` when no entry carries telemetry.
    """
    metrics = Metrics()
    merged = 0
    for entry in ledger.entries(kind=kind, workload="fleet"):
        payload = entry.get("obs") or {}
        legacy = payload.get("timeseries")
        if legacy:
            # Entries written before the two metric registries merged
            # keep the clock-keyed instruments under their old names.
            payload = {"clock": legacy.get("clock", 0),
                       "counters": legacy.get("windowed", {}),
                       "gauges": legacy.get("gauges", {}),
                       "histograms": legacy.get("sketches", {})}
        if not payload.get("clock"):
            continue
        metrics.merge(payload)
        merged += 1
    if not merged:
        return None
    return build_snapshot(metrics, complete=True,
                          fleet={"source": "ledger",
                                 "entries": merged})


# ----------------------------------------------------------------------
# Snapshot files
# ----------------------------------------------------------------------

def build_snapshot(metrics, fleet=None, executor=None, wall=None,
                   complete=False):
    """Assemble the snapshot dict ``repro obs watch``/``export`` read.

    ``series`` holds the registry's :meth:`~repro.obs.metrics.Metrics.
    to_dict` buffer (timing instruments included, flagged);
    ``fleet``/``executor``/``wall`` are free-form sections for the
    dashboard — the executor and wall sections are venue/timing data
    and never enter the deterministic export.
    """
    return {
        "version": SNAPSHOT_FORMAT_VERSION,
        "complete": bool(complete),
        "clock": metrics.now,
        "series": metrics.to_dict(),
        "fleet": fleet or {},
        "executor": executor or {},
        "wall": wall or {},
        "updated_at": time.time(),
    }


def publish_snapshot(path, snapshot):
    """Atomically write *snapshot* to *path*; ``False`` on failure.

    Readers (``repro obs watch``) therefore always see a complete JSON
    document, never a torn write.  Best-effort: a full disk must not
    take the pipeline down.
    """
    from repro.runtime.resilience import atomic_write

    try:
        atomic_write(path, json.dumps(snapshot, sort_keys=True) + "\n")
    except OSError:
        return False
    return True


class NotASnapshot(ValueError):
    """The given file is not a readable telemetry snapshot."""


def read_snapshot(path):
    """Read a snapshot file back; raises :class:`NotASnapshot`."""
    try:
        with open(path) as handle:
            snapshot = json.load(handle)
    except json.JSONDecodeError as exc:
        raise NotASnapshot("not a telemetry snapshot: %s is not JSON "
                           "(%s)" % (path, exc)) from None
    if not isinstance(snapshot, dict) or "series" not in snapshot \
            or "clock" not in snapshot:
        raise NotASnapshot(
            "not a telemetry snapshot: %s lacks the series/clock keys "
            "(expected a file published by `repro triage "
            "--snapshot-out`)" % path)
    version = snapshot.get("version")
    if version != SNAPSHOT_FORMAT_VERSION:
        raise NotASnapshot(
            "unsupported telemetry snapshot: %s has version %r, this "
            "build reads version %d (re-publish it with `repro triage "
            "--snapshot-out`)" % (path, version, SNAPSHOT_FORMAT_VERSION))
    return snapshot


__all__ = [
    "EXPORT_QUANTILES",
    "NotASnapshot",
    "SNAPSHOT_FORMAT_VERSION",
    "build_snapshot",
    "publish_snapshot",
    "read_snapshot",
    "render_openmetrics",
    "snapshot_from_ledger",
]
