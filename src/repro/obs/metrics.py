"""Metrics: one registry of counters, gauges and histograms.

A :class:`Metrics` registry hands out named instruments::

    metrics.counter("cache.hits").inc()
    metrics.gauge("fleet.clusters").set(8)
    metrics.histogram("machine.run_retired").observe(1200)
    with metrics.timer("stage.cluster.seconds"):
        ...

Instruments are created on first use and live for the registry's
lifetime, so hot code can hold a direct reference.  When observability
is disabled the :class:`NullMetrics` registry hands out shared no-op
instruments whose methods do nothing — the disabled path allocates
nothing and branches once.

**The logical clock.**  The registry owns a deterministic progress
counter (:meth:`Metrics.tick`, :attr:`Metrics.now`) that the pipeline
advances at consumption points only: one tick per ingested fleet
report, one per replayed campaign run.  Consumption order is plan
order — the executor's jobs-invariance contract — so the clock, and
every series keyed by it, is identical at any ``--jobs`` value.  Wall
clocks would not be: ``--jobs 4`` interleaves work differently.

Three instrument kinds, each keyed by that clock:

* :class:`Counter` — a total plus per-window buckets
  (``now // window``): throughput-per-window curves;
* :class:`Gauge` — ``(tick, value)`` points, last write per tick wins;
  its :attr:`~Gauge.value` is the latest point;
* :class:`Histogram` — count/sum/min/max plus a log-bucketed, mergeable
  quantile sketch (DDSketch-style): merges add bucket counts, so N
  workers' histograms merge to exactly the serial histogram.

**The timing flag.**  Every instrument carries ``timing``.  It marks
wall-clock observations (timers, ``machine.run_seconds``) and the
executor's venue instruments (``executor.*``, cache drop/write-error
counts), whose values depend on ``--jobs`` and cache state.  Timing
instruments merge and render, but stay out of the deterministic
surface: the ledger's ``obs`` bucket (``to_dict(include_timings=
False)``) and the default OpenMetrics export (:mod:`repro.obs.export`).

**One buffer format.**  :meth:`Metrics.to_dict` is the only format: the
pool-worker payload, ``--metrics-out``, the ledger ``obs`` bucket and a
telemetry snapshot's ``series`` all hold it.  :meth:`Metrics.merge`
folds one back in: buckets and sketch counts add, gauge points
overwrite per tick.  A buffer whose clock never advanced — every pool
worker's, since workers never tick — is credited to the receiver's
current clock, exactly where an in-process run would have recorded it;
a buffer that ticked keeps its own keys.
"""

import json
import math
import time

#: Default logical-clock window of counters.
DEFAULT_WINDOW = 16

#: Default relative accuracy of histogram sketches: bucket boundaries
#: grow geometrically by (1+alpha)/(1-alpha), giving quantile estimates
#: within ±alpha relative error.
DEFAULT_ALPHA = 0.01


class Counter:
    """Event count: a total plus per-logical-clock-window buckets."""

    __slots__ = ("name", "timing", "window", "total", "buckets",
                 "_registry")

    def __init__(self, name, registry, window=DEFAULT_WINDOW,
                 timing=False):
        self.name = name
        self.timing = timing
        self.window = window
        self.total = 0
        self.buckets = {}
        self._registry = registry

    def inc(self, n=1):
        self.total += n
        bucket = self._registry.now // self.window
        self.buckets[bucket] = self.buckets.get(bucket, 0) + n

    def summary(self):
        return {"window": self.window, "timing": self.timing,
                "total": self.total,
                "buckets": {str(k): v
                            for k, v in sorted(self.buckets.items())}}

    def merge(self, summary, at=None):
        """Add *summary*; *at* re-keys every bucket to that tick."""
        self.total += summary.get("total", 0)
        for key, value in summary.get("buckets", {}).items():
            bucket = int(key) if at is None else at // self.window
            self.buckets[bucket] = self.buckets.get(bucket, 0) + value


class Gauge:
    """``(tick, value)`` points; the last write per tick wins."""

    __slots__ = ("name", "timing", "points", "_registry")

    def __init__(self, name, registry, timing=False):
        self.name = name
        self.timing = timing
        self.points = {}
        self._registry = registry

    def set(self, value):
        self.points[self._registry.now] = value

    @property
    def value(self):
        """The latest point's value (``None`` before the first set)."""
        if not self.points:
            return None
        return self.points[max(self.points)]

    def summary(self):
        return {"timing": self.timing,
                "points": [[tick, self.points[tick]]
                           for tick in sorted(self.points)]}

    def merge(self, summary, at=None):
        """Overwrite per tick; *at* re-keys every point to that tick."""
        for tick, value in summary.get("points", ()):
            self.points[int(tick) if at is None else at] = value


class Histogram:
    """Count, sum, min and max plus a mergeable quantile sketch.

    An observation *v* > 0 lands in bucket ``ceil(log_gamma(v))`` with
    ``gamma = (1+alpha)/(1-alpha)``; zero and negative values share a
    dedicated bucket.  Bucket keys are integers, so two histograms built
    from the same multiset of observations are *identical* dicts no
    matter the observation or merge order — the property the
    cross-worker merge tests pin byte-for-byte.
    """

    __slots__ = ("name", "alpha", "timing", "count", "total", "zero",
                 "min", "max", "buckets", "_log_gamma")

    def __init__(self, name, alpha=DEFAULT_ALPHA, timing=False):
        self.name = name
        self.alpha = alpha
        self.timing = timing
        self.count = 0
        self.total = 0.0
        self.zero = 0                 # observations <= 0
        self.min = None
        self.max = None
        self.buckets = {}
        self._log_gamma = math.log((1.0 + alpha) / (1.0 - alpha))

    @classmethod
    def from_summary(cls, name, summary):
        """Rebuild a histogram from its serialized :meth:`summary`."""
        histogram = cls(name, alpha=summary.get("alpha", DEFAULT_ALPHA),
                        timing=summary.get("timing", False))
        histogram.merge(summary)
        return histogram

    def observe(self, value):
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        if value <= 0.0:
            self.zero += 1
            return
        key = math.ceil(math.log(value) / self._log_gamma)
        self.buckets[key] = self.buckets.get(key, 0) + 1

    def quantile(self, q):
        """The estimated *q*-quantile (0 <= q <= 1), or ``None``."""
        if not self.count:
            return None
        rank = max(0, math.ceil(q * self.count) - 1)
        if rank < self.zero:
            return 0.0
        seen = self.zero
        for key in sorted(self.buckets):
            seen += self.buckets[key]
            if rank < seen:
                # The bucket's midpoint in value space: within ±alpha
                # of every observation that landed in it.
                return (2.0 * math.exp(key * self._log_gamma)
                        / (math.exp(self._log_gamma) + 1.0))
        return None                    # pragma: no cover (unreachable)

    @property
    def mean(self):
        return self.total / self.count if self.count else 0.0

    def summary(self):
        return {"alpha": self.alpha, "timing": self.timing,
                "count": self.count, "sum": self.total,
                "min": self.min, "max": self.max, "zero": self.zero,
                "buckets": {str(k): v
                            for k, v in sorted(self.buckets.items())}}

    def merge(self, summary):
        if summary.get("alpha", self.alpha) != self.alpha:
            raise ValueError(
                "cannot merge histograms with different accuracy "
                "(alpha %r vs %r)" % (summary.get("alpha"), self.alpha))
        self.count += summary.get("count", 0)
        self.total += summary.get("sum", 0.0)
        self.zero += summary.get("zero", 0)
        for key, better in (("min", min), ("max", max)):
            incoming = summary.get(key)
            if incoming is not None:
                current = getattr(self, key)
                setattr(self, key, incoming if current is None
                        else better(current, incoming))
        for key, value in summary.get("buckets", {}).items():
            bucket = int(key)
            self.buckets[bucket] = self.buckets.get(bucket, 0) + value


class _Timer:
    """Context manager observing elapsed wall seconds into a histogram."""

    __slots__ = ("_histogram", "_started")

    def __init__(self, histogram):
        self._histogram = histogram
        self._started = None

    def __enter__(self):
        self._started = time.perf_counter()
        return self

    def __exit__(self, *_exc):
        self._histogram.observe(time.perf_counter() - self._started)
        return False


class Metrics:
    """Registry of clock-keyed instruments (see the module docstring)."""

    enabled = True

    def __init__(self, window=DEFAULT_WINDOW):
        self.now = 0
        self.window = window
        self._counters = {}
        self._gauges = {}
        self._histograms = {}

    def tick(self, n=1):
        """Advance the logical clock by *n* deterministic events."""
        self.now += n
        return self.now

    # -- instruments ----------------------------------------------------

    def counter(self, name, timing=False, window=None):
        instrument = self._counters.get(name)
        if instrument is None:
            instrument = self._counters[name] = Counter(
                name, self, window=window or self.window, timing=timing)
        return instrument

    def gauge(self, name, timing=False):
        instrument = self._gauges.get(name)
        if instrument is None:
            instrument = self._gauges[name] = Gauge(name, self,
                                                    timing=timing)
        return instrument

    def histogram(self, name, timing=False, alpha=DEFAULT_ALPHA):
        instrument = self._histograms.get(name)
        if instrument is None:
            instrument = self._histograms[name] = Histogram(
                name, alpha=alpha, timing=timing)
        return instrument

    def timer(self, name):
        """A context manager timing a stage into timing histogram *name*."""
        return _Timer(self.histogram(name, timing=True))

    # -- buffer exchange ------------------------------------------------

    def to_dict(self, include_timings=True):
        """Snapshot as a plain (picklable, JSON-serializable) dict.

        ``include_timings=False`` leaves timing instruments out: the
        jobs-invariant projection the ledger records.
        """
        def section(instruments):
            return {name: instrument.summary()
                    for name, instrument in sorted(instruments.items())
                    if include_timings or not instrument.timing}
        return {
            "clock": self.now,
            "window": self.window,
            "counters": section(self._counters),
            "gauges": section(self._gauges),
            "histograms": section(self._histograms),
        }

    def merge(self, payload):
        """Fold a :meth:`to_dict` snapshot into this registry.

        The clock takes the maximum of the two sides.  A payload whose
        clock never advanced is credited to this registry's current
        tick; one that ticked keeps its own bucket and point keys.
        """
        if not payload:
            return
        clock = payload.get("clock", 0)
        at = None if clock else self.now
        self.now = max(self.now, clock)
        for name, summary in payload.get("counters", {}).items():
            self.counter(name, timing=summary.get("timing", False),
                         window=summary.get("window")).merge(summary, at)
        for name, summary in payload.get("gauges", {}).items():
            self.gauge(name, timing=summary.get("timing", False)) \
                .merge(summary, at)
        for name, summary in payload.get("histograms", {}).items():
            self.histogram(name, timing=summary.get("timing", False),
                           alpha=summary.get("alpha", DEFAULT_ALPHA)) \
                .merge(summary)

    def export_json(self, path):
        """Write the registry snapshot to *path* as pretty JSON."""
        with open(path, "w") as handle:
            json.dump(self.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")


class _NullInstrument:
    """Shared do-nothing counter/gauge/histogram/timer."""

    __slots__ = ()

    name = ""
    timing = False
    window = DEFAULT_WINDOW
    total = 0
    value = None
    count = 0
    zero = 0
    min = None
    max = None
    mean = 0.0

    def inc(self, n=1):
        pass

    def set(self, value):
        pass

    def observe(self, value):
        pass

    def quantile(self, q):
        return None

    def __enter__(self):
        return self

    def __exit__(self, *_exc):
        return False


_NULL_INSTRUMENT = _NullInstrument()


class NullMetrics:
    """No-op registry: every accessor returns a cached singleton.

    The disabled path must be allocation-free — hot pipeline stages
    call ``tick()`` / ``timer(...)`` / ``counter(...)``
    unconditionally, so handing out fresh objects here would turn
    "observability off" into a steady allocation stream.
    ``benchmarks/test_overhead.py`` asserts both the singleton identity
    and the zero-allocation loop.
    """

    __slots__ = ()

    enabled = False
    now = 0

    def tick(self, n=1):
        return 0

    def counter(self, _name, timing=False, window=None):
        return _NULL_INSTRUMENT

    def gauge(self, _name, timing=False):
        return _NULL_INSTRUMENT

    def histogram(self, _name, timing=False, alpha=DEFAULT_ALPHA):
        return _NULL_INSTRUMENT

    def timer(self, _name):
        return _NULL_INSTRUMENT

    def to_dict(self, include_timings=True):
        return {"clock": 0, "window": DEFAULT_WINDOW, "counters": {},
                "gauges": {}, "histograms": {}}

    def merge(self, payload):
        pass

    def export_json(self, path):
        raise RuntimeError("cannot export disabled metrics; enable "
                           "observability first")


NULL_METRICS = NullMetrics()

__all__ = [
    "Counter",
    "DEFAULT_ALPHA",
    "DEFAULT_WINDOW",
    "Gauge",
    "Histogram",
    "Metrics",
    "NULL_METRICS",
    "NullMetrics",
]
