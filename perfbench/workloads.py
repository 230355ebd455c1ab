"""The benchmark's three workloads, driven through the public Python API.

Each workload is a closed loop with one caller: :meth:`Workload.call`
makes one driver invocation and returns once its result is complete;
the runner issues the next call only then.  The seed only reorders or
selects inputs; the simulated machine receives nothing else from it.

* ``table7`` — Table 7 over the 11 concurrency bugs, no executor and no
  run cache: the fixed per-run cost (compile, machine construction, VM
  execution with LCR/MESI, no software observers).
* ``baselines`` — Table 6 on six C-language sequential bugs at a reduced
  CBI campaign, plus the Section 7.3 comparison on four concurrency
  bugs at a reduced PBI/CCI campaign: the observer-driven runs the
  threaded backend hands to the reference loop.
* ``triage-pool`` — a fleet report stream plus triage on a two-worker
  campaign executor with an on-disk run cache and a run ledger: the
  executor, cache, ledger and fleet layers.

Every operation is checked against ``golden.json`` (see
``record_golden.py``): one operation is one table row (per bug) or one
triage cluster (per diagnosis campaign).
"""

import hashlib
import json
import os
import random
import re
import shutil
import tempfile

from repro.bugs.registry import get_bug
from repro.experiments import concurrency_baselines, table6, table7
from repro.experiments.report import ExperimentResult
from repro.fleet.stream import FleetStream
from repro.fleet.triage import triage_reports
from repro.obs.ledger import Ledger, use
from repro.runtime.executor import CampaignExecutor

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "golden.json")


def load_golden(path=GOLDEN_PATH):
    with open(path) as handle:
        return json.load(handle)


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def canonical_row(row):
    """A row as JSON would store it (tuples become lists)."""
    return json.loads(json.dumps(list(row)))


def render_canonical(result, order):
    """*result* rendered with its rows in *order* (by first column)."""
    rank = {key: index for index, key in enumerate(order)}
    rows = sorted(result.rows, key=lambda row: rank[row[0]])
    return ExperimentResult(name=result.name, headers=result.headers,
                            rows=rows, title=result.title,
                            notes=result.notes).format()


def _rss_mb(pid):
    """Peak resident set (VmHWM) of process *pid* in MiB, or 0."""
    try:
        with open("/proc/%d/status" % pid) as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


class Outcome:
    """What one driver call produced, as the checks and metrics need it."""

    def __init__(self):
        #: operation key -> canonical row
        self.rows = {}
        #: sha256 of the rendered table(s), rows in canonical order
        self.table_digest = None
        self.top1 = 0
        self.top1_of = 0
        #: campaign runs delivered to consumers (None: use the golden)
        self.runs = None
        self.worker_rss_mb = 0.0
        #: executor statistics (None: the workload runs without one)
        self.executor = None


class Check:
    """Result of comparing one :class:`Outcome` with the golden values."""

    def __init__(self, attempted, failed, problems):
        self.attempted = attempted
        self.failed = failed
        self.problems = problems


class Workload:
    """One benchmark workload: set-up, one driver call, golden check."""

    name = None
    #: whether the call covers the whole configuration, so the golden
    #: digest of the whole rendered table applies
    full = True

    def __init__(self, seed, scratch):
        self.seed = seed
        self.scratch = scratch

    def prepare(self):
        """Per-call inputs, built outside the timed region."""
        raise NotImplementedError

    def call(self, context):
        """The timed driver invocation; returns an :class:`Outcome`."""
        raise NotImplementedError

    def release(self, context):
        """Undo :meth:`prepare` (outside the timed region)."""

    def expected_ops(self):
        """Operations a call attempts (counted failed if it raises)."""
        keys = self.keys()
        return len(keys) if keys is not None else 1

    def golden(self, golden):
        return golden[self.name]

    def check(self, outcome, golden, counts=None):
        """Compare *outcome* with the golden rows and table digest.

        *counts*, from a traced call, are compared with the golden
        simulated-statistics guards too.  Each mismatching row is one
        failed operation; a mismatch elsewhere fails at least one.
        """
        expected = self.golden(golden)
        problems = []
        failed = 0
        for key, row in outcome.rows.items():
            want = self.expected_row(expected, key, row)
            if want != row:
                failed += 1
                problems.append("row %s: got %r, golden %r"
                                % (key, row, want))
        missing = set(self.keys()) - set(outcome.rows) \
            if self.keys() is not None else ()
        for key in sorted(missing):
            failed += 1
            problems.append("row %s missing" % key)
        others = []
        table = self.expected_table(expected)
        if table is not None and table != outcome.table_digest:
            others.append("table digest %s, golden %s"
                          % (outcome.table_digest, table))
        if counts is not None:
            want = self.expected_guards(expected)
            got = {key: counts.get(key, 0) for key in want}
            if got != want:
                others.append("guards %r, golden %r" % (got, want))
        if others:
            problems.extend(others)
            failed = max(failed, 1)
        attempted = len(outcome.rows) + len(missing)
        return Check(max(attempted, 1), min(failed, max(attempted, 1)),
                     problems)

    def keys(self):
        """Operation keys a call must produce (``None``: input-defined)."""
        return None

    def expected_row(self, expected, key, _row):
        entry = expected["rows"].get(key)
        return entry["row"] if entry is not None else None

    def expected_table(self, expected):
        return expected["table"] if self.full else None

    def expected_runs(self, golden):
        """Campaign runs per call, from the golden per-row counts.

        Used when the call itself cannot tell (no executor counts them).
        """
        rows = self.golden(golden)["rows"]
        return sum(rows[key]["runs"] for key in self.keys())

    def expected_guards(self, expected):
        totals = {}
        for key in self.keys():
            for name, value in expected["rows"][key]["guards"].items():
                totals[name] = totals.get(name, 0) + value
        return totals


# ----------------------------------------------------------------------
# table7
# ----------------------------------------------------------------------

#: Table 7's bugs, in the registry's (display) order
TABLE7_BUGS = ("apache4", "apache5", "cherokee", "fft", "lu", "mozilla-js1",
               "mozilla-js2", "mozilla-js3", "mysql1", "mysql2", "pbzip3")


def _ordered(names, seed):
    names = list(names)
    random.Random(seed).shuffle(names)
    return names


class Table7(Workload):
    name = "table7"

    def __init__(self, seed, scratch, bugs=TABLE7_BUGS):
        super().__init__(seed, scratch)
        self.bugs = _ordered(bugs, seed)
        self.full = len(self.bugs) == len(TABLE7_BUGS)
        self.display = [get_bug(name).paper_name for name in TABLE7_BUGS]
        self._keys = [get_bug(name).paper_name for name in self.bugs]

    def keys(self):
        return self._keys

    def prepare(self):
        # Fresh workload objects per call, as a driver invocation makes.
        return [get_bug(name) for name in self.bugs]

    def call(self, bugs):
        result = table7.run(bugs=bugs)
        outcome = Outcome()
        outcome.rows = {row[0]: canonical_row(row) for row in result.rows}
        outcome.table_digest = digest(render_canonical(result, self.display))
        outcome.top1 = sum(1 for raw in result.raw if raw["lcra"] == 1)
        outcome.top1_of = len(result.raw)
        return outcome


# ----------------------------------------------------------------------
# baselines
# ----------------------------------------------------------------------

#: C-language sequential bugs of Table 6 (``paste`` alone would take
#: several times the rest: its CBI campaign runs thousands of steps)
BASELINE_SEQUENTIAL = ("apache3", "lighttpd", "rm", "sort", "squid1", "tar1")
#: concurrency bugs of Section 7.3 (MySQL1's predicting event lies in a
#: thread that does not fail: PBI sees it, LCRA does not)
BASELINE_CONCURRENCY = ("apache4", "fft", "mozilla-js1", "mysql1")
#: CBI failing/passing runs per bug (the paper uses 1000)
CBI_RUNS = 30
#: PBI/CCI failing/passing runs per bug (the driver default is 300)
PBI_CCI_RUNS = 30

_RANK1 = re.compile(r"^X 1( |$)")


class Baselines(Workload):
    name = "baselines"

    def __init__(self, seed, scratch, sequential=BASELINE_SEQUENTIAL,
                 concurrency=BASELINE_CONCURRENCY):
        super().__init__(seed, scratch)
        self.sequential = _ordered(sequential, seed)
        self.concurrency = _ordered(concurrency, seed)
        self.full = (len(self.sequential), len(self.concurrency)) == \
            (len(BASELINE_SEQUENTIAL), len(BASELINE_CONCURRENCY))
        self.display = {
            "table6": [get_bug(n).paper_name for n in BASELINE_SEQUENTIAL],
            "concurrency_baselines":
                [get_bug(n).paper_name for n in BASELINE_CONCURRENCY],
        }
        self._keys = (
            ["table6:" + get_bug(n).paper_name for n in self.sequential]
            + ["concurrency_baselines:" + get_bug(n).paper_name
               for n in self.concurrency])

    def keys(self):
        return self._keys

    def prepare(self):
        return ([get_bug(name) for name in self.sequential],
                [get_bug(name) for name in self.concurrency])

    def call(self, context):
        sequential, concurrency = context
        results = (
            table6.run(cbi_runs=CBI_RUNS, bugs=sequential),
            concurrency_baselines.run(n_runs=PBI_CCI_RUNS, bugs=concurrency),
        )
        outcome = Outcome()
        rendered = []
        for result in results:
            for row in result.rows:
                outcome.rows["%s:%s" % (result.name, row[0])] = \
                    canonical_row(row)
            rendered.append(render_canonical(result,
                                             self.display[result.name]))
        outcome.table_digest = digest("\n\n".join(rendered))
        # One diagnosis per (bug, ranking tool): LBRA and CBI per
        # sequential bug, LCRA, PBI and CCI per concurrency bug.
        t6, cb = results
        cells = [raw[tool] for raw in t6.raw for tool in ("lbra", "cbi")]
        outcome.top1 = sum(1 for cell in cells if _RANK1.match(cell))
        ranks = [raw[tool] for raw in cb.raw for tool in ("lcra", "pbi",
                                                         "cci")]
        outcome.top1 += sum(1 for rank in ranks if rank == 1)
        outcome.top1_of = len(cells) + len(ranks)
        return outcome


# ----------------------------------------------------------------------
# triage-pool
# ----------------------------------------------------------------------

#: failure reports per call
TRIAGE_REPORTS = 100
#: worker processes of the campaign executor
TRIAGE_JOBS = 2
#: per-cluster campaign size (the triage default)
TRIAGE_RUNS = 10


class TriagePool(Workload):
    """Fleet stream + triage; the fleet seed is the benchmark seed.

    Every call gets a fresh executor, run cache and ledger, so every call
    does the same work: fresh pool runs, cache writes, and cache reads
    as campaigns of one application reuse each other's runs.
    """

    name = "triage-pool"

    def __init__(self, seed, scratch, reports=TRIAGE_REPORTS):
        super().__init__(seed, scratch)
        self.reports = reports
        self.full = reports == TRIAGE_REPORTS

    def prepare(self):
        directory = tempfile.mkdtemp(prefix="triage-", dir=self.scratch)
        executor = CampaignExecutor(
            jobs=TRIAGE_JOBS, cache=True,
            cache_dir=os.path.join(directory, "cache"),
        )
        return directory, executor, Ledger(os.path.join(directory, "ledger"))

    def release(self, context):
        directory, executor, _ledger = context
        executor.shutdown()
        shutil.rmtree(directory, ignore_errors=True)

    def call(self, context):
        _directory, executor, ledger = context
        try:
            with use(ledger):
                stream = FleetStream(seed=self.seed, executor=executor)
                result = triage_reports(stream.generate(self.reports),
                                        runs=TRIAGE_RUNS,
                                        executor=executor, seed=self.seed)
            worker_rss = max([_rss_mb(pid)
                              for pid in executor.stats.worker_pids] or [0.0])
        finally:
            executor.shutdown()
        table = result.table()
        outcome = Outcome()
        outcome.rows = {row[0]: canonical_row(row) for row in table.rows}
        outcome.table_digest = digest(table.format())
        outcome.top1 = len(result.rank1())
        outcome.top1_of = result.n_clusters
        stats = executor.stats
        outcome.runs = stats.attempts
        outcome.worker_rss_mb = worker_rss
        outcome.executor = {
            "pool_runs": stats.pool_runs,
            "busy_s": stats.busy_seconds,
            "cache_hits": stats.cache_hits,
            "cache_misses": stats.cache_misses,
        }
        return outcome

    def expected_row(self, expected, key, row):
        # A cluster's diagnosis depends only on its application (every
        # campaign uses seed 0), so any fleet seed can be checked; the
        # signature digest and report count come from the stream.
        app_row = expected["apps"].get(row[1])
        if app_row is None:
            return None
        return [key, row[1], app_row[0], row[3]] + app_row[1:]

    def expected_table(self, expected):
        # Recorded for the development seeds and the held-out seed only.
        return expected["tables"].get(str(self.seed)) if self.full else None

    def expected_guards(self, expected):
        # Pool workers run every campaign; these count in-process runs.
        return expected["guards"]


WORKLOADS = {cls.name: cls for cls in (Table7, Baselines, TriagePool)}
