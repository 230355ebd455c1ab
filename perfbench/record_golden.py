"""Record ``golden.json``: the outputs and counts every run is checked against.

Run from the repository root, only after a change that is meant to alter
results (a perf-only change must leave this file as it is)::

    python3 perfbench/record_golden.py

* ``table7`` / ``baselines``: each bug is run alone under the tracer, so
  every row carries its own campaign-run count and simulated-statistics
  guards; one full call records the digest of the whole rendered table.
* ``triage-pool``: a cluster's diagnosis depends only on its application,
  so per-application rows are gathered over the development fleet seeds;
  full-table digests are recorded for those seeds and for one held-out
  seed whose rows the application table must predict.
"""

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

from perfbench import layers, workloads  # noqa: E402
from perfbench.run import scratch_dir  # noqa: E402

#: fleet seeds whose triage rows define the per-application golden rows
TRIAGE_SEEDS = range(21)
#: fleet seed whose table is recorded but never used to build the rows
HELD_OUT_SEED = 4242


def _traced(workload):
    context = workload.prepare()
    tracer = layers.Tracer()
    try:
        with tracer:
            outcome = workload.call(context)
    finally:
        workload.release(context)
    return outcome, tracer


def _row_entries(workloads_by_bug):
    rows = {}
    for workload in workloads_by_bug:
        outcome, tracer = _traced(workload)
        (key, row), = outcome.rows.items()
        rows[key] = {
            "row": row,
            "runs": tracer.counts["machine.runs"],
            "guards": {name: tracer.counts[name] for name in layers.GUARDS},
        }
    return rows


def _full_digest(workload):
    context = workload.prepare()
    try:
        return workload.call(context).table_digest
    finally:
        workload.release(context)


def record(scratch):
    golden = {}
    golden["table7"] = {
        "rows": _row_entries(workloads.Table7(0, scratch, bugs=(name,))
                             for name in workloads.TABLE7_BUGS),
        "table": _full_digest(workloads.Table7(0, scratch)),
    }
    golden["baselines"] = {
        "rows": _row_entries(
            [workloads.Baselines(0, scratch, sequential=(name,),
                                 concurrency=())
             for name in workloads.BASELINE_SEQUENTIAL]
            + [workloads.Baselines(0, scratch, sequential=(),
                                   concurrency=(name,))
               for name in workloads.BASELINE_CONCURRENCY]),
        "table": _full_digest(workloads.Baselines(0, scratch)),
    }
    apps, tables = {}, {}
    guards = None
    for seed in list(TRIAGE_SEEDS) + [HELD_OUT_SEED]:
        outcome, tracer = _traced(workloads.TriagePool(seed, scratch))
        tables[str(seed)] = outcome.table_digest
        counts = {name: tracer.counts[name] for name in layers.GUARDS}
        if guards not in (None, counts):
            raise SystemExit("in-process counts differ across seeds")
        guards = counts
        if seed == HELD_OUT_SEED:
            continue
        for row in outcome.rows.values():
            app_row = [row[2]] + row[4:]
            if apps.setdefault(row[1], app_row) != app_row:
                raise SystemExit("application %s diagnosed two ways"
                                 % row[1])
    golden["triage-pool"] = {"apps": dict(sorted(apps.items())),
                             "tables": tables, "guards": guards,
                             "held_out_seed": HELD_OUT_SEED}
    return golden


def main():
    with scratch_dir() as scratch:
        golden = record(scratch)
    with open(workloads.GOLDEN_PATH, "w") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print("wrote %s" % workloads.GOLDEN_PATH)


if __name__ == "__main__":
    main()
