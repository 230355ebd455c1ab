"""Compare two benchmark result files, such as parent and change.

Each file holds one JSON object per line, as ``run.py --out FILE``
appends them.  Run from the repository root::

    python3 perfbench/delta.py parent.jsonl change.jsonl

For every workload and metric the report prints each side's median and
quartiles (``statistics.quantiles(values, n=4)``), the metric's bound
from ``BENCHMARK.json`` (end-to-end metrics only) and a verdict:

* ``better``: every run of the change beats every run of the parent;
* ``unresolved``: otherwise, when either side's quartile spread, as a
  share of its median, exceeds the bound, so a difference could be noise;
* ``worse``: the change's median is worse by more than the bound;
* ``better``: the change's median is better by more than the parent's
  own quartile spread;
* ``unchanged``: none of the above.

Per-layer metrics have no bound: they are marked ``same`` or
``changed``.
"""

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_results(path):
    """``{(workload, trace): [result, ...]}`` from a result file."""
    results = {}
    with open(path) as handle:
        for line in handle:
            if line.strip():
                record = json.loads(line)
                key = (record["workload"], record["trace"])
                results.setdefault(key, []).append(record)
    return results


def summary(values):
    """``(median, q1, q3)`` of *values*."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def spread(values):
    """Quartile distance as a share of the median (inf if undefined)."""
    median, q1, q3 = summary(values)
    if median == 0:
        return 0.0 if q1 == q3 else float("inf")
    return (q3 - q1) / abs(median)


def verdict(parent, change, better, bound):
    """Verdict for one end-to-end metric; see the module docstring."""
    sign = 1 if better == "lower" else -1
    if all(sign * (c - p) < 0 for p in parent for c in change):
        return "better"
    if max(spread(parent), spread(change)) > bound:
        return "unresolved"
    base = summary(parent)[0]
    # > 0: the change's median is worse, as a share of the parent's
    moved = sign * (summary(change)[0] - base) / abs(base) if base else 0.0
    if moved > bound:
        return "worse"
    if -moved > spread(parent):
        return "better"
    return "unchanged"


def report(parent, change, spec):
    """Rows of ``(workload, metric, parent, change, bound, verdict)``."""
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    rows = []
    for key in sorted(set(parent) & set(change)):
        names = sorted({name for record in parent[key] + change[key]
                        for name in record["metrics"]})
        for name in names:
            a = [r["metrics"][name]["value"] for r in parent[key]
                 if name in r["metrics"]]
            b = [r["metrics"][name]["value"] for r in change[key]
                 if name in r["metrics"]]
            if not a or not b:
                continue
            if name in e2e:
                bound = e2e[name]["bound"]
                outcome = verdict(a, b, e2e[name]["better"], bound)
            else:
                bound = None
                outcome = "same" if sorted(a) == sorted(b) else "changed"
            rows.append((key[0], name, summary(a), summary(b), bound,
                         outcome))
    return rows


def _fmt(triple):
    return "%.6g [%.6g, %.6g]" % triple


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--benchmark",
                        default=os.path.join(ROOT, "BENCHMARK.json"))
    args = parser.parse_args(argv)
    with open(args.benchmark) as handle:
        spec = json.load(handle)
    rows = report(load_results(args.parent), load_results(args.change),
                  spec)
    print("%-12s %-28s %-34s %-34s %-6s %s" % (
        "workload", "metric", "parent median [q1, q3]",
        "change median [q1, q3]", "bound", "verdict"))
    for workload, name, a, b, bound, outcome in rows:
        print("%-12s %-28s %-34s %-34s %-6s %s" % (
            workload, name, _fmt(a), _fmt(b),
            "-" if bound is None else "%g" % bound, outcome))
    return 0


if __name__ == "__main__":
    sys.exit(main())
