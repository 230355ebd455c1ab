"""Benchmark entry point: one measured run of one workload.

Run from the repository root::

    python3 perfbench/run.py --workload table7 --seed 1 --seconds 20 --trace 0

The run issues driver calls back to back (a closed loop, one caller)
until ``--seconds`` have passed, checks every call against
``perfbench/golden.json``, and prints one JSON object as the last line
of standard output::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``, all
measured with no tracing wrapper installed.  ``--trace 1`` alternates
untraced and traced calls and reports the per-layer metrics, averaged
per traced call; ``trace.overhead_s`` is the difference of the two
medians.  Set-up time is sampled in fresh processes (``--setup-only``),
each timed from process spawn until it is ready to make its first
driver call; the median is reported.

``--out FILE`` also appends the result, tagged with workload, seed and
trace flag, to *FILE* (one JSON object per line) for ``delta.py``.
"""

import argparse
import contextlib
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path[:0] = [ROOT, SRC]

from perfbench import layers  # noqa: E402  (imports nothing from repro)

BENCHMARK_PATH = os.path.join(ROOT, "BENCHMARK.json")
#: set-up samples taken in fresh processes per run
SETUP_SAMPLES = 5
#: workload names (``workloads.WORKLOADS``, which needs ``repro`` to import)
WORKLOAD_NAMES = ("table7", "baselines", "triage-pool")

clock = time.perf_counter


@contextlib.contextmanager
def scratch_dir():
    """A private directory inside the checkout, removed afterwards."""
    parent = os.path.join(ROOT, ".perfbench-tmp")
    os.makedirs(parent, exist_ok=True)
    directory = tempfile.mkdtemp(dir=parent)
    try:
        yield directory
    finally:
        shutil.rmtree(directory, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(parent)


def _metric_specs():
    with open(BENCHMARK_PATH) as handle:
        spec = json.load(handle)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def _setup(args, scratch):
    """Everything before the first driver call; returns (workload, golden)."""
    from perfbench import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, scratch)
    golden = workloads.load_golden()
    layers.assert_clean()
    return workload, golden


def _setup_sample(args):
    """Seconds from spawning a fresh benchmark process until it is ready."""
    command = [sys.executable, os.path.abspath(__file__),
               "--workload", args.workload, "--seed", str(args.seed),
               "--setup-only"]
    started = clock()
    process = subprocess.Popen(command, cwd=ROOT, stdin=subprocess.DEVNULL,
                               stdout=subprocess.PIPE)
    try:
        line = process.stdout.readline()
        elapsed = clock() - started
        process.stdout.read()
        code = process.wait(timeout=120)
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()
        process.stdout.close()
    if line.strip() != b"ready" or code != 0:
        raise RuntimeError("set-up process failed (exit %s)" % code)
    return elapsed


class Call:
    """One timed driver call and its check."""

    def __init__(self, traced, wall, outcome, check, runs):
        self.traced = traced
        self.wall = wall
        self.outcome = outcome
        self.check = check
        self.runs = runs


def _one_call(workload, golden, tracer):
    from perfbench import workloads

    context = workload.prepare()
    # Start every call from a collected heap, as a fresh process would.
    gc.collect()
    before = dict(tracer.counts) if tracer is not None else None
    outcome = None
    error = None
    try:
        if tracer is not None:
            tracer.install()
        else:
            layers.assert_clean()
        started = clock()
        try:
            outcome = workload.call(context)
        except Exception:
            error = traceback.format_exc()
        wall = clock() - started
    finally:
        if tracer is not None:
            tracer.uninstall()
        workload.release(context)
    counts = None
    if tracer is not None:
        counts = {key: value - before.get(key, 0)
                  for key, value in tracer.counts.items()}
    if outcome is None:
        ops = workload.expected_ops()
        check = workloads.Check(ops, ops, [error])
        runs = 0
    else:
        check = workload.check(outcome, golden, counts)
        runs = outcome.runs if outcome.runs is not None \
            else workload.expected_runs(golden)
    print("perfbench: %s call%s %.4f s, %d/%d operations failed"
          % (workload.name, " (traced)" if tracer is not None else "",
             wall, check.failed, check.attempted), file=sys.stderr)
    for problem in check.problems:
        print("perfbench: %s: %s" % (workload.name, problem),
              file=sys.stderr)
    return Call(tracer is not None, wall, outcome, check, runs)


def _end_to_end(calls, setup_samples):
    plain = [call for call in calls if not call.traced and call.outcome]
    if not plain:
        return {}
    parent_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    top1_of = sum(call.outcome.top1_of for call in plain)
    return {
        "wall_s": statistics.median(call.wall for call in plain),
        "runs_per_s": statistics.median(call.runs / call.wall
                                        for call in plain),
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": parent_mb + max(call.outcome.worker_rss_mb
                                       for call in plain),
        "top1_share": sum(call.outcome.top1 for call in plain) / top1_of
        if top1_of else 0.0,
    }


def _per_layer(calls, tracer):
    traced = [call for call in calls if call.traced and call.outcome]
    plain = [call for call in calls if not call.traced and call.outcome]
    if not traced or not plain:
        return {}
    n = len(traced)
    s = tracer.self_s
    c = tracer.counts

    def per_call(value):
        return value / n

    def share(part, whole):
        return part / whole if whole else 0.0

    executor = [call.outcome.executor for call in traced
                if call.outcome.executor is not None]
    hits = sum(e["cache_hits"] for e in executor)
    looked_up = hits + sum(e["cache_misses"] for e in executor)
    traced_wall = sum(call.wall for call in traced)
    metrics = {
        "machine.construct.s": per_call(s["machine.construct"]),
        "machine.construct.calls": per_call(c["machine.construct.calls"]),
        "machine.run.s": per_call(s["machine.run"]),
        "machine.runs": per_call(c["machine.runs"]),
        "machine.retired": per_call(c["machine.retired"]),
        "machine.run.instr_per_s": share(c["machine.retired"],
                                         s["machine.run"]),
        "machine.fallback_runs": per_call(c["machine.fallback_runs"]),
        "machine.fallback.s": per_call(s["machine.fallback"]),
        "compiler.compile.s": per_call(s["compiler.compile"]),
        "compiler.compile.calls": per_call(c["compiler.compile.calls"]),
        "compiler.distinct_programs": per_call(tracer.distinct_programs),
        "compiler.redundant_share": 1.0 - share(
            tracer.distinct_programs, c["compiler.compile.calls"])
        if c["compiler.compile.calls"] else 0.0,
        "lang.parse.s": per_call(s["lang.parse"]),
        "lang.parse.calls": per_call(c["lang.parse.calls"]),
        "lang.transform.s": per_call(s["lang.transform"]),
        "lang.transform.calls": per_call(c["lang.transform.calls"]),
        "core.profiles.s": per_call(s["core.profiles"]),
        "core.profiles.useful_share": share(c["core.profiles.useful"],
                                            c["core.profiles.calls"]),
        "core.statistics.s": per_call(s["core.statistics"]),
        "baselines.scoring.s": per_call(s["baselines.scoring"]),
        "runtime.executor.s": per_call(s["runtime.executor"]),
        "runtime.executor.pool_runs": per_call(
            sum(e["pool_runs"] for e in executor)),
        "runtime.executor.busy_s": per_call(
            sum(e["busy_s"] for e in executor)),
        "runtime.cache.get.s": per_call(s["runtime.cache.get"]),
        "runtime.cache.put.s": per_call(s["runtime.cache.put"]),
        "runtime.cache.hit_share": share(hits, looked_up),
        "obs.ledger.append.s": per_call(s["obs.ledger.append"]),
        "obs.ledger.appends": per_call(c["obs.ledger.appends"]),
        "fleet.stream.s": per_call(s["fleet.stream"]),
        "fleet.signature.s": per_call(s["fleet.signature"]),
        "fleet.aggregate.s": per_call(s["fleet.aggregate"]),
        "experiments.self_s": per_call(traced_wall
                                       - tracer.covered_seconds()),
        "trace.wall_s": per_call(traced_wall),
        "trace.bookkeeping_s": per_call(tracer.bookkeeping_s),
        "trace.overhead_s":
            statistics.median(call.wall for call in traced)
            - statistics.median(call.wall for call in plain),
    }
    for name in layers.GUARDS:
        metrics[name] = per_call(c[name])
    attempted = sum(call.check.attempted for call in calls)
    metrics["error_share"] = share(
        sum(call.check.failed for call in calls), attempted)
    return metrics


def run(args):
    end_to_end_units, per_layer_units = _metric_specs()
    with scratch_dir() as scratch:
        workload, golden = _setup(args, scratch)
        tracer = layers.Tracer() if args.trace else None
        calls = []
        deadline = clock() + args.seconds
        while True:
            traced = tracer is not None and len(calls) % 2 == 1
            calls.append(_one_call(workload, golden,
                                   tracer if traced else None))
            if clock() >= deadline and (tracer is None or len(calls) >= 2):
                break
        samples = [_setup_sample(args) for _ in range(SETUP_SAMPLES)] \
            if not args.trace else []
    if args.trace:
        values, units = _per_layer(calls, tracer), per_layer_units
    else:
        values, units = _end_to_end(calls, samples), end_to_end_units
    attempted = sum(call.check.attempted for call in calls)
    failed = sum(call.check.failed for call in calls)
    correct = failed == 0 and set(values) == set(units)
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units if name in values},
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the tagged result here")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None):
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print("perfbench: no repro sources under %s" % SRC, file=sys.stderr)
        return 2
    args = parse_args(argv)
    if args.setup_only:
        with scratch_dir() as scratch:
            workload, _golden = _setup(args, scratch)
            context = workload.prepare()
            print("ready", flush=True)
            workload.release(context)
        return 0
    result = run(args)
    if args.out:
        with open(args.out, "a") as handle:
            handle.write(json.dumps(dict(result, workload=args.workload,
                                         seed=args.seed,
                                         trace=args.trace)) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
