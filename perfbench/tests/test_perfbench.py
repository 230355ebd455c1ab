"""Self-tests of the benchmark.  Run from the repository root::

    python3 -m pytest -q perfbench/tests
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

from perfbench import delta, layers, run, workloads  # noqa: E402


@pytest.fixture(scope="module")
def golden():
    return workloads.load_golden()


@pytest.fixture
def scratch(tmp_path):
    return str(tmp_path)


def _bindings():
    """Every attribute of every loaded repro module and class, by identity."""
    found = {}
    for module in layers._repro_modules():
        for name, value in list(vars(module).items()):
            found[(module.__name__, name)] = value
            if isinstance(value, type) and \
                    value.__module__ == module.__name__:
                for attr, member in list(vars(value).items()):
                    found[(module.__name__, name, attr)] = member
    return found


def _call(workload, tracer=None):
    context = workload.prepare()
    try:
        if tracer is None:
            return workload.call(context)
        with tracer:
            return workload.call(context)
    finally:
        workload.release(context)


def test_wrappers_restore_the_original_objects():
    layers.import_all()
    before = _bindings()
    tracer = layers.Tracer()
    tracer.install()
    try:
        during = _bindings()
        replaced = [key for key in before if during[key] is not before[key]]
        # every target is wrapped, including callers' own bindings
        assert ("repro.compiler.frontend", "compile_module") in replaced
        assert ("repro.core.lbra", "compile_module") in replaced
        assert ("repro.machine.cpu", "Machine", "run") in replaced
        assert layers.installed()
        with pytest.raises(RuntimeError):
            layers.assert_clean()
    finally:
        tracer.uninstall()
    after = _bindings()
    assert set(after) == set(before)
    assert all(after[key] is before[key] for key in before)
    layers.assert_clean()


def test_layer_self_times_fit_in_the_traced_wall(scratch, golden):
    workload = workloads.Table7(0, scratch, bugs=("apache4", "fft"))
    tracer = layers.Tracer()
    started = layers.clock()
    outcome = _call(workload, tracer)
    wall = layers.clock() - started
    assert workload.check(outcome, golden, dict(tracer.counts)).failed == 0
    assert tracer.self_s["machine.run"] > 0
    assert all(value >= 0 for value in tracer.self_s.values())
    assert tracer.covered_seconds() <= wall
    assert tracer.counts["machine.runs"] == workload.expected_runs(golden)
    assert tracer.counts["machine.fallback_runs"] == 0


def test_golden_check_rejects_an_altered_row(scratch, golden):
    workload = workloads.Table7(0, scratch, bugs=("apache4",))
    outcome = _call(workload)
    assert workload.check(outcome, golden).failed == 0
    (key, row), = outcome.rows.items()
    outcome.rows[key] = row[:-1] + ["(altered)"]
    check = workload.check(outcome, golden)
    assert (check.attempted, check.failed) == (1, 1)


def test_golden_check_rejects_altered_guards(scratch, golden):
    workload = workloads.Table7(0, scratch, bugs=("apache4",))
    outcome = _call(workload)
    counts = dict(workload.expected_guards(workload.golden(golden)))
    assert workload.check(outcome, golden, counts).failed == 0
    counts["cache.bus.snoops"] += 1
    assert workload.check(outcome, golden, counts).failed == 1


@pytest.mark.parametrize("make", [
    lambda scratch: workloads.Table7(5, scratch, bugs=("fft",)),
    lambda scratch: workloads.Baselines(5, scratch, sequential=("rm",),
                                        concurrency=("fft",)),
    lambda scratch: workloads.TriagePool(5, scratch, reports=5),
], ids=["table7", "baselines", "triage-pool"])
def test_tiny_configuration_completes(make, scratch, golden):
    workload = make(scratch)
    outcome = _call(workload)
    check = workload.check(outcome, golden)
    assert check.failed == 0, check.problems
    assert check.attempted >= 1
    assert outcome.top1_of >= 1
    assert os.listdir(scratch) == []


def test_baselines_fall_back_to_the_reference_loop(scratch, golden):
    workload = workloads.Baselines(0, scratch, sequential=("rm",),
                                   concurrency=())
    tracer = layers.Tracer()
    outcome = _call(workload, tracer)
    assert workload.check(outcome, golden, dict(tracer.counts)).failed == 0
    assert tracer.counts["machine.fallback_runs"] > 0
    assert tracer.self_s["machine.fallback"] > 0


def test_triage_held_out_seed_matches_its_recorded_table(scratch, golden):
    seed = golden["triage-pool"]["held_out_seed"]
    workload = workloads.TriagePool(seed, scratch)
    outcome = _call(workload)
    assert workload.expected_table(workload.golden(golden)) is not None
    check = workload.check(outcome, golden)
    assert check.failed == 0, check.problems


def test_workload_names_match_the_benchmark_file():
    with open(run.BENCHMARK_PATH) as handle:
        spec = json.load(handle)
    names = [w["name"] for w in spec["workloads"]]
    assert names == list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)
    per_layer = {m["name"] for m in spec["per_layer"]}
    assert set(layers.GUARDS) <= per_layer


def _run_cli(cwd, *args):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py")] + list(args),
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
def test_cli_prints_every_metric(trace):
    done = _run_cli(ROOT, "--workload", "table7", "--seed", "2",
                    "--seconds", "1", "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    end_to_end, per_layer = run._metric_specs()
    want = per_layer if trace == "1" else end_to_end
    assert set(result["metrics"]) == set(want)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == want[name]
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())
    assert not os.path.exists(os.path.join(ROOT, ".perfbench-tmp"))


def test_cli_fails_without_the_sources(tmp_path):
    shutil.copy(run.BENCHMARK_PATH, tmp_path / "BENCHMARK.json")
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run_cli(str(tmp_path), "--workload", "table7", "--seed", "1",
                    "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert "correct" not in done.stdout


def _record(workload, wall):
    return {"workload": workload, "trace": 0,
            "metrics": {"wall_s": {"value": wall, "unit": "s"}}}


def test_delta_marks_a_wide_spread_unresolved():
    assert delta.verdict([1.0, 1.5, 0.7, 1.2], [1.05, 1.1, 1.0, 1.6],
                         "lower", 0.1) == "unresolved"
    assert delta.verdict([1.0, 1.01, 0.99, 1.0], [1.0, 1.02, 0.99, 1.01],
                         "lower", 0.1) == "unchanged"
    assert delta.verdict([1.0, 1.01, 0.99, 1.0], [1.3, 1.31, 1.29, 1.3],
                         "lower", 0.1) == "worse"
    assert delta.verdict([1.0, 1.5, 0.7, 1.2], [0.5, 0.6, 0.55, 0.5],
                         "lower", 0.1) == "better"
    spec = {"end_to_end": [{"name": "wall_s", "better": "lower",
                            "bound": 0.1}]}
    parent = {("table7", 0): [_record("table7", v) for v in (1.0, 1.5, 0.7)]}
    change = {("table7", 0): [_record("table7", v) for v in (1.0, 1.1, 1.6)]}
    (row,) = delta.report(parent, change, spec)
    assert row[0] == "table7" and row[1] == "wall_s"
    assert row[-1] == "unresolved"
