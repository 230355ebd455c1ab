"""Observability threaded through the machine → executor → tool stack.

The load-bearing property is *jobs-invariance*: a diagnosis traced with
a worker pool produces the same span-tree shape and the same metric
counters as the sequential run, because run spans are created (or
absorbed) at consumption time in plan order.
"""

import json

import pytest

from repro.bugs.registry import get_bug
from repro.compiler.frontend import build_program
from repro.core.lbra import LbraTool
from repro.machine.cpu import Machine, MachineConfig
from repro.obs import NULL_OBS, Observability, get_obs, use
from repro.obs.report import render_report, tree_shape
from repro.obs.sampling import SampledProfiler
from repro.runtime.executor import CampaignExecutor


def test_default_obs_is_the_shared_null_bundle():
    assert get_obs() is NULL_OBS
    assert not NULL_OBS.enabled
    with NULL_OBS.span("free"):                  # no-op, no allocation
        pass
    assert NULL_OBS.tracer.to_records() == []


def test_use_installs_and_restores():
    obs = Observability()
    with use(obs) as installed:
        assert installed is obs
        assert get_obs() is obs
        with use(Observability()) as inner:
            assert get_obs() is inner
        assert get_obs() is obs
    assert get_obs() is NULL_OBS


def test_machine_harvest_records_hardware_counts():
    bug = get_bug("sort")
    plan = bug.failing_run_plan(0)
    program = build_program(bug)
    with use(Observability()) as obs:
        machine = Machine(program,
                          config=MachineConfig(num_cores=bug.num_cores),
                          scheduler=plan.make_scheduler())
        machine.load(args=plan.args)
        for name, value in plan.globals_setup.items():
            machine.set_global(name, value)
        machine.run(max_steps=plan.max_steps)
    counters = obs.metrics.to_dict()["counters"]
    assert counters["machine.runs"] == 1
    assert counters["machine.instructions_retired"] > 0
    assert counters["cache.bus_transactions"] > 0
    histograms = obs.metrics.to_dict()["histograms"]
    assert histograms["machine.run_retired"]["count"] == 1


def test_profile_hook_drives_sampled_profiler():
    bug = get_bug("sort")
    plan = bug.failing_run_plan(0)
    program = build_program(bug)
    machine = Machine(program,
                      config=MachineConfig(num_cores=bug.num_cores),
                      scheduler=plan.make_scheduler())
    profiler = SampledProfiler(period=50)
    profiler.install(machine)
    machine.load(args=plan.args)
    for name, value in plan.globals_setup.items():
        machine.set_global(name, value)
    status = machine.run(max_steps=plan.max_steps)
    assert profiler.sample_count == status.retired // 50
    hot = profiler.hot_lines(program, n=3)
    assert hot and hot[0][2] >= 1                  # hits on some line
    assert "sampled profile" in profiler.describe(program)


def _diagnosis_obs(executor):
    bug = get_bug("sort")
    with use(Observability()) as obs:
        tool = LbraTool(bug, executor=executor)
        tool.run_diagnosis(n_failures=3, n_successes=3)
    return obs


def _venue_free(counters):
    """Counters minus the execution-venue ones (dispatch routing and
    speculation are where-the-run-ran facts; they legitimately differ)."""
    return {name: value for name, value in counters.items()
            if not name.startswith("executor.")}


def test_trace_and_metrics_are_jobs_invariant():
    sequential = _diagnosis_obs(None)
    executor = CampaignExecutor(jobs=2, cache=False)
    try:
        pooled = _diagnosis_obs(executor)
    finally:
        executor.shutdown()

    shape_seq = tree_shape(sequential.tracer.to_records())
    shape_pool = tree_shape(pooled.tracer.to_records())
    assert shape_seq == shape_pool

    counters_seq = sequential.metrics.to_dict()["counters"]
    counters_pool = pooled.metrics.to_dict()["counters"]
    assert _venue_free(counters_seq) == _venue_free(counters_pool)
    # The same runs executed, just on pool workers.
    assert counters_pool["executor.dispatch_pool"] == \
        counters_pool["machine.runs"]
    assert counters_pool["machine.runs"] == counters_seq["machine.runs"]


def test_merge_payload_round_trips_both_buffers():
    worker = Observability()
    with worker.span("interp.run"):
        worker.counter("machine.runs").inc()
    payload = worker.to_payload()
    payload = json.loads(json.dumps(payload))      # picklable/jsonable
    parent = Observability()
    with parent.span("campaign"):
        parent.merge_payload(payload)
    assert parent.metrics.to_dict()["counters"]["machine.runs"] == 1
    paths = sorted(r["path"] for r in parent.tracer.to_records())
    assert paths == ["campaign", "campaign/interp.run"]


def test_report_renders_and_shapes_compare(tmp_path):
    obs = _diagnosis_obs(None)
    records = obs.tracer.to_records()
    text = render_report(records)
    assert "diagnose.lbra" in text
    assert "interp.run" in text
    top = render_report(records, top=1)
    assert len(top.splitlines()) == 4              # header + rule + 1 row

    trace = tmp_path / "trace.jsonl"
    metrics = tmp_path / "metrics.json"
    obs.export(trace_path=str(trace), metrics_path=str(metrics))
    from repro.obs.report import render_report_file
    assert "diagnose.lbra" in render_report_file(str(trace))
    assert json.loads(metrics.read_text())["counters"]


def test_render_report_empty_trace():
    assert "empty" in render_report([])


def test_disabled_path_records_nothing_during_diagnosis():
    bug = get_bug("sort")
    assert get_obs() is NULL_OBS
    LbraTool(bug).run_diagnosis(n_failures=2, n_successes=2)
    assert get_obs() is NULL_OBS
    assert NULL_OBS.tracer.to_records() == []
    assert NULL_OBS.metrics.to_dict()["counters"] == {}
