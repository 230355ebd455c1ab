"""Backend equivalence: the threaded engine must be invisible.

The contract of :mod:`repro.machine.backends` is that backend choice
changes wall-clock time and nothing else.  These tests pin that over
the whole bug registry: every workload's failing and passing plans must
produce identical failures, identical hardware-ring contents, identical
counter readings, identical software-observer event streams (and the
baseline observations built from them), and identical diagnosis reports
under ``reference`` and ``threaded`` execution — plus a chaos spot check
showing fault injection does not tell the backends apart either.
"""

import gc
import weakref

import pytest

from repro.baselines.cbi import CbiTool
from repro.baselines.cbi_adaptive import CbiAdaptiveTool
from repro.baselines.cci import CciTool
from repro.bugs.registry import all_bugs, get_bug
from repro.compiler.frontend import compile_module
from repro.core.api import get_tool
from repro.hwpmu.bts import attach_bts
from repro.isa.asm import Assembler
from repro.isa.instructions import Opcode
from repro.machine.backends import (
    BACKEND_NAMES,
    DEFAULT_BACKEND,
    compiled_table,
    get_backend,
    get_default_backend,
    use_backend,
)
from repro.machine.cpu import Machine, MachineConfig
from repro.machine.tracer import ExecutionTracer
from repro.runtime.process import _apply_globals
from repro.runtime.workload import RunPlan


_BUGS = sorted(all_bugs(), key=lambda bug: bug.name)
_PROGRAMS = {}


def _program(bug):
    program = _PROGRAMS.get(bug.name)
    if program is None:
        program = _PROGRAMS[bug.name] = compile_module(bug.build_module())
    return program


def _fingerprint(program, plan, backend, num_cores, attach=None):
    """Everything observable about one run, as a comparable dict.

    *attach(machine)*, if given, installs observers after loading and
    returns ``observe(status)``, whose result joins the fingerprint.
    """
    config = MachineConfig(num_cores=num_cores, backend=backend)
    machine = Machine(program, config=config,
                      scheduler=plan.make_scheduler())
    machine.load(args=plan.args)
    _apply_globals(machine, plan.globals_setup)
    observe = attach(machine) if attach is not None else None
    status = machine.run(max_steps=plan.max_steps)
    fault = status.fault
    fingerprint = {
        "exit_code": status.exit_code,
        "fault": None if fault is None else (
            fault.kind, fault.pc, fault.thread_id, fault.address,
            str(fault)),
        "output": tuple(machine.output),
        "retired": status.retired,
        "branches": machine.branches_taken,
        "context_switches": machine.context_switches,
        "thread_retired": tuple(t.retired for t in machine.threads),
        "hwops": tuple(sorted(machine.hwop_counts.items())),
        "bus": (machine.bus.hit_count, machine.bus.transaction_count,
                machine.bus.snoop_count, machine.bus.invalidation_count),
    }
    for core in machine.cores:
        cid = core.core_id
        fingerprint["lbr%d" % cid] = (core.lbr.entries(),
                                      core.lbr.recorded_count)
        fingerprint["lcr%d" % cid] = (core.lcr.entries(),
                                      core.lcr.recorded_count)
        fingerprint["counters%d" % cid] = tuple(sorted(
            ((access.value, state.value), count)
            for (access, state), count in core.counters.counts.items()))
        fingerprint["evictions%d" % cid] = core.cache.eviction_count
    if observe is not None:
        fingerprint["observers"] = observe(status)
    return fingerprint


# ----------------------------------------------------------------------
# Registry and config plumbing
# ----------------------------------------------------------------------

def test_backend_registry():
    assert DEFAULT_BACKEND in BACKEND_NAMES
    for name in BACKEND_NAMES:
        assert type(get_backend(name)).__name__.lower() \
            .startswith(name[:6])
    assert get_backend(None) is get_backend(get_default_backend())
    with pytest.raises(ValueError):
        get_backend("jit")


def test_config_resolves_and_validates_backend():
    assert MachineConfig().backend == get_default_backend()
    assert MachineConfig(backend="reference").backend == "reference"
    with pytest.raises(ValueError):
        MachineConfig(backend="jit")
    with use_backend("reference"):
        assert MachineConfig().backend == "reference"
    assert MachineConfig().backend == DEFAULT_BACKEND


def test_backend_lands_in_config_repr():
    # repr(config) is the run-cache config fingerprint; the backend
    # must be part of it so cached runs are keyed per engine.
    assert "backend='reference'" in repr(MachineConfig(
        backend="reference"))


# ----------------------------------------------------------------------
# Whole-registry equivalence
# ----------------------------------------------------------------------

@pytest.mark.parametrize("bug", _BUGS, ids=lambda bug: bug.name)
def test_backends_equivalent(bug):
    """Failure sites, ring contents, and counters match per workload."""
    program = _program(bug)
    for kind in ("failing", "passing"):
        plan = getattr(bug, kind + "_run_plan")(0)
        reference = _fingerprint(program, plan, "reference",
                                 bug.num_cores)
        threaded = _fingerprint(program, plan, "threaded", bug.num_cores)
        assert reference == threaded, "%s %s plan diverged" % (bug.name,
                                                               kind)


# ----------------------------------------------------------------------
# Diagnosis reports
# ----------------------------------------------------------------------

def _report_dict(bug, tool_name, backend):
    with use_backend(backend):
        report = get_tool(tool_name)(bug).run_diagnosis(3, 3)
    data = report.to_dict()
    data.pop("timings")
    assert data["campaign"].pop("backend") == backend
    return data


@pytest.mark.parametrize("bug_name,tool_name",
                         [("paste", "lbra"), ("apache2", "lcra")])
def test_diagnosis_rows_identical(bug_name, tool_name):
    bug = get_bug(bug_name)
    reference = _report_dict(bug, tool_name, "reference")
    threaded = _report_dict(bug, tool_name, "threaded")
    assert reference == threaded


# ----------------------------------------------------------------------
# Software observers (delivered inline by the threaded closures)
# ----------------------------------------------------------------------

_BASELINE_TOOLS = {}


def _baseline_tools(bug):
    """``(program, tools)``: the observer-based baselines the paper runs
    on *bug* and the plain build they instrument.  CBI covers C (not
    C++) sequential bugs; CCI and CBI-adaptive, with every site active,
    cover concurrency bugs."""
    cached = _BASELINE_TOOLS.get(bug.name)
    if cached is None:
        if bug.category == "concurrency":
            adaptive = CbiAdaptiveTool(bug)
            adaptive._active_sites = set().union(
                *adaptive._sites_by_function.values())
            tools = [CciTool(bug), adaptive]
        elif bug.language != "cpp":
            tools = [CbiTool(bug)]
        else:
            tools = []
        program = tools[0].program if tools else \
            compile_module(bug.build_module(), toggling=False)
        cached = _BASELINE_TOOLS[bug.name] = (program, tools)
    return cached


def _recording_observers(machine, events):
    """Append every branch and coherence event to *events*."""
    machine.branch_observers.append(
        lambda thread, instr, taken, target:
        events.append(("branch", thread.tid, instr.address, taken,
                       target)))
    machine.coherence_observers.append(
        lambda thread, pc, access, state, address:
        events.append(("access", thread.tid, pc, access, state,
                       address)))


def _attach_everything(bug, tools):
    """``attach`` for :func:`_fingerprint`: raw event streams, the
    bug's baseline tools, a BTS, and an execution tracer together."""
    def attach(machine):
        events = []
        _recording_observers(machine, events)
        counts_before = [(t.events_observed, t.samples_taken)
                         for t in tools]
        finishes = [tool.attach(machine, run_seed=7) for tool in tools]
        bts = attach_bts(machine)
        tracer = ExecutionTracer(machine)

        def observe(status):
            failed = bug.is_failure(status)
            return {
                "events": tuple(events),
                "observations": [finish(failed) for finish in finishes],
                "tool_counts": [
                    (t.events_observed - events0, t.samples_taken - samples0)
                    for t, (events0, samples0) in zip(tools, counts_before)],
                "bts": (bts.entries(), bts.recorded_count),
                "tracer": (tuple(tracer.branches), tuple(tracer.accesses),
                           tracer.finish()),
            }
        return observe
    return attach


@pytest.mark.parametrize("bug", _BUGS, ids=lambda bug: bug.name)
def test_observers_equivalent(bug):
    """Baseline observations, BTS, tracer and raw event streams match."""
    program, tools = _baseline_tools(bug)
    attach = _attach_everything(bug, tools)
    for kind in ("failing", "passing"):
        plan = getattr(bug, kind + "_run_plan")(0)
        reference = _fingerprint(program, plan, "reference",
                                 bug.num_cores, attach)
        threaded = _fingerprint(program, plan, "threaded", bug.num_cores,
                                attach)
        assert reference["observers"]["events"], bug.name
        assert reference == threaded, "%s %s plan diverged" % (bug.name,
                                                               kind)


@pytest.mark.parametrize("bug_name", ["paste", "apache4"])
def test_observer_added_mid_run(bug_name):
    """An observer a profile hook appends sees the same events from the
    next instruction on, under both backends."""
    bug = get_bug(bug_name)
    program = _program(bug)
    plan = bug.failing_run_plan(0)

    def attach(machine):
        events = []

        def hook(machine, thread, steps):
            if not machine.branch_observers:
                events.append(("attached", steps))
                _recording_observers(machine, events)
        machine.set_profile_hook(hook, every=37)
        return lambda status: tuple(events)

    reference = _fingerprint(program, plan, "reference", bug.num_cores,
                             attach)
    threaded = _fingerprint(program, plan, "threaded", bug.num_cores,
                            attach)
    events = reference["observers"]
    assert events[0] == ("attached", 37) and len(events) > 1
    assert reference == threaded


def _every_branch_program():
    """Each branch opcode, conditionals both taken and not, plus the
    stack accesses of CALL/CALLR/PUSH/POP/RET."""
    a = Assembler()
    a.function("main")
    a.op(Opcode.LI, rd=1, imm=0)
    a.op(Opcode.JNZ, rs=1, target="done")     # not taken
    a.op(Opcode.JZ, rs=1, target="one")       # taken
    a.label("one")
    a.op(Opcode.LI, rd=2, imm=1)
    a.op(Opcode.JZ, rs=2, target="done")      # not taken
    a.op(Opcode.JNZ, rs=2, target="two")      # taken
    a.label("two")
    a.op(Opcode.JMP, target="three")
    a.label("three")
    a.op(Opcode.CALL, target="callee")
    a.op(Opcode.LI, rd=7, imm=0)              # patched: callee entry
    a.op(Opcode.CALLR, rs=7)
    a.label("done")
    a.op(Opcode.HALT, imm=0)
    a.function("callee")
    a.op(Opcode.PUSH, rs=1)
    a.op(Opcode.POP, rd=1)
    a.op(Opcode.RET)
    program = a.link()
    patched = [i for i in program.instructions
               if i.opcode is Opcode.LI and i.rd == 7]
    patched[0].imm = program.function_named("callee").entry
    return program


def test_observers_see_every_branch_kind():
    program = _every_branch_program()

    def attach(machine):
        events = []
        _recording_observers(machine, events)
        return lambda status: tuple(events)

    reference, threaded = (
        _fingerprint(program, RunPlan(), backend, 1, attach)
        for backend in ("reference", "threaded"))
    taken = [e[3] for e in reference["observers"] if e[0] == "branch"]
    assert taken == [False, True, False, True, True, True, True, True,
                     True]
    assert reference == threaded


def test_compiled_program_freed_by_refcount():
    """The threaded-code table stored on a program holds no reference
    back to it, so a dropped program dies without the cyclic GC."""
    bug = get_bug("paste")
    program = compile_module(bug.build_module())
    compiled_table(program)
    _fingerprint(program, bug.failing_run_plan(0), "threaded",
                 bug.num_cores)
    alive = weakref.ref(program)
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        del program
        assert alive() is None
    finally:
        if was_enabled:
            gc.enable()


def test_threaded_code_compiled_on_first_reach():
    """The threaded backend compiles exactly the addresses it executes:
    after a run, the table holds the pcs the reference loop stepped
    through and no others, far fewer than the program has."""
    bug = get_bug("paste")
    program = compile_module(bug.build_module())
    assert compiled_table(program) == {}
    plan = bug.failing_run_plan(0)
    _fingerprint(program, plan, "threaded", bug.num_cores)
    stepped = set()

    def attach(machine):
        step = machine.step

        def recording_step(thread):
            stepped.add(thread.pc)
            step(thread)
        machine.step = recording_step
    _fingerprint(program, plan, "reference", bug.num_cores, attach)
    table = compiled_table(program)
    assert set(table) == {pc for pc in stepped
                          if program.has_instruction(pc)}
    assert 0 < len(table) < len(program.instructions) // 2


# ----------------------------------------------------------------------
# Chaos spot check
# ----------------------------------------------------------------------

def test_fault_injection_is_backend_invariant(tmp_path):
    """An injected ledger fault changes neither backend's diagnosis."""
    from repro.obs.ledger import Ledger
    from repro.obs.ledger import use as use_ledger
    from repro.runtime import resilience

    bug = get_bug("paste")

    def describe(backend, fault_spec):
        state_dir = tmp_path / ("state-%s-%s" % (backend,
                                                 bool(fault_spec)))
        state_dir.mkdir()
        ledger = Ledger(tmp_path / ("ledger-%s-%s" % (backend,
                                                      bool(fault_spec))))
        with use_backend(backend), use_ledger(ledger):
            if fault_spec:
                plan = resilience.FaultPlan.parse(
                    fault_spec, seed=0, state_dir=str(state_dir))
                with resilience.use_plan(plan):
                    report = get_tool("lbra")(bug).run_diagnosis(2, 2)
            else:
                report = get_tool("lbra")(bug).run_diagnosis(2, 2)
        return report.describe()

    baseline = describe("reference", None)
    assert describe("threaded", None) == baseline
    assert describe("threaded", "ledger-write-error:1") == baseline
