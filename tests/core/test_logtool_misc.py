"""Miscellaneous tests for the log-tool layer."""

from repro.bugs.registry import get_bug
from repro.compiler.frontend import build_program
from repro.core.lbrlog import LbrLogTool
from repro.core.lcrlog import (
    CONF1_SPACE_SAVING,
    CONF2_SPACE_CONSUMING,
    LcrLogTool,
)
from repro.isa.instructions import HwOp, Opcode
from repro.runtime.process import run_program


def test_plain_program_has_no_monitoring_ops():
    bug = get_bug("sort")
    program = build_program(bug)
    hwops = [i for i in program.instructions if i.opcode is Opcode.HWOP]
    assert hwops == []


def test_plain_program_with_toggling_has_only_toggles():
    bug = get_bug("sort")
    program = build_program(bug, toggling=True)
    ops = {i.hwop for i in program.instructions
           if i.opcode is Opcode.HWOP}
    assert ops <= {HwOp.LBR_DISABLE, HwOp.LBR_ENABLE,
                   HwOp.LCR_DISABLE, HwOp.LCR_ENABLE}
    assert ops


def test_plain_program_still_fails():
    bug = get_bug("sort")
    program = build_program(bug)
    status = run_program(program, args=bug.failing_args)
    assert bug.is_failure(status)
    # ... but collects no profiles (no instrumentation, no handler).
    assert status.profiles == ()


def test_small_ring_capacity_truncates_report():
    bug = get_bug("squid2")        # root cause sits ~10 deep
    tool = LbrLogTool(bug, ring_capacity=4)
    report = tool.report(tool.run_failing(0))
    assert len(report.entries) <= 4
    assert report.position_of_line(bug.root_cause_lines) is None


def test_lcr_selector_recorded():
    bug = get_bug("fft")
    conf1 = LcrLogTool(bug, selector=CONF1_SPACE_SAVING)
    conf2 = LcrLogTool(bug, selector=CONF2_SPACE_CONSUMING)
    assert conf1.selector == 1
    assert conf2.selector == 2


def test_report_describe_renders_positions():
    bug = get_bug("apache3")
    tool = LbrLogTool(bug)
    report = tool.report(tool.run_failing(0))
    text = report.describe()
    assert "[ 1]" in text
    assert "LBRLOG" in text


def test_failure_snapshot_none_on_clean_run():
    bug = get_bug("apache3")
    tool = LbrLogTool(bug)
    profile, site = tool.failure_snapshot(tool.run_passing(0))
    assert profile is None
    assert site is None
