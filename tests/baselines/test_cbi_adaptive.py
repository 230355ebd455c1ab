"""Tests for the CBI-adaptive baseline."""

from repro.baselines.cbi_adaptive import CbiAdaptiveTool
from repro.bugs.registry import get_bug
from repro.compiler.frontend import build_program
from repro.runtime.process import run_program
from repro.runtime.workload import RunPlan, Workload


def test_adaptive_converges_on_sort():
    tool = CbiAdaptiveTool(get_bug("sort"), runs_per_iteration=15)
    outcome = tool.run_diagnosis()
    assert outcome.converged
    assert outcome.iterations >= 1
    assert 0.0 < outcome.fraction_evaluated <= 1.0
    assert outcome.ranked


def test_adaptive_expands_from_failure_function():
    bug = get_bug("sort")
    tool = CbiAdaptiveTool(bug, runs_per_iteration=10)
    outcome = tool.run_diagnosis()
    # The wave starts at the crashing function and grows outward.
    assert outcome.wave_functions[0] == "hash_lookup"


def test_adaptive_needs_iterations_where_lbra_needs_none():
    """The structural contrast of Section 8: LBRA ships no updates."""
    bug = get_bug("apache1")
    tool = CbiAdaptiveTool(bug, runs_per_iteration=10)
    outcome = tool.run_diagnosis()
    assert outcome.iterations >= 1
    assert outcome.predicates_evaluated >= 1


def test_predicate_universe_counts_conditionals():
    tool = CbiAdaptiveTool(get_bug("rm"))
    total = sum(len(s) for s in tool._sites_by_function.values())
    assert total > 5      # app + stdlib conditional sites


class _ArrayInput(Workload):
    """A failure driven entirely by an array-valued global input."""

    name = "array-input"
    source = """
int table[4];
int check(int i) {
    if (table[i] > 10) {
        exit(26);
    }
    return table[i];
}
int main(int i) {
    print(check(i));
    return 0;
}
"""

    def failing_run_plan(self, k):
        return RunPlan(args=(2,), globals_setup={"table": [1, 2, 30 + k, 4]})

    def passing_run_plan(self, k):
        return RunPlan(args=(k % 4,), globals_setup={"table": [1, 2, 3, 4]})


def test_adaptive_applies_list_valued_globals_like_run_program():
    workload = _ArrayInput()
    plan = workload.failing_run_plan(0)
    status = run_program(build_program(workload), args=plan.args,
                         globals_setup=plan.globals_setup)
    assert status.exit_code == 26
    outcome = CbiAdaptiveTool(workload, runs_per_iteration=4) \
        .run_diagnosis()
    assert outcome.converged
    assert outcome.ranked[0].line == 4
