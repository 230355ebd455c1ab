"""A program that has run in-process can still be shipped to workers.

The threaded backend caches its closure table on the program, and the
executor caches the program's pickled bytes there too.  Neither may
travel with the program: a closure cannot be pickled, and a program
the executor finds unpicklable runs every task inline.
"""

import pickle

import pytest

from repro.bugs.registry import get_bug
from repro.compiler.frontend import compile_module
from repro.machine.backends import BACKEND_NAMES, compiled_table
from repro.runtime.executor import CampaignExecutor
from tests.machine.test_backends import _fingerprint


@pytest.mark.parametrize("bug_name", ["paste", "apache4"])
def test_program_pickles_after_threaded_run(bug_name):
    bug = get_bug(bug_name)
    program = compile_module(bug.build_module())
    plan = bug.failing_run_plan(0)
    original = _fingerprint(program, plan, "threaded", bug.num_cores)
    assert compiled_table(program)
    program._process_local["pickle_blob"] = b"process-local"

    copy = pickle.loads(pickle.dumps(program))

    assert copy._process_local == {}
    assert "threaded_code" in program._process_local
    assert compiled_table(program), "pickling cleared the original"
    for backend in BACKEND_NAMES:
        assert _fingerprint(copy, plan, backend, bug.num_cores) \
            == original, backend


def test_executor_ships_a_program_that_ran_in_process():
    """The pooled executor does not count such a program unpicklable."""
    bug = get_bug("paste")
    program = compile_module(bug.build_module())
    plan = bug.failing_run_plan(0)
    _fingerprint(program, plan, "threaded", bug.num_cores)
    executor = CampaignExecutor(jobs=2)
    try:
        result = executor.run_one(program, plan)
    finally:
        executor.shutdown()
    assert executor.stats.unpicklable_tasks == 0
    assert executor.stats.pool_runs == 1
    assert result.error is None
