"""The memoized workload build: one parse → enhance → compile pipeline.

``build_program`` keys its products on everything a build depends on
and keeps only the last few, so tools that share a workload compile it
once without holding every program ever built.
"""

import gc
import weakref
from collections import OrderedDict

import pytest

from repro.bugs.registry import get_bug
from repro.compiler import frontend
from repro.compiler.frontend import build_program
from repro.experiments import table6
from repro.lang.transform import ReactiveTarget
from repro.runtime.workload import Workload


SOURCE = """
int error(int code) { print(code); return code; }
int main(int x) {
    if (x > 3) { error(1); return 1; }
    return 0;
}
"""


class Tiny(Workload):
    name = "tiny"
    source = SOURCE


def _tiny(**attributes):
    return type("Variant", (Tiny,), attributes)()


@pytest.fixture(autouse=True)
def fresh_memo(monkeypatch):
    """Every test starts from an empty memo; the process's is restored."""
    monkeypatch.setattr(frontend, "_built", OrderedDict())


@pytest.fixture
def compile_calls(monkeypatch):
    """Count the compiles ``build_program`` performs."""
    calls = []
    original = frontend.compile_module

    def counting(module, **kwargs):
        calls.append(module.source_name)
        return original(module, **kwargs)

    monkeypatch.setattr(frontend, "compile_module", counting)
    return calls


def test_equal_keys_return_the_same_program(compile_calls):
    workload = Tiny()
    plain = build_program(workload)
    assert build_program(Tiny()) is plain
    enhanced = build_program(workload, True, rings=("lbr",))
    assert build_program(workload, True, rings=("lbr",)) is enhanced
    assert enhanced is not plain
    assert len(compile_calls) == 2


#: one variation of every input the key covers
_TARGET = ReactiveTarget(kind="log", function="main", line=4)
_VARIANTS = {
    "plain": (Tiny, False, {}),
    "source": (lambda: _tiny(source=SOURCE + "\n"), False, {}),
    "name": (lambda: _tiny(name="other"), False, {}),
    "toggling": (Tiny, True, {}),
    "enhanced": (Tiny, False, {"rings": ("lbr",)}),
    "log_functions": (Tiny, False, {"rings": ("lbr",),
                                    "log_functions": ("print",)}),
    "lcr_selector": (Tiny, False, {"rings": ("lbr",), "lcr_selector": 1}),
    "success_scheme": (Tiny, False, {"rings": ("lbr",),
                                     "success_scheme": "proactive"}),
    "reactive_target": (Tiny, False, {"rings": ("lbr",),
                                      "success_scheme": "reactive",
                                      "reactive_target": _TARGET}),
    "register_segv_handler": (Tiny, False,
                              {"rings": ("lbr",),
                               "register_segv_handler": False}),
}


def test_every_input_keys_its_own_entry(compile_calls):
    programs = {}
    for label, (make, toggling, enhance) in _VARIANTS.items():
        programs[label] = build_program(make(), toggling, **enhance)
        # Built once, and still the same object right after.
        assert build_program(make(), toggling, **enhance) \
            is programs[label], label
    assert len({id(program) for program in programs.values()}) \
        == len(_VARIANTS)
    assert len(compile_calls) == len(_VARIANTS)
    assert programs["name"].source_name == "other.c"


def test_reactive_target_alone_keys_an_entry(compile_calls):
    """Two builds differing only in the reactive target are distinct."""
    segv = ReactiveTarget(kind="segv", function="main", line=5)
    at_log = build_program(Tiny(), False, rings=("lbr",),
                           success_scheme="reactive",
                           reactive_target=_TARGET)
    at_segv = build_program(Tiny(), False, rings=("lbr",),
                            success_scheme="reactive",
                            reactive_target=segv)
    assert at_segv is not at_log
    assert len(compile_calls) == 2


def test_explicit_defaults_share_the_entry(compile_calls):
    implicit = build_program(Tiny(), True, rings=("lcr",))
    explicit = build_program(Tiny(), True, rings=("lcr",),
                             log_functions=("error",), lcr_selector=2,
                             success_scheme="none", reactive_target=None,
                             register_segv_handler=True)
    assert explicit is implicit
    assert len(compile_calls) == 1


def test_list_valued_options_share_the_tuple_entry(compile_calls):
    """Lists are accepted, as by enhance_logging, and key like tuples."""
    as_tuples = build_program(Tiny(), True, rings=("lbr",),
                              log_functions=("error", "print"))
    as_lists = build_program(Tiny(), True, rings=["lbr"],
                             log_functions=["print", "error"])
    assert as_lists is as_tuples
    assert len(compile_calls) == 1


def test_unknown_option_rejected():
    with pytest.raises(TypeError):
        build_program(Tiny(), False, ring="lbr")
    assert not frontend._built


def test_memo_keeps_only_the_last_four_programs():
    """A dropped program dies once four newer builds pushed it out,
    without help from the cyclic collector."""
    first = build_program(Tiny())
    alive = weakref.ref(first)
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        del first
        for selector in range(4):
            build_program(Tiny(), False, lcr_selector=selector)
        assert alive() is None
    finally:
        if was_enabled:
            gc.enable()
    assert len(frontend._built) == 4


class _Forgetful(OrderedDict):
    """A memo that never keeps anything: every build is cold."""

    def __setitem__(self, key, value):
        pass


def test_table6_row_identical_cold_and_warm(monkeypatch, compile_calls):
    bug = get_bug("sort")
    warm = table6.evaluate_bug(bug, cbi_runs=5, overhead_runs=2)
    warm_compiles = len(compile_calls)
    monkeypatch.setattr(frontend, "_built", _Forgetful())
    cold = table6.evaluate_bug(bug, cbi_runs=5, overhead_runs=2)
    assert cold == warm
    assert len(compile_calls) - warm_compiles > warm_compiles
