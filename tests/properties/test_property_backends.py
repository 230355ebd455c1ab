"""Property: the threaded engine delivers software-observer events
exactly as the reference interpreter does, on generated workloads.

For random synthesizer specs (both kinds, every difficulty knob), the
CBI (sequential) or CCI (concurrency) observations of the same runs
are equal under both backends, as are the tools' event and sample
counts.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.cbi import CbiTool
from repro.baselines.cci import CciTool
from repro.bugs.synth import KNOB_RANGES, SynthSpec, make_benchmark
from repro.machine.backends import BACKEND_NAMES, use_backend


def _knob(name):
    low, high = KNOB_RANGES[name]
    return st.integers(min_value=low, max_value=high)


seeds = st.integers(min_value=0, max_value=10_000)

synth_specs = st.one_of(
    st.builds(SynthSpec, kind=st.just("seq"),
              propagation=_knob("propagation"),
              pollution=_knob("pollution"),
              ambiguity=_knob("ambiguity"), seed=seeds),
    st.builds(SynthSpec, kind=st.just("conc"),
              ambiguity=_knob("ambiguity"), window=_knob("window"),
              seed=seeds),
)


def _observations(bug, backend, sampling_rate, runs):
    tool_class = CbiTool if bug.category == "sequential" else CciTool
    with use_backend(backend):
        tool = tool_class(bug, sampling_rate=sampling_rate)
    assert tool.machine_config.backend == backend
    seen = []
    for k in range(runs):
        for plan in (bug.failing_run_plan(k), bug.passing_run_plan(k)):
            seen.append(tool._run_once(plan, k))
    return seen, tool.events_observed, tool.samples_taken


@settings(max_examples=16, deadline=None, derandomize=True)
@given(spec=synth_specs, sampling_rate=st.sampled_from([1.0, 0.3, 0.01]))
def test_baseline_observations_backend_invariant(spec, sampling_rate):
    bug = make_benchmark(spec)
    reference, threaded = (
        _observations(bug, backend, sampling_rate, runs=2)
        for backend in BACKEND_NAMES)
    assert reference[1] > 0, "no observer event reached the tool"
    assert reference == threaded
