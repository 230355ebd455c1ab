"""Outside-in per-layer tracing of the ``repro`` package.

The benchmark never edits ``src/``.  Instead, for a traced driver call
it rebinds the public entry points of each ``repro.*`` layer to timing
wrappers, and restores the original function objects afterwards:

* module-level functions are replaced in *every* loaded ``repro``
  module that binds the same object (``from x import f`` copies the
  binding, so patching the defining module alone would miss callers);
* methods are replaced on the class that defines them.

Each wrapper is a span.  Spans nest on one stack, so a layer's *self*
time is its span time minus the time of the spans it caused.  Wrapper
bookkeeping (counter reads, program hashing) is timed separately and
charged to no layer, so ``wall = sum(self) + bookkeeping + uncovered``.

Counts that guard simulated behaviour (bus transactions, ring entries,
hardware operations) are read from each machine as deltas around
``Machine.run``, so only runs executed in this process are counted.
"""

import functools
import hashlib
import importlib
import pkgutil
import sys
import time
import types
from collections import defaultdict

#: attribute naming the original on every wrapper this module installs
ORIGINAL = "__perfbench_original__"

clock = time.perf_counter


class _Target:
    """One wrapped entry point.

    ``layer`` is the self-time key (``None``: count-only hook, no span);
    ``calls`` is the call-count key (``None``: not counted);
    ``iterator`` marks a function returning an iterator, each resumption
    of which is a span; ``before(args)`` returns state handed to
    ``after(tracer, args, result, state, self_seconds)``.
    """

    def __init__(self, module, qualname, layer, calls=None,
                 iterator=False, before=None, after=None):
        self.module = module
        self.qualname = qualname
        self.layer = layer
        self.calls = calls
        self.iterator = iterator
        self.before = before
        self.after = after


# -- hooks --------------------------------------------------------------

def _machine_counters(machine):
    bus = machine.bus
    return (
        machine.retired,
        bus.transaction_count,
        bus.snoop_count,
        bus.invalidation_count,
        sum(core.lbr.recorded_count for core in machine.cores),
        sum(core.lcr.recorded_count for core in machine.cores),
        sum(machine.hwop_counts.values()),
    )


_GUARD_KEYS = ("machine.retired", "cache.bus.transactions",
               "cache.bus.snoops", "cache.bus.invalidations",
               "hwpmu.lbr.recorded", "hwpmu.lcr.recorded", "hwpmu.hwops")

#: exact simulated-statistics counts a perf-only change must not move
GUARDS = _GUARD_KEYS[1:] + ("baselines.events_observed",
                            "baselines.samples_taken")


def _before_run(args):
    machine = args[0]
    # The threaded backend hands a run with software observers attached
    # to the reference loop (repro.machine.backends.ThreadedBackend).
    fallback = (machine.config.backend == "threaded"
                and bool(machine.branch_observers
                         or machine.coherence_observers))
    return fallback, _machine_counters(machine)


def _after_run(tracer, args, _result, state, self_seconds):
    fallback, before = state
    after = _machine_counters(args[0])
    counts = tracer.counts
    for key, start, end in zip(_GUARD_KEYS, before, after):
        counts[key] += end - start
    counts["machine.runs"] += 1
    if fallback:
        counts["machine.fallback_runs"] += 1
        tracer.self_s["machine.fallback"] += self_seconds


def _after_compile(tracer, _args, program, _state, _self_seconds):
    digest = hashlib.sha256()
    digest.update(program.entry.encode())
    digest.update("\n".join(
        instr.describe() for instr in program.instructions).encode())
    digest.update(repr(sorted(program.global_init.items())).encode())
    tracer.programs.add(digest.hexdigest())


def _after_profile(tracer, _args, profile, _state, _self_seconds):
    if profile is not None:
        tracer.counts["core.profiles.useful"] += 1


def _before_baseline(args):
    tool = args[0]
    return tool.events_observed, tool.samples_taken


def _after_baseline(tracer, args, _result, state, _self_seconds):
    tool = args[0]
    tracer.counts["baselines.events_observed"] += \
        tool.events_observed - state[0]
    tracer.counts["baselines.samples_taken"] += \
        tool.samples_taken - state[1]


TARGETS = (
    _Target("repro.machine.cpu", "Machine.__init__", "machine.construct",
            calls="machine.construct.calls"),
    _Target("repro.machine.cpu", "Machine.load", "machine.construct"),
    _Target("repro.machine.cpu", "Machine.run", "machine.run",
            before=_before_run, after=_after_run),
    _Target("repro.compiler.frontend", "compile_module", "compiler.compile",
            calls="compiler.compile.calls", after=_after_compile),
    _Target("repro.lang.parser", "parse", "lang.parse",
            calls="lang.parse.calls"),
    _Target("repro.lang.transform", "enhance_logging", "lang.transform",
            calls="lang.transform.calls"),
    _Target("repro.core.profiles", "extract_profile", "core.profiles",
            calls="core.profiles.calls", after=_after_profile),
    _Target("repro.core.statistics", "rank_predictors", "core.statistics"),
    _Target("repro.baselines.scoring", "liblit_rank", "baselines.scoring"),
    _Target("repro.baselines.base", "BaselineToolBase.run_diagnosis", None,
            before=_before_baseline, after=_after_baseline),
    _Target("repro.runtime.executor", "CampaignExecutor.iter_runs",
            "runtime.executor", iterator=True),
    _Target("repro.runtime.executor", "CampaignExecutor.iter_baseline_runs",
            "runtime.executor", iterator=True),
    _Target("repro.runtime.executor", "CampaignExecutor.run_one",
            "runtime.executor"),
    _Target("repro.runtime.executor", "RunCache.get", "runtime.cache.get"),
    _Target("repro.runtime.executor", "RunCache.put", "runtime.cache.put"),
    _Target("repro.obs.ledger", "Ledger.append", "obs.ledger.append",
            calls="obs.ledger.appends"),
    _Target("repro.fleet.stream", "FleetStream.reports", "fleet.stream",
            iterator=True),
    _Target("repro.fleet.signature", "extract_signature", "fleet.signature"),
) + tuple(
    _Target("repro.fleet.aggregate", "IncrementalRanker." + name,
            "fleet.aggregate")
    for name in ("add", "add_failure", "add_success", "ranking", "rank_of")
)

#: every self-time key a span charges (``machine.fallback`` is a part
#: of ``machine.run``, not a layer of its own)
LAYERS = tuple(sorted({t.layer for t in TARGETS if t.layer}))


def import_all():
    """Import every ``repro`` submodule, so each binding can be patched."""
    package = importlib.import_module("repro")
    for info in pkgutil.walk_packages(package.__path__, "repro."):
        if not info.name.endswith(".__main__"):
            importlib.import_module(info.name)


def _repro_modules():
    return [module for name, module in list(sys.modules.items())
            if module is not None
            and (name == "repro" or name.startswith("repro."))]


def _resolve(target):
    """``(owner, attribute name, original)`` of *target*."""
    owner = importlib.import_module(target.module)
    parts = target.qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1], owner.__dict__[parts[-1]]


def _is_wrapper(value):
    return isinstance(value, types.FunctionType) and ORIGINAL in vars(value)


def installed():
    """Names of every ``repro`` binding currently bound to a wrapper."""
    found = []
    for module in _repro_modules():
        for name, value in list(vars(module).items()):
            if _is_wrapper(value):
                found.append("%s.%s" % (module.__name__, name))
            elif isinstance(value, type) and \
                    value.__module__ == module.__name__:
                for attr, member in list(vars(value).items()):
                    if _is_wrapper(member):
                        found.append("%s.%s.%s" % (
                            module.__name__, name, attr))
    return found


def assert_clean():
    """Raise unless every ``repro`` binding is its original object."""
    wrapped = installed()
    if wrapped:
        raise RuntimeError("tracing wrappers still installed: %s"
                           % ", ".join(sorted(wrapped)))


class _TracedIterator:
    """Iterator proxy: each ``next()`` is one span of *layer*."""

    __slots__ = ("_inner", "_span")

    def __init__(self, inner, span):
        self._inner = inner
        self._span = span

    def __iter__(self):
        return self

    def __next__(self):
        return self._span(self._inner.__next__)

    def close(self):
        close = getattr(self._inner, "close", None)
        if close is not None:
            close()


class Tracer:
    """Per-layer self time and counts over the traced calls of one run.

    Use :meth:`install`/:meth:`uninstall` around each traced call (or
    the tracer as a context manager); totals accumulate across calls.
    """

    def __init__(self):
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.bookkeeping_s = 0.0
        #: content hashes of the programs compiled in the current call
        self.programs = set()
        self.distinct_programs = 0
        self._stack = []
        self._patched = []

    # -- spans ------------------------------------------------------------

    def _span(self, layer, calls, before, after, fn, args=(), kwargs=None):
        stack = self._stack
        entered = clock()
        state = before(args) if before is not None else None
        if layer is not None:
            stack.append(0.0)
        started = clock()
        ok = False
        try:
            result = fn(*args, **(kwargs or {}))
            ok = True
            return result
        finally:
            ended = clock()
            own = 0.0
            if layer is not None:
                own = ended - started - stack.pop()
                self.self_s[layer] += own
            if calls is not None:
                self.counts[calls] += 1
            if ok and after is not None:
                after(self, args, result, state, own)
            left = clock()
            overhead = (started - entered) + (left - ended)
            self.bookkeeping_s += overhead
            if stack:
                # The parent span must not count this span, nor its
                # bookkeeping, as its own time.
                stack[-1] += (left - entered) if layer is not None \
                    else overhead

    def _wrap(self, target, original):
        span = self._span
        layer, calls = target.layer, target.calls
        before, after = target.before, target.after
        if target.iterator:
            def resume(step):
                return span(layer, None, None, None, step)

            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                inner = span(layer, calls, before, after, original,
                             args, kwargs)
                return _TracedIterator(inner, resume)
        else:
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                return span(layer, calls, before, after, original,
                            args, kwargs)
        setattr(wrapper, ORIGINAL, original)
        return wrapper

    # -- install / restore ----------------------------------------------

    def install(self):
        """Bind every target to its wrapper (see the module docstring)."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        import_all()
        assert_clean()
        self.programs = set()
        modules = _repro_modules()
        for target in TARGETS:
            owner, name, original = _resolve(target)
            wrapper = self._wrap(target, original)
            if isinstance(owner, type):
                self._patched.append((owner, name, original))
                setattr(owner, name, wrapper)
                continue
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self):
        """Restore every original object the last :meth:`install` replaced."""
        while self._patched:
            owner, name, original = self._patched.pop()
            setattr(owner, name, original)
        self.distinct_programs += len(self.programs)
        self.programs = set()
        assert_clean()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *_exc):
        self.uninstall()
        return False

    # -- results ----------------------------------------------------------

    def covered_seconds(self):
        """Self time of every layer plus wrapper bookkeeping."""
        return sum(self.self_s[layer] for layer in LAYERS) \
            + self.bookkeeping_s
