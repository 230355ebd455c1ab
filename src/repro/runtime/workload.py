"""The workload protocol.

A :class:`Workload` describes one application under diagnosis: how to get
its (untransformed) MiniC module, which functions are its failure-logging
functions, and how to drive runs that fail and runs that succeed.  The
diagnosis tools (:mod:`repro.core`) and the baselines
(:mod:`repro.baselines`) consume workloads; the bug suite
(:mod:`repro.bugs`) provides 31 of them.
"""

from dataclasses import dataclass, field

from repro.lang.parser import parse


@dataclass
class RunPlan:
    """Everything needed to execute one run of a workload."""

    args: tuple = ()
    #: zero-arg callable returning a fresh scheduler (None = default RR)
    scheduler_factory: object = None
    max_steps: int = None
    #: global name -> value (or list of values) poked before the run
    globals_setup: dict = field(default_factory=dict)

    def make_scheduler(self):
        if self.scheduler_factory is None:
            return None
        return self.scheduler_factory()


class Workload:
    """Base class for applications under diagnosis.

    Subclasses must provide :attr:`name`, :attr:`source`, and the two run
    plans; they may override :meth:`is_failure` (the default treats any
    machine fault or nonzero exit as a failure) and anything else.
    """

    #: short identifier, e.g. "sort"
    name = "workload"
    #: MiniC source text
    source = ""
    #: the application's failure-logging function names (the
    #: developer-configurable list of Section 5.1)
    log_functions = ("error",)
    #: machine cores to simulate (>= number of threads spawned)
    num_cores = 4
    #: source language of the real application ("c" or "cpp"); the CBI
    #: framework does not support C++ applications (Table 6 "N/A" rows)
    language = "c"

    def build_module(self):
        """Parse and return the application's (untransformed) AST.

        The module is a function of :attr:`source` and :attr:`name`
        alone: :func:`~repro.compiler.frontend.build_program` keys the
        programs it shares between tools on exactly those two.
        """
        return parse(self.source, source_name=self.name + ".c")

    # -- run plans ------------------------------------------------------

    def failing_run_plan(self, k):
        """Return the :class:`RunPlan` for the k-th failing run."""
        raise NotImplementedError

    def passing_run_plan(self, k):
        """Return the :class:`RunPlan` for the k-th passing run."""
        raise NotImplementedError

    # -- outcome classification -----------------------------------------

    #: if set, a run is a failure when this text appears in the output
    failure_output = None

    def is_failure(self, status):
        """Classify one :class:`ExitStatus` as failure or success.

        Machine faults always win: a run that crashed is a failure
        even when :attr:`failure_output` is set and the marker text
        never made it out — otherwise a crashed run would be pooled
        with the success profiles and poison the ranking.  Subclasses
        wanting different precedence override this hook.
        """
        if status.fault is not None:
            return True
        if self.failure_output is not None:
            return status.output_contains(self.failure_output)
        return bool(status.exit_code)
