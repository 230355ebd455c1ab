"""Shared machinery for the LBRLOG and LCRLOG tools."""

from dataclasses import dataclass

from repro.compiler.frontend import build_program
from repro.machine.cpu import MachineConfig
from repro.obs import get_obs, use
from repro.runtime.process import run_program
from repro.core.profiles import (
    FAILURE_SITE_KINDS,
    extract_profile,
    site_by_id,
)


@dataclass
class DecodedEntry:
    """One ring entry decoded against debug info."""

    position: int         # 1 = latest
    entry: object         # LbrEntry or LcrEntry
    event: object         # Event

    @property
    def line(self):
        return self.event.line

    @property
    def function(self):
        return self.event.function

    def __str__(self):
        return "[%2d] %s" % (self.position, self.event)


class LogToolBase:
    """Builds the log-enhanced program for a workload and runs it."""

    #: "lbr" or "lcr" — set by subclasses.
    ring = None

    def __init__(self, workload, toggling=True, lcr_selector=2,
                 register_segv_handler=True, ring_capacity=16,
                 executor=None, obs=None):
        self.workload = workload
        self.toggling = toggling
        #: optional CampaignExecutor; runs then use its pool/run cache
        #: (results are identical — see repro.runtime.executor)
        self.executor = executor
        #: optional Observability installed around run_plan (default:
        #: whatever bundle is current at run time)
        self.obs = obs
        self.program = build_program(
            workload, toggling,
            log_functions=workload.log_functions,
            rings=(self.ring,),
            lcr_selector=lcr_selector,
            register_segv_handler=register_segv_handler,
        )
        self.machine_config = MachineConfig(
            num_cores=workload.num_cores,
            lbr_capacity=ring_capacity,
            lcr_capacity=ring_capacity,
        )

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------

    def run_plan(self, plan):
        """Execute one :class:`RunPlan` against the enhanced program."""
        with use(self.obs if self.obs is not None else get_obs()):
            if self.executor is not None:
                return self.executor.run_one(
                    self.program, plan, self.machine_config
                ).status
            return run_program(
                self.program,
                args=plan.args,
                scheduler=plan.make_scheduler(),
                config=self.machine_config,
                max_steps=plan.max_steps,
                globals_setup=plan.globals_setup,
            )

    def run_failing(self, k=0):
        """Execute the workload's k-th failing run plan."""
        return self.run_plan(self.workload.failing_run_plan(k))

    def run_passing(self, k=0):
        """Execute the workload's k-th passing run plan."""
        return self.run_plan(self.workload.passing_run_plan(k))

    # ------------------------------------------------------------------
    # Decoding
    # ------------------------------------------------------------------

    def failure_snapshot(self, status):
        """Return (RunProfile, LoggingSite) for the run's failure profile,
        or (None, None) when the run never hit a failure site."""
        profile = extract_profile(
            self.program, status, self.ring,
            site_kinds=FAILURE_SITE_KINDS,
        )
        if profile is None:
            return None, None
        return profile, site_by_id(self.program, profile.site_id)

    def decode(self, profile):
        """Turn a RunProfile into positioned :class:`DecodedEntry` rows."""
        return [
            DecodedEntry(position=index + 1,
                         entry=profile.snapshot.entries[index],
                         event=profile.events[index])
            for index in range(len(profile.events))
        ]
