"""Process running and experiment harness utilities.

* :mod:`repro.runtime.process` — build a fresh machine and run one program;
* :mod:`repro.runtime.workload` — the protocol connecting applications
  (the bug suite) to the diagnosis tools: how to build the program, how to
  drive failing and passing runs, and how to recognize a failure;
* :mod:`repro.runtime.harness` — the campaign engine
  (:class:`~repro.runtime.harness.CampaignStream`) every tool's N
  failing + M passing runs go through, and :func:`run_campaign`;
* :mod:`repro.runtime.executor` — fan campaign attempts out across a
  process pool and memoize finished runs in a content-addressed cache;
* :mod:`repro.runtime.resilience` — the fault-injection harness and the
  retry/recovery policy that keep the pipeline alive under crashes;
* :mod:`repro.runtime.checkpoint` — durable campaigns: crash-safe
  checkpoint journals with deterministic resume, the campaign
  supervisor/watchdog, and deadline/run-budget graceful degradation.
"""

# The campaign API; everything else is imported from its submodule.
from repro.runtime.process import run_program
from repro.runtime.workload import RunPlan, Workload
from repro.runtime.harness import CampaignResult, CampaignStream, run_campaign
from repro.runtime.executor import CampaignExecutor

__all__ = [
    "CampaignExecutor",
    "CampaignResult",
    "CampaignStream",
    "RunPlan",
    "Workload",
    "run_campaign",
    "run_program",
]
