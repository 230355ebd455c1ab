"""Run campaigns: repeated executions with outcome classification.

The statistical tools need "N failure runs and M success runs" (the paper
uses 10+10 for LBRA/LCRA and 1000+1000 for CBI).  :func:`run_campaign`
drives a workload's run plans until the requested number of runs with the
right outcome have been observed, which mirrors production reality: a
failing input occasionally fails to manifest (concurrency bugs!) and is
then just another success run.

Determinism contract
--------------------

A campaign's plan stream is a pure function of the workload: the k-th
failing attempt always executes ``workload.failing_run_plan(k)``, and any
randomness lives inside the plan (schedulers seeded by k).  Each run's
outcome depends only on its (program, plan, config) triple.  Campaign
results are therefore **bit-identical no matter how runs are executed**:
sequentially in this process, fanned out across a worker pool, or
replayed from the run cache.  Passing a
:class:`~repro.runtime.executor.CampaignExecutor` via ``executor=``
changes wall-clock time, never results — parallel workers only
*speculate ahead* in the deterministic plan stream, and results are
consumed strictly in plan order so the stopping decisions replay the
sequential logic exactly.

Shortfall handling
------------------

A campaign can exhaust its attempt budget short of the requested outcome
counts (a "failing" input that stubbornly succeeds, or vice versa).
That used to be silent; ``on_shortfall`` now controls it: ``"warn"``
(default) emits a :class:`CampaignShortfallWarning`, ``"raise"`` raises
:class:`CampaignShortfallError`, ``"ignore"`` restores the old silence.
Both carry the structured counts so callers can react programmatically.
"""

import itertools
import warnings
from dataclasses import dataclass

from repro.machine.cpu import MachineConfig
from repro.obs import get_obs, use
from repro.obs.ledger import get_ledger
from repro.runtime import checkpoint as _checkpoint
from repro.runtime import executor as _executor
from repro.runtime.process import run_program


@dataclass
class RunRecord:
    """One executed run."""

    index: int
    status: object        # ExitStatus
    failed: bool
    plan: object          # RunPlan


@dataclass(frozen=True)
class ShortfallInfo:
    """Structured description of a campaign that missed its quotas."""

    workload_name: str
    want_failures: int
    got_failures: int
    want_successes: int
    got_successes: int
    attempts: int
    limit: int

    def describe(self):
        return (
            "campaign for %r exhausted %d/%d attempts with %d/%d "
            "failures and %d/%d successes" % (
                self.workload_name, self.attempts, self.limit,
                self.got_failures, self.want_failures,
                self.got_successes, self.want_successes,
            )
        )


@dataclass
class CampaignResult:
    """Outcome of a run campaign.

    Besides the collected runs, carries everything observable about how
    the campaign unfolded: ``shortfall`` (a :class:`ShortfallInfo`, or
    ``None`` when both quotas were met), ``executor_stats`` (the
    :class:`~repro.runtime.executor.ExecutorStats` of the executor in
    play, or ``None`` on the sequential path), and ``obs`` (the
    :class:`~repro.obs.Observability` whose span/metric buffers the
    campaign wrote into; the shared NULL bundle when disabled).
    """

    failures: list
    successes: list
    attempts: int
    shortfall: ShortfallInfo = None
    executor_stats: object = None
    obs: object = None
    #: stop reason ("run-budget"/"deadline") when the campaign was cut
    #: short by the active CampaignBudget, None otherwise (see
    #: repro.runtime.checkpoint); budget stops are expected, so they
    #: never warn/raise through ``on_shortfall``
    partial: str = None

    @property
    def all_runs(self):
        return self.failures + self.successes

    @property
    def met_quotas(self):
        return self.shortfall is None


class _CampaignShortfall:
    """Mixin carrying the structured shortfall description.

    ``detail`` optionally appends execution-layer context to the
    message — e.g. "the executor recorded N task errors" — so a
    shortfall caused by infrastructure failures, not workload behaviour,
    says so.
    """

    def __init__(self, workload_name, want_failures, got_failures,
                 want_successes, got_successes, attempts, limit,
                 detail=None):
        self.info = ShortfallInfo(
            workload_name, want_failures, got_failures,
            want_successes, got_successes, attempts, limit,
        )
        self.workload_name = workload_name
        self.want_failures = want_failures
        self.got_failures = got_failures
        self.want_successes = want_successes
        self.got_successes = got_successes
        self.attempts = attempts
        self.limit = limit
        self.detail = detail
        message = self.info.describe()
        if detail:
            message += "; " + detail
        super().__init__(message)


class CampaignShortfallError(_CampaignShortfall, RuntimeError):
    """The campaign hit its attempt cap short of the requested counts."""


class CampaignShortfallWarning(_CampaignShortfall, UserWarning):
    """Warning flavour of :class:`CampaignShortfallError`."""


def run_campaign(program, workload, *, want_failures, want_successes,
                 config=None, max_attempts=None, executor=None,
                 on_shortfall="warn", obs=None):
    """Execute *program* until the requested outcome counts are reached.

    Everything after ``workload`` is keyword-only; the old positional
    tail (``run_campaign(p, w, 10, 10)``) grew too easy to mis-order.

    Failing runs use ``workload.failing_run_plan``; once enough failures
    are collected, passing runs use ``workload.passing_run_plan``.  Runs
    whose outcome does not match their plan's intent are still recorded
    under their actual outcome (a "failing" plan that survives is a
    success run, exactly as in production).  Both phases number their
    plans from 0 and share the attempt cap.

    ``executor`` optionally supplies a
    :class:`~repro.runtime.executor.CampaignExecutor` that runs attempts
    on a worker pool and/or replays them from the run cache; results are
    identical to the sequential path (see the module docstring).

    ``on_shortfall`` — ``"warn"`` (default), ``"raise"``, or ``"ignore"``
    — controls what happens when the attempt cap is reached before the
    requested counts are (see the module docstring).

    ``obs`` — an :class:`~repro.obs.Observability` to record spans and
    metrics into for the duration of the campaign; defaults to whatever
    bundle is already current (the shared no-op one unless tracing was
    enabled), so instrumentation costs nothing when unused.
    """
    if on_shortfall not in ("warn", "raise", "ignore"):
        raise ValueError("on_shortfall must be 'warn', 'raise', or "
                         "'ignore', not %r" % (on_shortfall,))
    if obs is None:
        obs = get_obs()
    config = config or MachineConfig(num_cores=workload.num_cores)
    failures = []
    successes = []
    limit = max_attempts if max_attempts is not None else \
        (want_failures + want_successes) * 20 + 50
    unit = PlainRuns(program, workload, config)
    stop_reason = None
    phases = (
        ("failing", workload.failing_run_plan,
         lambda: len(failures) >= want_failures),
        ("passing", workload.passing_run_plan,
         lambda: len(successes) >= want_successes),
    )
    with use(obs), obs.span("campaign", workload=workload.name):
        for phase, plan_fn, quota_reached in phases:
            def absorb(n, failed, status, plan_fn=plan_fn):
                (failures if failed else successes).append(RunRecord(
                    index=len(failures) + len(successes), status=status,
                    failed=failed, plan=plan_fn(n)))

            with obs.span("campaign." + phase):
                stream = CampaignStream(unit, plan_fn, "campaign." + phase,
                                        executor=executor)
                stop_reason = stream.consume(
                    absorb, until=quota_reached,
                    limit=limit - len(failures) - len(successes),
                ) or stop_reason
    attempts = len(failures) + len(successes)
    obs.counter("campaign.attempts").inc(attempts)

    shortfall = None
    short = (len(failures) < want_failures
             or len(successes) < want_successes)
    if short:
        shortfall = ShortfallInfo(
            workload.name, want_failures, len(failures),
            want_successes, len(successes), attempts, limit,
        )
        if stop_reason is None:
            # A genuine shortfall; a budget/deadline stop is expected
            # degradation and reports through ``partial`` instead.
            obs.counter("campaign.shortfalls").inc()
            detail = _executor_detail(executor)
            if on_shortfall == "raise":
                raise CampaignShortfallError(*_astuple(shortfall),
                                             detail=detail)
            if on_shortfall == "warn":
                warnings.warn(
                    CampaignShortfallWarning(*_astuple(shortfall),
                                             detail=detail),
                    stacklevel=2)
        else:
            obs.counter("campaign.budget_stops").inc()

    result = CampaignResult(
        failures=failures[:want_failures] if want_failures else failures,
        successes=successes[:want_successes] if want_successes
        else successes,
        attempts=attempts,
        shortfall=shortfall,
        executor_stats=getattr(executor, "stats", None),
        obs=obs,
        partial=stop_reason,
    )
    get_ledger().record_campaign(workload=workload, result=result,
                                 backend=config.backend)
    return result


def _astuple(info):
    return (info.workload_name, info.want_failures, info.got_failures,
            info.want_successes, info.got_successes, info.attempts,
            info.limit)


def _executor_detail(executor):
    """Execution-layer context for a shortfall message, or ``None``.

    When the executor recorded task errors, a shortfall is likely
    infrastructure, not workload behaviour — say so and show the last
    preserved error so nobody has to rerun with a debugger attached.
    """
    stats = getattr(executor, "stats", None)
    resilience = getattr(stats, "resilience", None)
    if resilience is None or not resilience.task_errors:
        return None
    last = resilience.task_errors[-1]
    return ("%d executor task error(s) recorded; last (%s): %s"
            % (len(resilience.task_errors), last["stage"], last["error"]))


# ----------------------------------------------------------------------
# The campaign engine
# ----------------------------------------------------------------------

class CampaignStream:
    """One quota-driven stream of campaign runs: the campaign engine.

    Every campaign in the repository — :func:`run_campaign`, the
    LBRA/LCRA failing and passing phases, the CBI-family baselines — is
    the plan stream ``plan_fn(start), plan_fn(start + 1), ...`` consumed
    in plan order until the caller's quota is met, its attempt limit is
    reached, or the active campaign budget runs out.  The stream owns
    everything those campaigns share:

    * **dispatch** — in-process, or on *executor*, which speculates
      ahead on its pool but yields in plan order, so the stopping
      decisions replay the sequential logic exactly;
    * **the checkpoint journal** — with a session active, journaled
      outcomes replay for free (the plan stream is deterministic, so
      record k *is* the outcome of ``plan_fn(k)``) and every fresh
      outcome is appended, making the stream resumable after a crash
      at any point;
    * **the budget** — fresh runs are charged, replays are free, and
      exhaustion ends the stream with its reason;
    * **supervisor heartbeats** and the ``campaign.runs_failed`` /
      ``campaign.runs_succeeded`` counters.

    *unit* is the unit of work (:class:`PlainRuns` or
    :class:`BaselineRuns`): how one plan executes in-process or on an
    executor, and what value it yields.  *name* labels the journal;
    its fingerprint covers *name*, *start*, and ``unit.token()``.
    """

    def __init__(self, unit, plan_fn, name, *, start=0, executor=None):
        self.unit = unit
        self.plan_fn = plan_fn
        self.name = name
        self.start = start
        self.executor = executor
        #: runs consumed so far (replayed plus fresh)
        self.consumed = 0

    def consume(self, absorb, *, until, limit):
        """Feed runs to ``absorb(n, failed, value)`` in plan order.

        *n* counts the runs this stream consumed before this one.
        Stops before the next run once ``until()`` holds or *limit* runs
        were consumed.  Returns the budget's stop reason
        (``"run-budget"``/``"deadline"``) when it cut the stream short,
        ``None`` otherwise.
        """
        obs = get_obs()
        budget = _checkpoint.get_budget()
        supervisor = _checkpoint.get_supervisor()
        session = _checkpoint.get_session()
        journal = None
        replay = []
        if session is not None:
            journal = session.journal(
                self.name, _checkpoint.stream_fingerprint(
                    self.name, self.start, *self.unit.token()))
            replay = journal.replay()
        cursor = replay[-1]["k"] + 1 if replay else self.start
        fresh = None
        reason = None
        try:
            while self.consumed < limit and not until():
                if self.consumed < len(replay):
                    record = replay[self.consumed]
                    failed, value = record["failed"], record["status"]
                else:
                    reason = budget.exhausted()
                    if reason is not None:
                        break
                    if fresh is None:
                        fresh = self._fresh(cursor)
                    k, value = next(fresh)
                    failed = self.unit.failed(value)
                    budget.charge()
                    if journal is not None:
                        journal.append(k, failed, value)
                supervisor.beat("campaign")
                obs.counter("campaign.runs_failed" if failed
                            else "campaign.runs_succeeded").inc()
                absorb(self.consumed, failed, value)
                self.consumed += 1
        finally:
            if fresh is not None:
                fresh.close()
            if journal is not None:
                journal.close()
        return reason

    def _fresh(self, cursor):
        """Yield ``(k, value)`` for fresh executions from plan *cursor*."""
        if self.executor is None:
            for k in itertools.count(cursor):
                yield k, self.unit.execute(self.plan_fn(k), k)
        else:
            plans = ((self.plan_fn(k), k) for k in itertools.count(cursor))
            yield from zip(itertools.count(cursor),
                           self.unit.dispatch(self.executor, plans))


class PlainRuns:
    """Unit of work of a plain run: a plan executes to its ExitStatus."""

    def __init__(self, program, workload, config):
        self.program = program
        self.workload = workload
        self.config = config

    def token(self):
        return (_executor.fingerprint_program(self.program),
                repr(self.config), _checkpoint.workload_token(self.workload))

    def execute(self, plan, _k):
        return run_program(
            self.program,
            args=plan.args,
            scheduler=plan.make_scheduler(),
            config=self.config,
            max_steps=plan.max_steps,
            globals_setup=plan.globals_setup,
        )

    def dispatch(self, executor, plans):
        runs = executor.iter_runs(
            self.program, (plan for plan, _k in plans), self.config)
        for _plan, result in runs:
            yield result.status

    def failed(self, status):
        return self.workload.is_failure(status)


class BaselineRuns:
    """Unit of work of a baseline run: a plan executes to its delta.

    The value is the per-run counter/predicate delta dict of
    :func:`~repro.runtime.executor._baseline_execute`, whichever way the
    run was executed (in-process on the tool itself, on a pool worker,
    from the run cache, or replayed from the journal); the tool applies
    it with its ``_absorb``.  Plan *k* runs with run seed *k*.
    """

    def __init__(self, tool):
        self.tool = tool

    def token(self):
        return (_executor.fingerprint_tool(self.tool),)

    def execute(self, plan, k):
        return _executor._baseline_execute(self.tool, plan, k)

    def dispatch(self, executor, plans):
        for _seed, result in executor.iter_baseline_runs(self.tool, plans):
            yield result.delta

    @staticmethod
    def failed(delta):
        return delta["failed"]
