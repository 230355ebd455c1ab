"""Crash-safety for the run pipeline: fault injection, locks, policy.

The executor (PR 1) and the run ledger (PR 4) exist to carry diagnosis
evidence; this module makes them trustworthy *under* the failures they
record.  Three pieces:

* **Deterministic fault injection.**  :class:`FaultPlan` fires faults
  at named sites (see :data:`FAULT_SITES`) on exact, reproducible
  arrival numbers — "crash the first worker batch", "tear the second
  ledger append".  A plan activates programmatically
  (:func:`use_plan`), via the ``REPRO_FAULTS`` environment variable
  (``site[:times[:skip]]``, comma-separated), or via the CLI's
  ``--inject-faults`` flag.  With a shared *state directory*
  (``REPRO_FAULTS_STATE``) arrival counts are global across every
  process of an invocation — pool workers included — so
  ``worker-crash:1`` means "exactly one crash, then the retry
  succeeds"; without one, counts are per-process, so the same spec
  crashes every fresh worker and exercises dead-pool degradation
  instead.  ``skip`` may be ``?``, deriving a small deterministic
  offset from the plan seed and site name, so one seed shifts every
  site's firing point reproducibly.
* **Advisory file locking and atomic publication.**  :class:`FileLock`
  wraps ``fcntl.flock`` (no-op where ``fcntl`` is unavailable) and
  serializes the ledger's append+index transaction and the run cache's
  publish step, so concurrent CLI invocations interleave safely;
  :func:`atomic_write` publishes a whole file by temp file + rename,
  so readers never see a torn one.
* **Retry/backoff policy.**  :class:`ResiliencePolicy` bounds how the
  executor reacts to worker failures — per-dispatch timeout, retry
  count, exponential backoff, and the pool-restart budget after which
  it degrades to serial execution; :class:`ResilienceStats` is the
  observable record of what actually happened.

Instrumented production code calls :func:`fault_point` at each site.
With no active plan that is one module-global check — the chaos
harness costs ~nothing when idle (pinned by
``benchmarks/test_overhead.py``).
"""

import contextlib
import hashlib
import os
import sys
import tempfile
import time
from dataclasses import dataclass, field

try:                                    # POSIX only; no-op elsewhere
    import fcntl
except ImportError:                     # pragma: no cover (non-POSIX)
    fcntl = None

#: Environment variables driving cross-process fault injection.
FAULTS_ENV = "REPRO_FAULTS"
FAULTS_SEED_ENV = "REPRO_FAULTS_SEED"
FAULTS_STATE_ENV = "REPRO_FAULTS_STATE"
FAULTS_HANG_ENV = "REPRO_FAULTS_HANG_SECONDS"

#: Every injectable site, with what firing it does.
FAULT_SITES = {
    "worker-crash": "pool worker exits hard (kill -9 shape) before "
                    "executing its batch",
    "worker-hang": "pool worker sleeps past the dispatch timeout "
                   "before executing its batch",
    "task-error": "pool worker raises instead of executing its batch",
    "cache-write-torn": "run-cache disk write publishes a truncated "
                        "entry",
    "cache-write-error": "run-cache disk write raises OSError",
    "cache-read-error": "run-cache disk read raises OSError",
    "ledger-write-torn": "ledger append stops mid-line, as if killed "
                         "between write and newline",
    "ledger-write-error": "ledger append raises OSError",
    "index-write-error": "ledger index write raises OSError",
    "checkpoint-write-error": "checkpoint journal append raises OSError",
    "checkpoint-write-torn": "checkpoint journal append stops mid-line, "
                             "as if killed between write and newline",
    "checkpoint-read-error": "checkpoint journal load raises OSError "
                             "(the stream restarts from scratch)",
    "supervisor-stall": "the campaign supervisor treats the next "
                        "liveness sweep as stalled",
}

#: Sites that only make sense inside a pool worker process; elsewhere
#: (including the executor's in-process batch fallback) they are inert
#: and do not consume an arrival.
_WORKER_ONLY_SITES = frozenset(
    ("worker-crash", "worker-hang", "task-error"))

#: Exit code of an injected worker crash (recognizably not a signal).
CRASH_EXIT_CODE = 70

#: True in pool worker processes (set by the executor's initializer).
_IS_WORKER = False


class FaultSpecError(ValueError):
    """An ``--inject-faults`` / ``REPRO_FAULTS`` spec does not parse."""


class FaultError(OSError):
    """The error an ``*-error`` fault site raises when it fires."""

    def __init__(self, site):
        super().__init__("injected fault at site %r" % site)
        self.site = site


# ----------------------------------------------------------------------
# Advisory file locking
# ----------------------------------------------------------------------

class FileLock:
    """Advisory exclusive lock on *path* (``fcntl.flock``), blocking.

    Usable as a context manager and re-entrant per instance.  Where
    ``fcntl`` is unavailable the lock degrades to a no-op — single-
    process correctness never depends on it; it only serializes
    *concurrent invocations* sharing a directory.
    """

    def __init__(self, path):
        self.path = os.fspath(path)
        self._fd = None
        self._depth = 0

    def acquire(self):
        self._depth += 1
        if self._depth > 1 or fcntl is None:
            return
        os.makedirs(os.path.dirname(self.path) or ".", exist_ok=True)
        self._fd = os.open(self.path, os.O_RDWR | os.O_CREAT, 0o644)
        fcntl.flock(self._fd, fcntl.LOCK_EX)

    def release(self):
        self._depth -= 1
        if self._depth > 0 or self._fd is None:
            return
        try:
            fcntl.flock(self._fd, fcntl.LOCK_UN)
        finally:
            os.close(self._fd)
            self._fd = None

    def __enter__(self):
        self.acquire()
        return self

    def __exit__(self, *_exc):
        self.release()
        return False


def atomic_write(path, data):
    """Publish *data* (``bytes`` or ``str``) at *path* atomically.

    Writes a temp file in the target directory, then renames it over
    *path* (``os.replace``), so a concurrent reader sees the old file or
    the new one, never a torn write; the temp file is removed on failure.
    Raises ``OSError``; callers own their fault points, locking, and
    best-effort policy.
    """
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, temp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb" if isinstance(data, bytes) else "w") \
                as handle:
            handle.write(data)
        os.replace(temp_path, path)
    except BaseException:
        try:
            os.unlink(temp_path)
        except OSError:
            pass
        raise


# ----------------------------------------------------------------------
# Torn-tail recovery (shared by the ledger and checkpoint journals)
# ----------------------------------------------------------------------

def recover_jsonl_tail(path, quarantine_path, label="journal"):
    """Quarantine+truncate a torn trailing line of a JSONL file.

    Appends to these files are whole-line, so only the *last* line can
    be torn — the footprint of a process killed mid-write.  Scans a
    bounded tail chunk; when the file does not end in a newline, the
    fragment after the last newline moves to *quarantine_path* (never
    destroyed) and the file is truncated to the last complete line.
    Returns the quarantined fragment (``b""`` when the tail was clean).
    """
    try:
        with open(path, "rb+") as handle:
            handle.seek(0, os.SEEK_END)
            size = handle.tell()
            if size == 0:
                return b""
            chunk = min(size, 1 << 16)
            handle.seek(size - chunk)
            data = handle.read(chunk)
            if data.endswith(b"\n"):
                return b""
            cut = data.rfind(b"\n") + 1   # 0 when no newline in chunk
            fragment = data[cut:]
            with open(quarantine_path, "ab") as quarantine:
                quarantine.write(fragment.rstrip(b"\n") + b"\n")
            handle.truncate(size - len(data) + cut)
    except FileNotFoundError:
        return b""
    print("repro: warning: quarantined %d bytes of torn %s tail to %s"
          % (len(fragment), label, quarantine_path), file=sys.stderr)
    return fragment


# ----------------------------------------------------------------------
# Fault plans
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class _SiteSpec:
    times: int                          # how many arrivals fire
    skip: int                           # arrivals to let pass first
    kill: bool = False                  # hard-exit instead of the
                                        # site's normal behaviour


def _seeded_skip(seed, site, bound=4):
    digest = hashlib.sha256(("%s|%s" % (seed, site)).encode()).hexdigest()
    return int(digest, 16) % bound


class FaultPlan:
    """A deterministic schedule of injected faults.

    ``sites`` maps a :data:`FAULT_SITES` name to a :class:`_SiteSpec`;
    arrival *n* (1-based, counted per site) fires when
    ``skip < n <= skip + times``.  With ``state_dir`` set, arrival
    counts live in locked files so every process of an invocation
    shares one schedule; otherwise counts are process-local.  Removing
    the state directory *retires* the plan — subsequent arrivals never
    fire — so a schedule ends with the session that created it rather
    than leaking into straggler processes.
    """

    def __init__(self, sites, seed=0, state_dir=None, hang_seconds=None):
        unknown = sorted(set(sites) - set(FAULT_SITES))
        if unknown:
            raise FaultSpecError(
                "unknown fault site(s) %s; known sites: %s" % (
                    ", ".join(repr(s) for s in unknown),
                    ", ".join(sorted(FAULT_SITES)),
                )
            )
        self.sites = dict(sites)
        self.seed = int(seed)
        self.state_dir = os.fspath(state_dir) if state_dir else None
        self.hang_seconds = (30.0 if hang_seconds is None
                             else float(hang_seconds))
        self._local_counts = {}
        self._lock = (FileLock(os.path.join(self.state_dir, ".lock"))
                      if self.state_dir else None)

    # -- construction ---------------------------------------------------

    @classmethod
    def parse(cls, spec, seed=0, state_dir=None, hang_seconds=None):
        """Parse ``"site[!kill][:times[:skip]],..."`` into a plan.

        ``times`` defaults to 1; ``skip`` defaults to 0, and the
        literal ``?`` derives it deterministically from the seed.  The
        ``!kill`` modifier turns the site into a hard process exit —
        "SIGKILL the moment execution reaches this site" — which is how
        the resume-equivalence chaos tests die mid-campaign at every
        registered site.
        """
        sites = {}
        for part in str(spec).split(","):
            part = part.strip()
            if not part:
                continue
            pieces = part.split(":")
            if len(pieces) > 3:
                raise FaultSpecError(
                    "bad fault spec %r (expected site[!kill]"
                    "[:times[:skip]])" % part)
            name, _, modifier = pieces[0].partition("!")
            if modifier not in ("", "kill"):
                raise FaultSpecError(
                    "bad fault modifier %r in %r (only '!kill' is "
                    "recognized)" % (modifier, part))
            try:
                times = int(pieces[1]) if len(pieces) > 1 else 1
                skip = (_seeded_skip(seed, name)
                        if len(pieces) > 2 and pieces[2] == "?"
                        else int(pieces[2]) if len(pieces) > 2 else 0)
            except ValueError:
                raise FaultSpecError(
                    "bad fault spec %r (times/skip must be integers, "
                    "skip may be '?')" % part) from None
            sites[name] = _SiteSpec(times=times, skip=skip,
                                    kill=(modifier == "kill"))
        if not sites:
            raise FaultSpecError("empty fault spec %r" % (spec,))
        return cls(sites, seed=seed, state_dir=state_dir,
                   hang_seconds=hang_seconds)

    @classmethod
    def from_env(cls, environ=None):
        """The plan ``$REPRO_FAULTS`` describes, or ``None``."""
        environ = os.environ if environ is None else environ
        spec = environ.get(FAULTS_ENV)
        if not spec:
            return None
        return cls.parse(
            spec,
            seed=int(environ.get(FAULTS_SEED_ENV, "0") or 0),
            state_dir=environ.get(FAULTS_STATE_ENV) or None,
            hang_seconds=environ.get(FAULTS_HANG_ENV) or None,
        )

    def describe_spec(self):
        """The ``site[!kill]:times:skip`` spec this plan round-trips to."""
        return ",".join(
            "%s%s:%d:%d" % (name, "!kill" if spec.kill else "",
                            spec.times, spec.skip)
            for name, spec in sorted(self.sites.items())
        )

    def to_env(self):
        """Environment entries that reproduce this plan in a child."""
        env = {FAULTS_ENV: self.describe_spec(),
               FAULTS_SEED_ENV: str(self.seed),
               FAULTS_HANG_ENV: repr(self.hang_seconds)}
        if self.state_dir:
            env[FAULTS_STATE_ENV] = self.state_dir
        return env

    # -- arrival counting ------------------------------------------------

    def _arrival(self, site):
        if self.state_dir is None:
            count = self._local_counts.get(site, 0) + 1
            self._local_counts[site] = count
            return count
        if not os.path.isdir(self.state_dir):
            # The state directory delimits the schedule's lifetime:
            # whoever created it removes it when the chaos session ends,
            # retiring the plan.  A straggler process that inherited the
            # plan (say a pool worker draining a speculative batch) must
            # not recreate the directory and restart the count from
            # zero — that would re-arm a schedule that already fired.
            return None
        path = os.path.join(self.state_dir, site + ".count")
        with self._lock:
            try:
                with open(path) as handle:
                    count = int(handle.read().strip() or 0)
            except (FileNotFoundError, ValueError):
                count = 0
            count += 1
            with open(path, "w") as handle:
                handle.write(str(count))
        return count

    def should_fire(self, site):
        """Consume one arrival at *site*; True when the fault fires.

        Always False once the plan is retired (its state directory has
        been removed).
        """
        spec = self.sites.get(site)
        if spec is None:
            return False
        arrival = self._arrival(site)
        if arrival is None:
            return False
        return spec.skip < arrival <= spec.skip + spec.times


# ----------------------------------------------------------------------
# The active plan (observability pattern: module-level current)
# ----------------------------------------------------------------------

_UNSET = object()
_active = _UNSET


def active_plan():
    """The active :class:`FaultPlan`, lazily read from the environment.

    Returns ``None`` (and caches that) when no plan is installed and
    ``$REPRO_FAULTS`` is empty — the common case pays one global read.
    """
    global _active
    if _active is _UNSET:
        _active = FaultPlan.from_env()
    return _active


def install_plan(plan):
    """Install *plan* (or ``None``) as active; returns the previous."""
    global _active
    previous = None if _active is _UNSET else _active
    _active = plan
    return previous


def reset_plan_cache():
    """Forget the cached env lookup (tests change ``$REPRO_FAULTS``)."""
    global _active
    _active = _UNSET


@contextlib.contextmanager
def use_plan(plan):
    """Install *plan* and export it to ``os.environ`` for the duration.

    Exporting matters: pool workers are separate processes and read the
    plan from their environment, so chaos schedules cover the whole
    process tree of an invocation.
    """
    previous = install_plan(plan)
    saved = {name: os.environ.get(name)
             for name in (FAULTS_ENV, FAULTS_SEED_ENV, FAULTS_STATE_ENV,
                          FAULTS_HANG_ENV)}
    for name, value in plan.to_env().items():
        os.environ[name] = value
    try:
        yield plan
    finally:
        install_plan(previous)
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value


def mark_worker_process():
    """Pool-worker initializer: enables worker-only fault sites."""
    global _IS_WORKER
    _IS_WORKER = True


def fault_point(site):
    """One instrumented site; returns True when an injected fault fires.

    Behaviour by site class: ``worker-crash`` exits the process hard,
    ``worker-hang`` sleeps for the plan's hang duration, ``*-error``
    sites raise :class:`FaultError`, and torn-write sites return True
    so the caller performs the torn write itself.  A site scheduled
    with the ``!kill`` modifier hard-exits the process the moment it
    fires — the SIGKILL shape the resume chaos tests use at every
    registered site.  With no active plan this is a single global
    check.
    """
    plan = active_plan()
    if plan is None:
        return False
    if site in _WORKER_ONLY_SITES and not _IS_WORKER:
        return False
    if not plan.should_fire(site):
        return False
    from repro.obs import get_obs
    get_obs().counter("faults.injected").inc()
    print("repro: injected fault at %r" % site, file=sys.stderr)
    if plan.sites[site].kill:
        sys.stderr.flush()
        os._exit(CRASH_EXIT_CODE)
    if site == "worker-crash":
        os._exit(CRASH_EXIT_CODE)
    if site == "worker-hang":
        time.sleep(plan.hang_seconds)
        return True
    if site.endswith("-error"):
        raise FaultError(site)
    return True


def worker_entry_faults():
    """The fault points every pool-worker batch entry passes through."""
    fault_point("worker-crash")
    fault_point("worker-hang")
    fault_point("task-error")


# ----------------------------------------------------------------------
# Executor retry/backoff policy and its observable record
# ----------------------------------------------------------------------

@dataclass
class ResiliencePolicy:
    """How the executor reacts to worker failures.

    ``task_timeout`` is the per-dispatched-run wait budget — a batch of
    *n* runs is given ``n * task_timeout`` seconds before its worker is
    declared hung.  A failed dispatch is retried ``max_retries`` times
    with exponential backoff (``backoff_base * backoff_factor**k``),
    then executed in-process.  After ``max_pool_restarts`` pool
    replacements the executor stops using workers entirely and degrades
    to serial execution for the rest of its lifetime.
    """

    task_timeout: float = 60.0
    max_retries: int = 2
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    max_pool_restarts: int = 3

    def __post_init__(self):
        # Validate at construction: a zero/negative timeout silently
        # disables the hang detector, and negative retry/backoff values
        # turn the ladder into an infinite or time-travelling loop —
        # all far harder to debug downstream than a loud ValueError.
        if self.task_timeout is not None and self.task_timeout <= 0:
            raise ValueError(
                "task_timeout must be positive seconds (or None for no "
                "timeout), not %r" % (self.task_timeout,))
        for name in ("max_retries", "max_pool_restarts"):
            value = getattr(self, name)
            if value < 0:
                raise ValueError("%s must be >= 0, not %r"
                                 % (name, value))
        if self.backoff_base < 0:
            raise ValueError("backoff_base must be >= 0 seconds, not %r"
                             % (self.backoff_base,))
        if self.backoff_factor < 1:
            raise ValueError("backoff_factor must be >= 1, not %r"
                             % (self.backoff_factor,))

    @classmethod
    def from_env(cls, environ=None):
        environ = os.environ if environ is None else environ

        def _get(name, default, convert):
            raw = environ.get(name)
            return convert(raw) if raw else default

        return cls(
            task_timeout=_get("REPRO_TASK_TIMEOUT", 60.0, float),
            max_retries=_get("REPRO_MAX_RETRIES", 2, int),
            max_pool_restarts=_get("REPRO_MAX_POOL_RESTARTS", 3, int),
        )

    def backoff_seconds(self, attempt):
        """Backoff before retry *attempt* (1-based)."""
        return self.backoff_base * (self.backoff_factor ** (attempt - 1))


@dataclass
class ResilienceStats:
    """What the resilience layer actually did (all zero when healthy)."""

    retries: int = 0
    timeouts: int = 0
    broken_pools: int = 0
    pool_restarts: int = 0
    inline_fallbacks: int = 0
    degraded_serial: bool = False
    task_errors: list = field(default_factory=list)

    #: Bound on the retained task-error records (oldest dropped).
    MAX_TASK_ERRORS = 16

    @property
    def activity(self):
        """True when any failure handling happened at all."""
        return bool(self.retries or self.timeouts or self.broken_pools
                    or self.pool_restarts or self.inline_fallbacks
                    or self.degraded_serial or self.task_errors)

    def note_task_error(self, stage, error, traceback_text=None):
        """Record one task failure with its traceback preserved."""
        self.task_errors.append({
            "stage": stage,
            "error": error,
            "traceback": traceback_text,
        })
        del self.task_errors[:-self.MAX_TASK_ERRORS]

    def to_dict(self):
        return {
            "retries": self.retries,
            "timeouts": self.timeouts,
            "broken_pools": self.broken_pools,
            "pool_restarts": self.pool_restarts,
            "inline_fallbacks": self.inline_fallbacks,
            "degraded_serial": self.degraded_serial,
            "task_errors": len(self.task_errors),
            "last_error": (self.task_errors[-1]["error"]
                           if self.task_errors else None),
        }


__all__ = [
    "CRASH_EXIT_CODE",
    "FAULT_SITES",
    "FAULTS_ENV",
    "FAULTS_HANG_ENV",
    "FAULTS_SEED_ENV",
    "FAULTS_STATE_ENV",
    "FaultError",
    "FaultPlan",
    "FaultSpecError",
    "FileLock",
    "ResiliencePolicy",
    "ResilienceStats",
    "active_plan",
    "atomic_write",
    "fault_point",
    "install_plan",
    "mark_worker_process",
    "recover_jsonl_tail",
    "reset_plan_cache",
    "use_plan",
    "worker_entry_faults",
]
