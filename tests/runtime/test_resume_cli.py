"""Resume-equivalence chaos tests: kill -9 mid-campaign, resume, diff.

The durable-campaign contract under test, end to end through the real
CLI in subprocesses: a run SIGKILLed (``!kill`` fault modifier) at any
registered fault site, then resumed with ``repro resume``, produces
**byte-identical** stdout and identical ledger entry ids to a run that
was never interrupted — at any ``--jobs`` value, on either VM backend,
and for the CBI-family baselines as well as LBRA/LCRA.  SIGTERM exits
with the distinct resumable code and prints the resume hint.

Every CLI invocation runs in its own session; its process group is
killed and checked empty afterwards, so pool workers orphaned by a
chaos kill never outlive the test.
"""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.obs.ledger import Ledger
from repro.runtime import resilience
from repro.runtime.checkpoint import RESUMABLE_EXIT_CODE, CheckpointJournal
from repro.runtime.resilience import CRASH_EXIT_CODE

from tests.runtime.test_cli import run_cli

REPO = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
SRC = os.path.join(REPO, "src")


class _Result:
    def __init__(self, returncode, stdout, stderr):
        self.returncode = returncode
        self.stdout = stdout
        self.stderr = stderr


def _repro(args, cwd, timeout=120):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env.pop(resilience.FAULTS_ENV, None)
    env.pop(resilience.FAULTS_STATE_ENV, None)
    # Output goes to files, not pipes: a chaos run dies via os._exit
    # while its pool workers still hold the inherited stdout/stderr
    # descriptors, and reading a pipe would block until they notice.
    out_path = os.path.join(cwd, ".test-stdout")
    err_path = os.path.join(cwd, ".test-stderr")
    with open(out_path, "w") as out, open(err_path, "w") as err:
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro"] + list(args),
            cwd=cwd, env=env, stdout=out, stderr=err,
            start_new_session=True,
        )
        try:
            returncode = proc.wait(timeout=timeout)
        finally:
            _kill_group(proc.pid)
    with open(out_path) as handle:
        stdout = handle.read()
    with open(err_path) as handle:
        stderr = handle.read()
    return _Result(returncode, stdout, stderr)


def _live_group_members(pgid):
    """Pids of the live (non-zombie) processes in process group *pgid*."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open("/proc/%s/stat" % entry) as handle:
                # After the parenthesized command: state, ppid, pgrp, ...
                fields = handle.read().rpartition(")")[2].split()
        except OSError:
            continue
        if fields[0] != "Z" and int(fields[2]) == pgid:
            members.append(int(entry))
    return members


def _kill_group(pgid, timeout=10.0):
    """SIGKILL what is left of the CLI's process group; assert it is gone.

    A chaos kill exits the CLI with ``os._exit`` while its pool workers
    are still alive; they share the CLI's process group.
    """
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    deadline = time.monotonic() + timeout
    while _live_group_members(pgid) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert _live_group_members(pgid) == [], \
        "processes of group %d survived" % pgid


def _stable_stdout(text):
    """Stdout minus wall-clock noise: the executor statistics block."""
    lines = []
    for line in text.splitlines(keepends=True):
        if "Campaign executor statistics" in line:
            break
        lines.append(line)
    return "".join(lines)


def _entry_ids(ledger_dir):
    return sorted({entry["entry_id"]
                   for entry in Ledger(str(ledger_dir)).entries()})


def _kill_resume_roundtrip(tmp_path, argv, site_spec):
    """Run *argv* clean, then chaos-killed + resumed; return both sides.

    Returns ``None`` when the fault site was never reached (the chaos
    run finished normally) — the caller skips.  A ``metrics.json``
    written by the clean run is kept as ``metrics-clean.json``.
    """
    clean_ledger = tmp_path / "ledger-clean"
    chaos_ledger = tmp_path / "ledger-chaos"
    ckpt = tmp_path / "ck"

    clean = _repro(argv + ["--ledger-dir", str(clean_ledger)],
                   cwd=str(tmp_path))
    assert clean.returncode == 0, clean.stderr
    if (tmp_path / "metrics.json").exists():
        os.replace(tmp_path / "metrics.json",
                   tmp_path / "metrics-clean.json")

    chaos = _repro(
        argv + ["--ledger-dir", str(chaos_ledger),
                "--checkpoint", "--checkpoint-dir", str(ckpt),
                "--inject-faults", site_spec],
        cwd=str(tmp_path))
    if chaos.returncode == 0:
        return None          # site not on this command's path
    assert chaos.returncode == CRASH_EXIT_CODE, \
        "expected kill at %s, got rc=%d\n%s" % (
            site_spec, chaos.returncode, chaos.stderr)

    # The session manifest stored --ledger-dir (it is not a volatile
    # flag), so the re-dispatched command writes to the chaos ledger.
    resumed = _repro(
        ["resume", "--last", "--checkpoint-dir", str(ckpt)],
        cwd=str(tmp_path))
    assert resumed.returncode == 0, resumed.stderr
    return clean, resumed, clean_ledger, chaos_ledger


# ----------------------------------------------------------------------
# Every registered fault site, sequential path
# ----------------------------------------------------------------------

@pytest.mark.parametrize("site", sorted(resilience.FAULT_SITES))
def test_kill_at_every_site_then_resume_is_byte_identical(tmp_path, site):
    argv = ["diagnose", "sort", "--runs", "3"]
    result = _kill_resume_roundtrip(tmp_path, argv, site + "!kill:1")
    if result is None:
        pytest.skip("site %s not reached by sequential diagnose" % site)
    clean, resumed, clean_ledger, chaos_ledger = result
    assert resumed.stdout == clean.stdout
    assert _entry_ids(chaos_ledger) == _entry_ids(clean_ledger)


# ----------------------------------------------------------------------
# Jobs and backend matrix
# ----------------------------------------------------------------------

def _counters(path):
    """Counter totals of a ``--metrics-out`` dump."""
    with open(path) as handle:
        counters = json.load(handle)["counters"]
    return {name: summary["total"] for name, summary in counters.items()}


@pytest.mark.parametrize("backend", ["reference", "threaded"])
@pytest.mark.parametrize("jobs", ["1", "4"])
def test_kill_resume_across_jobs_and_backends(tmp_path, jobs, backend):
    argv = ["diagnose", "sort", "--runs", "12",
            "--jobs", jobs, "--backend", backend,
            "--metrics-out", "metrics.json"]
    # Killed two records into the second group commit, as in the
    # baseline cases: the first batch is on disk, so the resume replays.
    skip = CheckpointJournal.FLUSH_EVERY + 2
    result = _kill_resume_roundtrip(
        tmp_path, argv, "checkpoint-write-torn!kill:1:%d" % skip)
    assert result is not None, "checkpoint-write-torn never reached"
    clean, resumed, clean_ledger, chaos_ledger = result
    # --jobs stdout includes wall-clock executor statistics; everything
    # above that block is the diagnosis itself and must match exactly.
    assert _stable_stdout(resumed.stdout) == _stable_stdout(clean.stdout)
    assert _entry_ids(chaos_ledger) == _entry_ids(clean_ledger)
    replayed = _counters(tmp_path / "metrics.json").get(
        "checkpoint.replayed", 0)
    assert replayed == CheckpointJournal.FLUSH_EVERY


# ----------------------------------------------------------------------
# CBI-family baselines
# ----------------------------------------------------------------------



@pytest.mark.parametrize("tool,bug", [("cbi", "squid1"),
                                      ("cci", "mysql1"),
                                      ("pbi", "apache4")])
def test_baseline_kill_resume_runs_only_the_missing_runs(tmp_path, tool,
                                                         bug):
    argv = ["diagnose", bug, "--tool", tool, "--runs", "12",
            "--metrics-out", "metrics.json"]
    # Killed two records into the second group commit: the first
    # batch is on disk, so the resume has runs to replay.
    skip = CheckpointJournal.FLUSH_EVERY + 2
    result = _kill_resume_roundtrip(
        tmp_path, argv, "checkpoint-write-torn!kill:1:%d" % skip)
    assert result is not None, "%s campaign never journaled" % tool
    clean, resumed, clean_ledger, chaos_ledger = result
    assert resumed.stdout == clean.stdout
    assert _entry_ids(chaos_ledger) == _entry_ids(clean_ledger)
    before = _counters(tmp_path / "metrics-clean.json")
    after = _counters(tmp_path / "metrics.json")
    replayed = after.get("checkpoint.replayed", 0)
    assert replayed == CheckpointJournal.FLUSH_EVERY
    assert replayed + after["machine.runs"] == before["machine.runs"]


# ----------------------------------------------------------------------
# Experiment driver
# ----------------------------------------------------------------------

def test_experiment_kill_resume_is_byte_identical(tmp_path):
    argv = ["experiment", "table5"]
    result = _kill_resume_roundtrip(tmp_path, argv,
                                    "ledger-write-torn!kill:1")
    if result is None:
        pytest.skip("ledger-write-torn not reached by table5")
    clean, resumed, clean_ledger, chaos_ledger = result
    assert resumed.stdout == clean.stdout
    assert _entry_ids(chaos_ledger) == _entry_ids(clean_ledger)


# ----------------------------------------------------------------------
# Signals and the resume command surface
# ----------------------------------------------------------------------

def test_sigterm_exits_resumable_with_hint(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "diagnose", "sort",
         "--runs", "500", "--no-ledger",
         "--checkpoint", "--checkpoint-dir", str(tmp_path / "ck")],
        cwd=str(tmp_path), env=env,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    time.sleep(1.0)
    proc.send_signal(signal.SIGTERM)
    _out, err = proc.communicate(timeout=60)
    if proc.returncode == 0:
        pytest.skip("campaign finished before the signal landed")
    assert proc.returncode == RESUMABLE_EXIT_CODE, err
    assert "resume with" in err
    assert "repro resume" in err


def test_resume_lists_and_rejects_unknown_sessions(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out = run_cli("resume", "--list",
                        "--checkpoint-dir", str(tmp_path / "ck"))
    assert code == 0
    assert "no resumable sessions" in out

    code, out = run_cli("resume",
                        "--checkpoint-dir", str(tmp_path / "ck"))
    assert code == 1

    code, out = run_cli("resume", "deadbeef",
                        "--checkpoint-dir", str(tmp_path / "ck"))
    assert code == 1
    assert "no checkpoint session matching" in out


def test_completed_checkpoint_session_is_removed(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    ckpt = tmp_path / "ck"
    code, _out = run_cli("diagnose", "sort", "--runs", "2", "--no-ledger",
                         "--checkpoint", "--checkpoint-dir", str(ckpt))
    assert code == 0
    # The invocation completed, so its journals are spent and removed.
    code, out = run_cli("resume", "--list", "--checkpoint-dir", str(ckpt))
    assert code == 0
    assert "no resumable sessions" in out
