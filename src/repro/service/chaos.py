"""Service chaos harness: SIGKILL the daemon mid-sweep, prove recovery.

``repro chaos --service`` (CI's ``service-recovery`` job) drives a
real daemon subprocess through the crash the WAL exists for:

1. start a daemon over a fresh state dir and submit several jobs with
   idempotency keys (one dispatcher, so most stay queued);
2. **SIGKILL** the daemon the moment a job is observed running -- no
   drain, no flush, exactly what a crash or OOM kill looks like;
3. snapshot what the dead daemon had acknowledged: job ids and states,
   stored result keys, and the run-journal length;
4. restart a daemon **over the same state dir** and assert the
   recovery contract:

   * **zero lost jobs** -- every acknowledged job id is known to the
     recovered daemon, and every previously non-terminal job reaches a
     terminal state;
   * **no duplicate computation** -- no post-kill journal record
     recomputes (``cache_hit == false``) a key that was already stored
     before the kill;
   * **bounded recovery** -- no job's ``recovery_attempts`` exceeds the
     daemon's ``max_recovery_attempts``;
   * **idempotency survives the crash** -- resubmitting a pre-kill
     idempotency key returns the original job id;
   * a **warm verification job** over every experiment is served from
     the shared store at >= the required hit rate;
   * the recovered daemon **shuts down cleanly** (exit 0).

Exit codes mirror the fault-plan chaos harness: 0 when the contract
holds, 3 for a reliability bug, 2 for a driver/usage failure.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from repro.engine.records import RunJournal
from repro.service.client import ServiceClient, ServiceError
from repro.service.jobs import TERMINAL_STATES

EXIT_OK = 0
EXIT_DRIVER_ERROR = 2
EXIT_RELIABILITY_BUG = 3

#: Fast, cache-friendly default sweep split across several jobs.
DEFAULT_EXPERIMENTS = ("E-T1", "E-T2", "E-F1", "E-F2", "E-C1", "E-C2")
DEFAULT_JOB_SIZE = 2


@dataclass
class ServiceChaosReport:
    """Everything one service chaos run established."""

    submitted: int = 0
    #: job id -> state at the moment of the SIGKILL.
    pre_kill_states: dict[str, str] = field(default_factory=dict)
    #: acknowledged ids the recovered daemon no longer knows.
    lost: list[str] = field(default_factory=list)
    #: (job id, experiment id) recomputations of pre-stored keys.
    duplicates: list[tuple[str, str]] = field(default_factory=list)
    #: jobs the recovered daemon re-admitted as crash orphans.
    recovered: int = 0
    #: highest recovery_attempts observed on any job.
    max_recovery_attempts_seen: int = 0
    warm_hit_rate: float | None = None
    second_exit: int | None = None
    #: reliability-contract violations (drive exit 3).
    problems: list[str] = field(default_factory=list)
    #: harness/infrastructure failures (drive exit 2).
    driver_errors: list[str] = field(default_factory=list)

    @property
    def exit_code(self) -> int:
        if self.driver_errors:
            return EXIT_DRIVER_ERROR
        if self.problems:
            return EXIT_RELIABILITY_BUG
        return EXIT_OK

    @property
    def ok(self) -> bool:
        return self.exit_code == EXIT_OK

    def to_json_dict(self) -> dict:
        return {
            "submitted": self.submitted,
            "pre_kill_states": dict(self.pre_kill_states),
            "lost": list(self.lost),
            "duplicates": [list(pair) for pair in self.duplicates],
            "recovered": self.recovered,
            "max_recovery_attempts_seen":
                self.max_recovery_attempts_seen,
            "warm_hit_rate": self.warm_hit_rate,
            "second_exit": self.second_exit,
            "problems": list(self.problems),
            "driver_errors": list(self.driver_errors),
            "exit_code": self.exit_code,
        }

    def render(self) -> str:
        """Plain-text report for the CLI."""
        states = ", ".join(
            f"{job_id}={state}" for job_id, state
            in sorted(self.pre_kill_states.items())) or "none"
        lines = [
            f"submitted     {self.submitted} job(s) before SIGKILL",
            f"at kill       {states}",
            f"lost jobs     {len(self.lost)}"
            + (f": {self.lost}" if self.lost else ""),
            f"duplicates    {len(self.duplicates)}"
            + (f": {self.duplicates}" if self.duplicates else ""),
            f"recovered     {self.recovered} orphan(s) requeued, "
            f"max recovery_attempts {self.max_recovery_attempts_seen}",
            "warm verify   "
            + (f"{100.0 * self.warm_hit_rate:.0f}% served from the "
               "shared store" if self.warm_hit_rate is not None
               else "not run"),
            "clean stop    "
            + (f"exit {self.second_exit}"
               if self.second_exit is not None else "not reached"),
        ]
        for problem in self.problems:
            lines.append(f"PROBLEM       {problem}")
        for error in self.driver_errors:
            lines.append(f"DRIVER ERROR  {error}")
        verdict = {
            EXIT_OK: "crash absorbed: no job lost, no key recomputed",
            EXIT_RELIABILITY_BUG:
                "RELIABILITY BUG: recovery contract violated",
            EXIT_DRIVER_ERROR: "driver error: run not conclusive",
        }[self.exit_code]
        lines.append(f"verdict       {verdict} "
                     f"(exit {self.exit_code})")
        return "\n".join(lines)


def _start_daemon(state_dir: Path, log_path: Path,
                  dispatchers: int = 1,
                  extra_args: Sequence[str] = ()) -> subprocess.Popen:
    log_path.parent.mkdir(parents=True, exist_ok=True)
    # The daemon must import the same repro tree as this process,
    # even when the harness runs from a script that patched sys.path.
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[2])
    env["PYTHONPATH"] = (src + os.pathsep + env["PYTHONPATH"]
                         if env.get("PYTHONPATH") else src)
    with log_path.open("w", encoding="utf-8") as log:
        return subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--cache-dir", str(state_dir),
             "--dispatchers", str(dispatchers), *extra_args],
            stdout=log, stderr=subprocess.STDOUT, env=env)


def _wait_for_url(log_path: Path, deadline_s: float = 30.0) -> str:
    """The daemon announces its URL on stdout; poll the log for it."""
    deadline = time.monotonic() + deadline_s
    while time.monotonic() < deadline:
        if log_path.exists():
            for token in log_path.read_text(encoding="utf-8").split():
                if token.startswith("http://"):
                    return token
        time.sleep(0.1)
    raise RuntimeError(
        f"daemon did not announce a URL within {deadline_s:.0f}s "
        f"(log: {log_path})")


def _stored_keys(state_dir: Path) -> set[str]:
    """Experiment ids with a stored ``.rpc`` entry right now."""
    objects = state_dir / "objects"
    if not objects.is_dir():
        return set()
    return {path.name.partition("--")[0]
            for path in objects.glob("*.rpc")}


def run_service_chaos(
        state_dir: Path | str, *,
        experiment_ids: Sequence[str] | None = None,
        job_size: int = DEFAULT_JOB_SIZE,
        job_timeout_s: float = 300.0,
        min_hit_rate: float = 0.9,
        out=print) -> ServiceChaosReport:
    """SIGKILL a live daemon mid-sweep, restart it, verify recovery."""
    state_dir = Path(state_dir)
    report = ServiceChaosReport()
    ids = list(experiment_ids or DEFAULT_EXPERIMENTS)
    batches = [ids[i:i + max(1, job_size)]
               for i in range(0, len(ids), max(1, job_size))]
    journal = state_dir / "journal.jsonl"

    # -- phase 1: daemon up, jobs in, SIGKILL mid-run -----------------
    daemon = _start_daemon(state_dir, state_dir / "chaos-serve-1.log")
    killed = False
    try:
        url = _wait_for_url(state_dir / "chaos-serve-1.log")
        out(f"daemon up at {url} (pid {daemon.pid})")
        client = ServiceClient(url, timeout_s=30.0)
        keys: dict[str, str] = {}   # idempotency key -> job id
        for index, batch in enumerate(batches):
            key = f"chaos-{index}"
            job = client.submit(batch, tenant="chaos",
                                idempotency_key=key)
            keys[key] = job["id"]
        report.submitted = len(keys)
        out(f"submitted {report.submitted} job(s); waiting for one "
            "to start")

        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            jobs = {job["id"]: job["state"]
                    for job in client.jobs(tenant="chaos")}
            if ("running" in jobs.values()
                    or all(state in TERMINAL_STATES
                           for state in jobs.values())):
                break
            time.sleep(0.02)
        report.pre_kill_states = jobs
        pre_stored = _stored_keys(state_dir)
        pre_journal = len(RunJournal.recover(journal)[0])
        daemon.send_signal(signal.SIGKILL)
        daemon.wait(timeout=30.0)
        killed = True
        out(f"SIGKILLed daemon; at kill: {jobs}; "
            f"{len(pre_stored)} key(s) stored")
    except (ServiceError, RuntimeError, OSError,
            subprocess.TimeoutExpired) as exc:
        report.driver_errors.append(f"phase 1: {exc}")
        return report
    finally:
        if not killed and daemon.poll() is None:
            daemon.kill()
            daemon.wait(timeout=30.0)

    # -- phase 2: restart over the same state dir, verify -------------
    daemon = _start_daemon(state_dir, state_dir / "chaos-serve-2.log")
    try:
        url = _wait_for_url(state_dir / "chaos-serve-2.log")
        out(f"daemon restarted at {url} (pid {daemon.pid})")
        client = ServiceClient(url, timeout_s=30.0, retries=3)

        known = {job["id"]: job for job in client.jobs(tenant="chaos")}
        report.lost = sorted(set(report.pre_kill_states) - set(known))
        if report.lost:
            report.problems.append(
                f"{len(report.lost)} acknowledged job(s) lost across "
                f"the crash: {report.lost}")

        health = client.health()
        report.recovered = int(health.get("recovered", 0))
        if ("running" in report.pre_kill_states.values()
                and report.recovered == 0):
            report.problems.append(
                "a job was running at SIGKILL but the recovered "
                "daemon reports no orphan requeues")

        for job_id, state in report.pre_kill_states.items():
            if state in TERMINAL_STATES or job_id in report.lost:
                continue
            final = client.wait(job_id, timeout_s=job_timeout_s)
            attempts = int(final.get("recovery_attempts", 0))
            report.max_recovery_attempts_seen = max(
                report.max_recovery_attempts_seen, attempts)
            if final["state"] not in TERMINAL_STATES:
                report.problems.append(
                    f"{job_id} never reached a terminal state "
                    f"after recovery (is {final['state']})")
        stats = client.stats()
        bound = stats.get("recovery", {}).get(
            "max_recovery_attempts", 0)
        if report.max_recovery_attempts_seen > bound:
            report.problems.append(
                f"recovery_attempts {report.max_recovery_attempts_seen}"
                f" exceeds the configured bound {bound}")

        for record in RunJournal.recover(journal)[0][pre_journal:]:
            if (record.experiment_id in pre_stored and record.ok
                    and not record.cache_hit):
                report.duplicates.append(
                    ("post-restart", record.experiment_id))
        if report.duplicates:
            report.problems.append(
                f"{len(report.duplicates)} already-stored key(s) were "
                f"recomputed after the restart: {report.duplicates}")

        # idempotency keys must survive the crash (rebuilt from WAL)
        for index, batch in enumerate(batches):
            key = f"chaos-{index}"
            dedup = client.submit(batch, tenant="chaos",
                                  idempotency_key=key)
            if dedup["id"] != keys[key]:
                report.problems.append(
                    f"idempotency key {key!r} mapped to {dedup['id']} "
                    f"after restart, was {keys[key]}")
            elif not dedup.get("deduplicated"):
                report.problems.append(
                    f"idempotency key {key!r} was not deduplicated "
                    "after restart")

        warm = client.submit(ids, tenant="chaos-verify")
        final = client.wait(warm["id"], timeout_s=job_timeout_s)
        records = final.get("records", [])
        hits = sum(1 for record in records if record["cache_hit"])
        report.warm_hit_rate = hits / max(1, len(records))
        out(f"warm verify: {hits}/{len(records)} from the shared "
            f"store ({100.0 * report.warm_hit_rate:.0f}%)")
        if final["state"] != "done":
            report.problems.append(
                f"warm verification job finished {final['state']}: "
                f"{final.get('error')}")
        if report.warm_hit_rate < min_hit_rate:
            report.problems.append(
                f"warm hit rate {report.warm_hit_rate:.2f} below "
                f"required {min_hit_rate:.2f}")

        try:
            client.shutdown()
        except ServiceError:
            pass  # the daemon may close the socket mid-answer
        report.second_exit = daemon.wait(timeout=60.0)
        if report.second_exit != 0:
            report.problems.append(
                "recovered daemon exited "
                f"{report.second_exit}, expected 0")
    except (ServiceError, RuntimeError, OSError,
            subprocess.TimeoutExpired) as exc:
        report.driver_errors.append(f"phase 2: {exc}")
    finally:
        if daemon.poll() is None:
            daemon.kill()
            daemon.wait(timeout=30.0)
    return report
