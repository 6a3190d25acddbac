"""Write-ahead job journal: durable job state for the daemon.

Before this module existed, every job's state lived only in the
daemon's memory: a crash or SIGKILL silently lost every queued and
running job.  :class:`JobWAL` is the fix -- an append-only JSONL
journal in the service state directory
(``<cache_dir>/service/wal.jsonl``) that records every submission and
every state transition **before** the daemon acknowledges it, each
append flushed and fsync'd so an acknowledged job survives the
process.

Record schema (one JSON object per line)::

    {"op": "submit", "job": "j-00042-000001", "ts": 1754380800.1,
     "spec": {"experiments": [...], "tenant": "alice", ...}}
    {"op": "state", "job": "j-00042-000001", "state": "running",
     "ts": 1754380800.4, "reason": null, "recovery_attempts": 0}

Recovery is :mod:`repro.journal`'s, as for every journal here:
:meth:`JobWAL.replay` skips torn, interleaved or invalid lines (a
writer killed mid-append costs that one line, never the journal),
returning per-job :class:`WalEntry` state in original arrival order.
The daemon uses it on startup to rebuild the job table: still-queued
jobs are re-admitted in priority/arrival order, jobs that were
``running`` when the process died are *orphans* and are requeued with
a bounded ``recovery_attempts`` counter, and terminal jobs become
state-only stubs (their in-memory results are gone, their outcome is
not).

:meth:`JobWAL.compact` atomically and durably rewrites the journal down
to the live set (plus a bounded tail of terminal stubs) so the WAL does
not grow without bound across restarts.  It is the one retention rule
for a job's state: the per-job files next to the WAL (event log,
profile) of every job it drops are deleted with it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

from repro import journal
from repro.errors import ReproError
from repro.obs import add_counter, wall_now
from repro.service.jobs import JOB_QUEUED, JOB_STATES, JobSpec, TERMINAL_STATES

#: WAL record operations.
OP_SUBMIT = "submit"
OP_STATE = "state"

#: Default file name under the service state directory.
WAL_FILENAME = "wal.jsonl"

#: Per-job files next to the WAL, named ``<job id><suffix>``.
EVENTS_SUFFIX = ".events.jsonl"
PROFILE_SUFFIX = ".profile.txt"
JOB_FILE_SUFFIXES = (EVENTS_SUFFIX, PROFILE_SUFFIX)


def _submit_record(job_id: str, spec: JobSpec, submitted_at: float) -> dict:
    return {"op": OP_SUBMIT, "job": job_id, "ts": submitted_at,
            "spec": spec.to_json_dict()}


def _state_record(job_id: str, state: str, reason: str | None,
                  error: str | None, recovery_attempts: int) -> dict:
    record = {"op": OP_STATE, "job": job_id, "ts": wall_now(),
              "state": state, "recovery_attempts": recovery_attempts}
    if reason is not None:
        record["reason"] = reason
    if error is not None:
        record["error"] = error
    return record


@dataclass
class WalEntry:
    """One job's state as reconstructed from the journal."""

    job_id: str
    spec: JobSpec
    submitted_at: float
    state: str = JOB_QUEUED
    reason: str | None = None
    error: str | None = None
    recovery_attempts: int = 0
    #: Arrival index from the submit record's position in the journal;
    #: recovery re-admits queued jobs in this order within a priority.
    arrival: int = 0

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    @property
    def orphaned(self) -> bool:
        """The job was mid-run when the writing process died."""
        return self.state == "running"


@dataclass
class ReplayReport:
    """What one :meth:`JobWAL.replay` pass reconstructed."""

    entries: dict[str, WalEntry] = field(default_factory=dict)
    #: Lines lost to truncation or interleaving (a torn final line from
    #: a killed writer is the expected case).
    skipped: int = 0
    #: ``state`` records naming a job with no surviving submit record.
    dangling: int = 0

    @property
    def live(self) -> list[WalEntry]:
        """Non-terminal jobs in arrival order."""
        return [entry for entry in self.entries.values()
                if not entry.terminal]

    @property
    def orphans(self) -> list[WalEntry]:
        return [entry for entry in self.entries.values()
                if entry.orphaned]


class JobWAL:
    """Append-only, fsync'd, truncation-tolerant job state journal."""

    def __init__(self, path: Path | str) -> None:
        self.path = Path(path)
        #: Appends that failed at the OS level (counted, never raised:
        #: a read-only state dir must degrade durability, not service).
        self.write_errors = 0

    def job_file(self, job_id: str, suffix: str) -> Path:
        """Path of one of a job's per-job files (see ``JOB_FILE_SUFFIXES``)."""
        return self.path.parent / f"{job_id}{suffix}"

    # -- appends ------------------------------------------------------

    def _append(self, record: dict) -> bool:
        try:
            journal.append(self.path, [journal.encode(record)],
                           durable=True)
        except OSError:
            self.write_errors += 1
            add_counter("wal.write_errors")
            return False
        return True

    def log_submit(self, job_id: str, spec: JobSpec,
                   submitted_at: float | None = None) -> bool:
        """Journal a submission; call **before** acknowledging it."""
        return self._append(_submit_record(
            job_id, spec,
            wall_now() if submitted_at is None else submitted_at))

    def log_state(self, job_id: str, state: str, *,
                  reason: str | None = None,
                  error: str | None = None,
                  recovery_attempts: int = 0) -> bool:
        """Journal a state transition (queued/running/terminal)."""
        return self._append(_state_record(
            job_id, state, reason, error, recovery_attempts))

    # -- recovery -----------------------------------------------------

    def replay(self) -> ReplayReport:
        """Rebuild per-job state from the journal, tolerating tears.

        A line that does not parse as JSON, is not an object, or
        carries a malformed spec/state is counted in ``skipped`` and
        dropped.  A ``state`` record whose submit line was lost is
        counted in ``dangling``.  A missing WAL is empty; one that
        cannot be read raises :class:`~repro.errors.ReproError`, as
        starting empty would let the next compaction overwrite it.
        """
        report = ReplayReport()
        try:
            _, report.skipped = journal.replay(
                self.path, lambda record: self._apply(record, report))
        except OSError as exc:
            raise ReproError(
                f"cannot read job WAL {self.path}: {exc}") from exc
        return report

    @staticmethod
    def _apply(record: dict, report: ReplayReport) -> None:
        op = record["op"]
        job_id = str(record["job"])
        if op == OP_SUBMIT:
            spec = JobSpec.from_json_dict(record["spec"])
            report.entries[job_id] = WalEntry(
                job_id=job_id,
                spec=spec,
                submitted_at=float(record["ts"]),
                arrival=len(report.entries),
            )
            return
        if op == OP_STATE:
            entry = report.entries.get(job_id)
            if entry is None:
                report.dangling += 1
                return
            state = str(record["state"])
            if state not in JOB_STATES:
                raise ValueError(f"unknown WAL state {state!r}")
            attempts = int(record.get("recovery_attempts", 0))
            entry.state = state
            entry.reason = record.get("reason")
            entry.error = record.get("error")
            entry.recovery_attempts = max(entry.recovery_attempts,
                                          attempts)
            return
        raise ValueError(f"unknown WAL op {op!r}")

    # -- compaction ---------------------------------------------------

    def compact(self, entries: Iterable[WalEntry], *,
                keep_terminal: int = 256) -> int:
        """Atomically rewrite the journal down to the given entries.

        Live (non-terminal) entries are always kept; terminal stubs are
        capped at the ``keep_terminal`` most recent so the WAL stays
        bounded across restarts.  Each kept entry becomes one submit
        line plus (when not freshly queued) one state line; each
        dropped entry's per-job files are deleted once the new journal
        is in place.  Returns the number of entries written; on any I/O
        error the existing journal and every file are left untouched.
        """
        ordered = sorted(entries, key=lambda entry: entry.arrival)
        terminal = [entry for entry in ordered if entry.terminal]
        dropped = (terminal[:max(0, len(terminal) - keep_terminal)]
                   if keep_terminal >= 0 else [])
        drop = {id(entry) for entry in dropped}
        lines: list[str] = []
        kept = 0
        for entry in ordered:
            if id(entry) in drop:
                continue
            lines.append(journal.encode(_submit_record(
                entry.job_id, entry.spec, entry.submitted_at)))
            if entry.state != JOB_QUEUED or entry.recovery_attempts:
                lines.append(journal.encode(_state_record(
                    entry.job_id, entry.state, entry.reason,
                    entry.error, entry.recovery_attempts)))
            kept += 1
        try:
            journal.rewrite(self.path, lines)
        except OSError:
            self.write_errors += 1
            add_counter("wal.write_errors")
            return 0
        for entry in dropped:
            for suffix in JOB_FILE_SUFFIXES:
                try:
                    self.job_file(entry.job_id, suffix).unlink(
                        missing_ok=True)
                except OSError:
                    pass  # a stray file costs disk, never the WAL
        return kept
