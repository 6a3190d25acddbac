"""The write-ahead job journal: append, replay, tears, compaction."""

import json
import os
import stat
import sys
import threading

import pytest

from repro.service.jobs import (
    JOB_DONE,
    JOB_FAILED,
    JOB_QUEUED,
    JOB_RUNNING,
    JobSpec,
)
from repro.service.wal import JobWAL


@pytest.fixture()
def wal(tmp_path):
    return JobWAL(tmp_path / "service" / "wal.jsonl")


def test_replay_empty_or_missing_wal(wal):
    report = wal.replay()
    assert report.entries == {}
    assert report.skipped == 0
    assert report.orphans == []


def test_submit_and_state_round_trip(wal):
    spec = JobSpec(experiment_ids=("E-T1",), tenant="alice",
                   priority="high")
    wal.log_submit("j-1", spec, 123.0)
    wal.log_state("j-1", JOB_RUNNING)
    wal.log_state("j-1", JOB_DONE)

    report = wal.replay()
    entry = report.entries["j-1"]
    assert entry.state == JOB_DONE
    assert entry.terminal
    assert not entry.orphaned
    assert entry.spec.tenant == "alice"
    assert entry.spec.priority == "high"
    assert entry.submitted_at == 123.0


def test_replay_preserves_arrival_order(wal):
    for index in range(3):
        wal.log_submit(f"j-{index}", JobSpec())
    report = wal.replay()
    arrivals = [report.entries[f"j-{index}"].arrival
                for index in range(3)]
    assert arrivals == sorted(arrivals)


def test_running_job_is_an_orphan(wal):
    wal.log_submit("j-1", JobSpec())
    wal.log_state("j-1", JOB_RUNNING)
    report = wal.replay()
    assert [entry.job_id for entry in report.orphans] == ["j-1"]
    assert [entry.job_id for entry in report.live] == ["j-1"]


def test_torn_final_line_is_dropped_not_fatal(wal):
    wal.log_submit("j-1", JobSpec())
    wal.log_submit("j-2", JobSpec())
    with wal.path.open("a", encoding="utf-8") as handle:
        handle.write('{"op": "state", "job_id": "j-2", "sta')  # torn

    report = wal.replay()
    assert set(report.entries) == {"j-1", "j-2"}
    assert report.skipped == 1
    assert report.entries["j-2"].state == JOB_QUEUED


def test_submit_after_a_torn_first_submit_survives_replay(wal):
    """A torn line must not swallow the next, acknowledged, record."""
    wal.path.parent.mkdir(parents=True)
    wal.path.write_text('{"op": "submit", "job": "j-0", "sp')  # killed
    assert wal.replay().entries == {}

    assert wal.log_submit("j-1", JobSpec()) is True
    report = wal.replay()
    assert set(report.entries) == {"j-1"}
    assert report.skipped == 1


def test_invalid_spec_line_is_skipped_not_fatal(wal):
    wal.log_submit("j-1", JobSpec())
    with wal.path.open("a", encoding="utf-8") as handle:
        handle.write(json.dumps({"op": "submit", "job": "j-bad",
                                 "ts": 1.0,
                                 "spec": {"priority": "urgent"}}) + "\n")
    wal.log_submit("j-2", JobSpec())
    report = wal.replay()
    assert set(report.entries) == {"j-1", "j-2"}
    assert report.skipped == 1


def test_garbage_lines_are_counted_and_skipped(wal):
    wal.log_submit("j-1", JobSpec())
    with wal.path.open("a", encoding="utf-8") as handle:
        handle.write("not json at all\n")
        handle.write('{"op": "unknown-op", "job_id": "j-1"}\n')
        handle.write('{"op": "state", "job_id": "j-1", '
                     '"state": "no-such-state"}\n')
        # rejected whole: a bad field must not half-apply the record
        handle.write('{"op": "state", "job": "j-1", "state": "running", '
                     '"recovery_attempts": "many"}\n')
    report = wal.replay()
    assert report.skipped == 4
    assert report.entries["j-1"].state == JOB_QUEUED


def test_state_without_submit_is_dangling(wal):
    wal.log_state("j-ghost", JOB_RUNNING)
    report = wal.replay()
    assert report.entries == {}
    assert report.dangling == 1


def test_recovery_attempts_take_the_max_seen(wal):
    wal.log_submit("j-1", JobSpec())
    wal.log_state("j-1", JOB_QUEUED, recovery_attempts=2)
    wal.log_state("j-1", JOB_RUNNING, recovery_attempts=1)
    report = wal.replay()
    assert report.entries["j-1"].recovery_attempts == 2


def test_reason_and_error_survive_replay(wal):
    wal.log_submit("j-1", JobSpec())
    wal.log_state("j-1", JOB_FAILED, reason="deadline_exceeded",
                  error="deadline_s=1 exceeded")
    entry = wal.replay().entries["j-1"]
    assert entry.reason == "deadline_exceeded"
    assert entry.error == "deadline_s=1 exceeded"


def test_compaction_rewrites_one_record_pair_per_job(wal):
    wal.log_submit("j-1", JobSpec(experiment_ids=("E-T1",)))
    for _ in range(10):
        wal.log_state("j-1", JOB_RUNNING)
        wal.log_state("j-1", JOB_QUEUED, reason="stall",
                      recovery_attempts=1)
    before = wal.path.read_text(encoding="utf-8").count("\n")

    report = wal.replay()
    kept = wal.compact()
    assert kept == 1
    after = wal.path.read_text(encoding="utf-8").count("\n")
    assert after < before

    replayed = wal.replay().entries["j-1"]
    assert replayed.state == JOB_QUEUED
    assert replayed.reason == "stall"
    assert replayed.recovery_attempts == 1


def test_compaction_caps_terminal_history(wal):
    for index in range(8):
        wal.log_submit(f"j-{index}", JobSpec())
        wal.log_state(f"j-{index}", JOB_DONE)
    wal.log_submit("j-live", JobSpec())

    wal.compact(keep_terminal=3)
    report = wal.replay()
    assert "j-live" in report.entries  # live jobs never dropped
    terminal = [entry for entry in report.entries.values()
                if entry.terminal]
    assert len(terminal) == 3
    # the newest terminal jobs survive, the oldest go
    assert {entry.job_id for entry in terminal} == {
        "j-5", "j-6", "j-7"}


def test_freshly_queued_jobs_compact_to_submit_only(wal):
    wal.log_submit("j-1", JobSpec())
    wal.compact()
    lines = [json.loads(line) for line
             in wal.path.read_text(encoding="utf-8").splitlines()]
    assert [line["op"] for line in lines] == ["submit"]


def test_append_failure_is_counted_not_raised(wal, monkeypatch):
    wal.log_submit("j-1", JobSpec())

    def boom(*_args, **_kwargs):
        raise OSError("disk full")

    monkeypatch.setattr(os, "fsync", boom)
    assert wal.log_state("j-1", JOB_RUNNING) is False
    assert wal.write_errors == 1


def test_compaction_fsyncs_the_directory_after_the_rename(
        wal, monkeypatch):
    """Without the directory fsync a power loss can bring back the old
    WAL after later fsync'd appends went to the new one."""
    wal.log_submit("j-1", JobSpec())
    calls = []
    real_fsync, real_replace = os.fsync, os.replace

    def fsync(fd):
        kind = "dir" if stat.S_ISDIR(os.fstat(fd).st_mode) else "file"
        calls.append(f"fsync-{kind}")
        real_fsync(fd)

    def replace(src, dst):
        calls.append("replace")
        real_replace(src, dst)

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace)
    assert wal.compact() == 1
    assert calls == ["fsync-file", "replace", "fsync-dir"]


def test_appends_racing_compactions_lose_no_record(wal):
    """Four writers journal jobs to completion while a fifth thread
    compacts over and over: every job ends in the WAL or in a
    compaction's dropped list, never in neither, and the terminal
    count matches the journal."""
    dropped, errors = [], []
    writing = threading.Event()

    def writer(index):
        try:
            for serial in range(40):
                job_id = f"j-{index}-{serial}"
                wal.log_submit(job_id, JobSpec())
                wal.log_state(job_id, JOB_RUNNING)
                wal.log_state(job_id, JOB_DONE)
        except Exception as exc:  # surfaced by the assertion below
            errors.append(exc)

    def compactor():
        while writing.is_set():
            wal.compact(keep_terminal=5, on_drop=dropped.extend)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        writing.set()
        threads = [threading.Thread(target=writer, args=(index,))
                   for index in range(4)]
        compacting = threading.Thread(target=compactor)
        compacting.start()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        writing.clear()
        compacting.join(timeout=60.0)
    finally:
        sys.setswitchinterval(switch)
    assert not errors
    assert not any(thread.is_alive() for thread in threads + [compacting])
    report = wal.replay()
    assert report.dangling == 0
    assert all(entry.state == JOB_DONE for entry in report.entries.values())
    assert sorted(dropped + list(report.entries)) == sorted(
        f"j-{index}-{serial}" for index in range(4) for serial in range(40))
    assert wal.terminal == len(report.entries)
