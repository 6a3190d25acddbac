"""Crash recovery, watchdog supervision, and client resilience."""

import asyncio
import itertools
import json
import os
import shutil
import sys
import threading
import time
from pathlib import Path

import pytest

from repro import journal
from repro.analysis.experiments import EXPERIMENTS, Experiment
from repro.engine.cache import CLAIM_SUFFIX, ResultCache
from repro.errors import ReproError
from repro.engine import EngineConfig, run_experiments
from repro.obs import current_trace, logging_configured
from repro.reliability.backoff import BackoffPolicy
from repro.service import (
    ExperimentService,
    Job,
    JobEventLog,
    JobSpec,
    QueueConfig,
    QueueFullError,
    REASON_DEADLINE,
    REASON_RECOVERED,
    REASON_RECOVERY_EXHAUSTED,
    REASON_STALL,
    ServiceClient,
    ServiceConfig,
    ServiceError,
    ServiceServer,
    ServiceUnavailableError,
)
import repro.service.client as service_client
import repro.service.daemon as service_daemon
from repro.service.queue import AdmissionQueue
from repro.service.wal import JobWAL, WAL_FILENAME

from repro.service.jobs import (  # noqa: F401 (reason constants)
    JOB_DONE,
    JOB_FAILED,
    JOB_QUEUED,
    JOB_RUNNING,
)


def _inject(monkeypatch, experiment_id, runner):
    monkeypatch.setitem(
        EXPERIMENTS, experiment_id,
        Experiment(experiment_id, "injected test experiment",
                   "(test)", runner))


def _wal(tmp_path):
    return JobWAL(tmp_path / "store" / "service" / WAL_FILENAME)


def _service(tmp_path, **overrides):
    defaults = dict(port=0, cache_dir=tmp_path / "store",
                    executor="inline")
    defaults.update(overrides)
    return ExperimentService(ServiceConfig(**defaults))


# -- startup recovery from the WAL (no HTTP involved) -----------------


def test_submit_is_durable_before_acknowledgment(tmp_path):
    service = _service(tmp_path)
    job, created = service.submit(
        JobSpec(experiment_ids=("E-T1",), tenant="alice"))
    assert created

    report = _wal(tmp_path).replay()
    entry = report.entries[job.id]
    assert entry.state == JOB_QUEUED
    assert entry.spec.tenant == "alice"


def test_refused_submission_leaves_nothing_behind(tmp_path):
    """The queue admits before anything is journalled: a submission it
    refuses never reaches the table, the idempotency map, the WAL or
    the state dir, and a restarted daemon knows only the admitted
    job."""
    service = _service(tmp_path, queue=QueueConfig(max_depth=1))
    admitted, _ = service.submit(JobSpec(tenant="early"))
    with pytest.raises(QueueFullError):
        service.submit(JobSpec(tenant="late", idempotency_key="late"))
    assert set(service.jobs) == {admitted.id}
    assert "late" not in service._idempotency
    assert set(_wal(tmp_path).replay().entries) == {admitted.id}
    assert service.wal.terminal == 0
    assert sorted(path.name for path
                  in (tmp_path / "store" / "service").iterdir()) \
        == sorted([WAL_FILENAME, f"{admitted.id}.events.jsonl"])

    revived = _service(tmp_path)
    revived._recover()
    assert set(revived.jobs) == {admitted.id}


def test_concurrent_submits_admit_and_journal_one_job(tmp_path):
    """Eight threads submit at once to a one-deep queue that no
    dispatcher drains: one job is admitted and journalled, the others
    are refused and leave no record."""
    service = _service(tmp_path, queue=QueueConfig(max_depth=1))
    barrier = threading.Barrier(8)
    outcomes = []

    def submit(index):
        barrier.wait(timeout=10.0)
        try:
            outcomes.append(
                service.submit(JobSpec(tenant=f"t{index}"))[0].id)
        except QueueFullError as exc:
            outcomes.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=submit, args=(index,))
                   for index in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    admitted = [outcome for outcome in outcomes
                if isinstance(outcome, str)]
    assert len(admitted) == 1
    assert sum(isinstance(outcome, QueueFullError)
               for outcome in outcomes) == 7
    assert set(service.jobs) == set(admitted)
    assert set(_wal(tmp_path).replay().entries) == set(admitted)
    assert service.cancel(admitted[0]) == (True, "cancelled")
    records, _ = journal.replay(_wal(tmp_path).path, lambda record: record)
    assert [(record["op"], record["job"]) for record in records] \
        == [("submit", admitted[0]), ("state", admitted[0])]


def test_a_drain_racing_a_submit_cancels_it_once_journalled(
        tmp_path, monkeypatch):
    """A drain that starts while a submission waits on its WAL append
    waits for it, then cancels the job: the ``cancelled`` record follows
    the ``submit`` record, and no acknowledged job is left queued."""
    service = _service(tmp_path)
    entered, proceed = threading.Event(), threading.Event()
    log_submit = service.wal.log_submit

    def held_log_submit(*args, **kwargs):
        entered.set()
        proceed.wait(timeout=30.0)
        return log_submit(*args, **kwargs)

    monkeypatch.setattr(service.wal, "log_submit", held_log_submit)
    submitted = []
    submitter = threading.Thread(target=lambda: submitted.append(
        service.submit(JobSpec())[0]))
    stopper = threading.Thread(target=service.stop)
    submitter.start()
    try:
        assert entered.wait(timeout=10.0)
        stopper.start()
        time.sleep(0.2)  # a drain that did not wait would cancel now
    finally:
        proceed.set()
    submitter.join(timeout=30.0)
    stopper.join(timeout=30.0)
    assert not submitter.is_alive() and not stopper.is_alive()
    job = submitted[0]
    assert [event["event"] for event in job.events] \
        == ["queued", "cancelled"]
    # a state record journalled before its submit is dropped on replay
    report = _wal(tmp_path).replay()
    assert {entry.job_id: entry.state
            for entry in report.entries.values()} == {job.id: "cancelled"}


def test_recover_readmits_queued_jobs_in_order(tmp_path):
    crashed = _service(tmp_path)
    ids = [crashed.submit(JobSpec(tenant=f"t{i}"))[0].id
           for i in range(3)]
    # no stop(): the process "dies" with three acknowledged jobs

    revived = _service(tmp_path)
    revived._recover()
    assert set(revived.jobs) == set(ids)
    assert revived.queue.depth() == 3
    popped = [revived.queue.pop().id for _ in range(3)]
    assert popped == ids  # original arrival order


def test_unreadable_wal_fails_start_and_is_not_overwritten(
        tmp_path, monkeypatch):
    crashed = _service(tmp_path)
    for index in range(3):
        crashed.submit(JobSpec(tenant=f"t{index}"))
    wal_path = _wal(tmp_path).path
    before = wal_path.read_bytes()
    real_open = Path.open

    def guarded_open(self, *args, **kwargs):
        if self == wal_path:
            raise PermissionError(13, "Permission denied", str(self))
        return real_open(self, *args, **kwargs)

    monkeypatch.setattr(Path, "open", guarded_open)
    revived = _service(tmp_path)
    try:
        with pytest.raises(ReproError, match="cannot read job WAL"):
            revived.start()
    finally:
        monkeypatch.undo()
    assert revived.jobs == {}
    assert wal_path.read_bytes() == before


def test_failed_start_leaves_no_telemetry_behind(tmp_path, monkeypatch):
    monkeypatch.delenv("REPRO_LOG_PATH", raising=False)
    _wal(tmp_path).path.mkdir(parents=True)  # unreadable as a file
    service = _service(tmp_path)
    with pytest.raises(ReproError, match="cannot read job WAL"):
        service.start()
    assert current_trace() is None
    assert not logging_configured()


def test_stop_drops_the_log_sink(tmp_path, monkeypatch):
    """A stopped daemon's log sink must not outlive it: a later sweep
    in the same process writes no records under the old store."""
    monkeypatch.delenv("REPRO_LOG_PATH", raising=False)
    service = _service(tmp_path)
    service.start()
    assert logging_configured()
    service.stop()
    assert current_trace() is None
    assert not logging_configured()
    shutil.rmtree(tmp_path / "store")
    sweep = run_experiments(["E-T1"], config=EngineConfig(
        executor="inline", cache_enabled=False))
    assert sweep.all_ok
    assert not (tmp_path / "store").exists()


def test_recover_requeues_orphan_with_bounded_attempts(tmp_path,
                                                       monkeypatch):
    wal = _wal(tmp_path)
    wal.log_submit("j-orphan", JobSpec())
    wal.log_state("j-orphan", JOB_RUNNING)

    monkeypatch.setattr(service_daemon, "RECOVERY_BACKOFF",
                        BackoffPolicy(base_s=0.01, max_s=0.02))
    service = _service(tmp_path)
    service._recover()
    job = service.jobs["j-orphan"]
    assert job.state == JOB_QUEUED
    assert job.reason == REASON_RECOVERED
    assert job.recovery_attempts == 1
    assert service.recovered_jobs == 1


def test_recover_fails_orphan_past_the_attempt_bound(tmp_path):
    wal = _wal(tmp_path)
    wal.log_submit("j-orphan", JobSpec())
    wal.log_state("j-orphan", JOB_RUNNING, recovery_attempts=2)

    service = _service(tmp_path, max_recovery_attempts=2)
    service._recover()
    job = service.jobs["j-orphan"]
    assert job.state == JOB_FAILED
    assert job.reason == REASON_RECOVERY_EXHAUSTED
    assert "recovery attempt" in job.error
    assert service.queue.depth() == 0


def test_recover_keeps_terminal_jobs_as_stubs(tmp_path):
    wal = _wal(tmp_path)
    wal.log_submit("j-done", JobSpec())
    wal.log_state("j-done", JOB_DONE)

    service = _service(tmp_path)
    service._recover()
    assert service.jobs["j-done"].state == JOB_DONE
    assert service.queue.depth() == 0


def test_recover_rebuilds_idempotency_map(tmp_path):
    crashed = _service(tmp_path)
    job, _ = crashed.submit(JobSpec(idempotency_key="key-1"))

    revived = _service(tmp_path)
    revived._recover()
    dedup, created = revived.submit(JobSpec(idempotency_key="key-1"))
    assert not created
    assert dedup.id == job.id


def test_recovery_backoff_gates_the_requeued_orphan(tmp_path,
                                                    monkeypatch):
    wal = _wal(tmp_path)
    wal.log_submit("j-orphan", JobSpec())
    wal.log_state("j-orphan", JOB_RUNNING)

    monkeypatch.setattr(service_daemon, "RECOVERY_BACKOFF",
                        BackoffPolicy(base_s=30.0, max_s=60.0,
                                      jitter=0.0))
    service = _service(tmp_path)
    service._recover()
    # the orphan is queued but its backoff window keeps it unpoppable
    assert service.queue.depth() == 1
    assert service.queue.pop() is None


def test_recover_breaks_stale_claims(tmp_path):
    cache = ResultCache(tmp_path / "store")
    cache.objects_dir.mkdir(parents=True, exist_ok=True)
    claim = cache.objects_dir / ("E-T1--deadbeef.rpc" + CLAIM_SUFFIX)
    claim.write_text(json.dumps({
        "pid": 2 ** 22 + 1017, "host": os.uname().nodename,
        "created_at": time.time()}), encoding="utf-8")

    service = _service(tmp_path)
    service.submit(JobSpec())  # something to recover
    revived = _service(tmp_path)
    revived._recover()
    assert not claim.exists()


# -- daemon lifetimes that share a pid (a container's PID 1) ----------


def _lifetime(tmp_path, monkeypatch, tenants=(), **overrides):
    """Start a daemon over the shared state dir, run one E-T1 job per
    tenant to completion, and stop it.

    Ids are minted as a fresh process with pid 1 would mint them: a
    daemon restarted as PID 1 gets its predecessor's pid and a fresh
    counter.
    """
    counter = itertools.count(1)
    monkeypatch.setattr("repro.service.daemon.next_job_id",
                        lambda: f"j-00001-{next(counter):06d}")
    service = _service(tmp_path, **overrides)
    service.start()
    try:
        jobs = [service.submit(JobSpec(experiment_ids=("E-T1",),
                                       tenant=tenant, profile=True))[0]
                for tenant in tenants]
        deadline = time.monotonic() + 30.0
        while (not all(job.terminal for job in jobs)
               and time.monotonic() < deadline):
            time.sleep(0.01)
    finally:
        service.stop()
    return service, jobs


def _kinds(job):
    return [event["event"] for event in job.events]


def test_restart_with_the_same_pid_mints_fresh_job_ids(tmp_path,
                                                       monkeypatch):
    _inject(monkeypatch, "E-T1", lambda: {"v": 1})
    lifecycle = ["queued", "running", "record", "done"]
    _, (first,) = _lifetime(tmp_path, monkeypatch, ["first"])
    second_daemon, (second,) = _lifetime(tmp_path, monkeypatch,
                                         ["second"])
    assert second.id != first.id
    recovered = second_daemon.jobs[first.id]
    assert recovered.spec.tenant == "first"
    assert recovered.state == JOB_DONE
    assert _kinds(recovered) == lifecycle
    assert _kinds(second) == lifecycle

    third_daemon, _ = _lifetime(tmp_path, monkeypatch)
    assert set(third_daemon.jobs) == {first.id, second.id}
    for job, tenant in ((first, "first"), (second, "second")):
        known = third_daemon.jobs[job.id]
        assert known.spec.tenant == tenant
        assert known.state == JOB_DONE
        assert _kinds(known) == lifecycle
        assert [event["seq"] for event in known.events] == [0, 1, 2, 3]


def test_compaction_deletes_the_files_of_the_jobs_it_drops(
        tmp_path, monkeypatch):
    _inject(monkeypatch, "E-T1", lambda: {"v": 1})
    monkeypatch.setattr(service_daemon, "WAL_KEEP_TERMINAL", 1)
    _, jobs = _lifetime(tmp_path, monkeypatch, ["a", "b", "c"])
    revived, _ = _lifetime(tmp_path, monkeypatch)
    kept = jobs[-1].id
    assert set(revived.jobs) == {kept}
    assert sorted(path.name for path
                  in (tmp_path / "store" / "service").glob("j-*")) \
        == [f"{kept}.events.jsonl", f"{kept}.profile.txt"]


def _until(predicate, timeout_s=30.0):
    deadline = time.monotonic() + timeout_s
    while not predicate() and time.monotonic() < deadline:
        time.sleep(0.01)
    assert predicate()


def test_submit_racing_a_live_compaction_survives_a_restart(
        tmp_path, monkeypatch):
    """A submission journalled while a live compaction is rewriting the
    WAL is in the new journal, so a restarted daemon still knows it."""
    _inject(monkeypatch, "E-T1", lambda: {"v": 1})
    monkeypatch.setattr(service_daemon, "WAL_KEEP_TERMINAL", 2)
    service = _service(tmp_path)
    service.start()
    held, release = threading.Event(), threading.Event()
    rewrite = journal.rewrite

    def held_rewrite(path, lines):
        if not held.is_set():
            held.set()
            release.wait(timeout=30.0)
        rewrite(path, lines)

    monkeypatch.setattr(journal, "rewrite", held_rewrite)
    racing = []
    try:
        for _ in range(4):  # the fourth finished job compacts the WAL
            job, _ = service.submit(JobSpec(experiment_ids=("E-T1",)))
            _until(lambda: job.terminal)
        assert held.wait(timeout=30.0)
        submitter = threading.Thread(target=lambda: racing.append(
            service.submit(JobSpec(experiment_ids=("E-T1",)))[0]))
        submitter.start()
        submitter.join(timeout=0.5)  # its append races the rewrite
        release.set()
        submitter.join(timeout=30.0)
        _until(lambda: racing and racing[0].terminal)

        report = _wal(tmp_path).replay()
        assert len(report.entries) == 3  # two kept by the compaction
        assert report.dangling == 0
        revived = _service(tmp_path)
        revived._recover()
        assert revived.jobs[racing[0].id].state == JOB_DONE
    finally:
        release.set()
        service.stop()


def test_live_compaction_bounds_the_job_table(tmp_path, monkeypatch):
    """With ``wal_keep_terminal=2`` the table holds at most four
    finished jobs, the WAL holds the same ones, and an evicted job
    answers as it would after a restart."""
    _inject(monkeypatch, "E-T1", lambda: {"v": 1})
    monkeypatch.setattr(service_daemon, "WAL_KEEP_TERMINAL", 2)
    daemon = _start_daemon(tmp_path)
    service, client = daemon.service, daemon.client
    try:
        ids = []
        for index in range(10):
            job = client.submit(["E-T1"], idempotency_key=f"key-{index}",
                                profile=True)
            assert client.wait(job["id"], timeout_s=30.0)["state"] \
                == "done"
            ids.append(job["id"])
            assert sum(known.terminal
                       for known in service.list_jobs()) <= 4
        # the evicted job's key admits a new job; its WAL append also
        # waits out any compaction still running
        again = client.submit(["E-T1"], idempotency_key="key-0",
                              profile=True)
        assert again["deduplicated"] is False
        assert again["id"] not in ids
        client.wait(again["id"], timeout_s=30.0)

        retained = {ids[8], ids[9], again["id"]}
        assert set(service.jobs) == retained
        for job_id in ids[:8]:
            for route in ("", "/events", "/result"):
                with pytest.raises(ServiceError) as excinfo:
                    client._request("GET", f"/v1/jobs/{job_id}{route}")
                assert excinfo.value.status == 404
        assert sorted(path.name for path
                      in (tmp_path / "store" / "service").glob("j-*")) \
            == sorted(f"{job_id}{suffix}" for job_id in retained
                      for suffix in (".events.jsonl", ".profile.txt"))
        assert {entry.job_id: entry.state for entry
                in service.wal.replay().entries.values()} \
            == {job.id: job.state for job in service.list_jobs()}
    finally:
        daemon.stop()


# -- admission queue backoff gate -------------------------------------


def test_queue_pop_honours_not_before(tmp_path):
    queue = AdmissionQueue(QueueConfig())
    early = Job(id="j-early", spec=JobSpec())
    gated = Job(id="j-gated", spec=JobSpec())
    gated.not_before = time.monotonic() + 60.0
    queue.submit(gated)
    queue.submit(early)
    assert queue.pop().id == "j-early"  # gated job was skipped
    assert queue.pop() is None
    gated.not_before = 0.0
    assert queue.pop().id == "j-gated"


def test_queue_force_submit_bypasses_bounds(tmp_path):
    queue = AdmissionQueue(QueueConfig(max_depth=1, max_per_tenant=1))
    queue.submit(Job(id="j-1", spec=JobSpec()))
    queue.submit(Job(id="j-2", spec=JobSpec()), force=True)
    assert queue.depth() == 2


# -- event-log tear tolerance (satellite: torn final JSONL line) ------


def test_event_log_replay_tolerates_torn_final_line(tmp_path):
    log = JobEventLog(tmp_path / "job.events.jsonl")
    log.append({"seq": 0, "event": "queued"})
    log.append({"seq": 1, "event": "running"})
    with log.path.open("a", encoding="utf-8") as handle:
        handle.write('{"seq": 2, "event": "reco')  # torn mid-write

    events, skipped = log.replay()
    assert [event["seq"] for event in events] == [0, 1]
    assert skipped == 1


def test_event_log_replay_skips_records_without_seq(tmp_path):
    log = JobEventLog(tmp_path / "job.events.jsonl")
    log.append({"seq": 0, "event": "queued"})
    with log.path.open("a", encoding="utf-8") as handle:
        handle.write('{"event": "no-seq"}\n')
    events, skipped = log.replay()
    assert len(events) == 1
    assert skipped == 1


# -- a live daemon restarting over the same state dir -----------------


class _DaemonHandle:
    def __init__(self, client, service, stop):
        self.client = client
        self.service = service
        self.stop = stop


def _start_daemon(tmp_path, **overrides):
    config_kwargs = dict(
        port=0, cache_dir=tmp_path / "store", executor="inline",
        queue=QueueConfig(max_depth=8, max_per_tenant=8))
    config_kwargs.update(overrides)
    service = ExperimentService(ServiceConfig(**config_kwargs))
    server = ServiceServer(service)
    ready = threading.Event()

    async def _run():
        await server.start()
        ready.set()
        await server.serve_forever()

    thread = threading.Thread(target=lambda: asyncio.run(_run()),
                              daemon=True)
    thread.start()
    assert ready.wait(timeout=10.0), "daemon failed to start"
    client = ServiceClient(f"http://127.0.0.1:{server.port}",
                           timeout_s=30.0)

    def stop():
        if thread.is_alive():
            try:
                client.shutdown()
            except ServiceError:
                pass
            thread.join(timeout=30.0)

    return _DaemonHandle(client, service, stop)


def test_restarted_daemon_remembers_jobs_and_keys(tmp_path,
                                                  monkeypatch):
    _inject(monkeypatch, "E-T1", lambda: {"v": 1})
    first = _start_daemon(tmp_path)
    try:
        job = first.client.submit(["E-T1"], idempotency_key="once")
        final = first.client.wait(job["id"], timeout_s=30.0)
        assert final["state"] == "done"
    finally:
        first.stop()

    second = _start_daemon(tmp_path)
    try:
        # the finished job survives the restart as a state stub ...
        stub = second.client.job(job["id"])
        assert stub["state"] == "done"
        # ... and its idempotency key still maps to it
        dedup = second.client.submit(["E-T1"],
                                     idempotency_key="once")
        assert dedup["id"] == job["id"]
        assert dedup["deduplicated"] is True
        health = second.client.health()
        assert health["recovered"] == 0  # nothing was orphaned
    finally:
        second.stop()


def test_duplicate_submit_deduplicates_within_one_daemon(
        tmp_path, monkeypatch):
    _inject(monkeypatch, "E-T1", lambda: 1)
    daemon = _start_daemon(tmp_path)
    try:
        first = daemon.client.submit(["E-T1"], idempotency_key="k")
        second = daemon.client.submit(["E-T1"], idempotency_key="k")
        assert second["id"] == first["id"]
        assert first["deduplicated"] is False
        assert second["deduplicated"] is True
    finally:
        daemon.stop()


# -- watchdog: deadlines and stalls (needs the process executor, ------
# -- which can be aborted mid-task from another thread) ---------------


def _sleeper():
    time.sleep(60.0)
    return {"never": "reached"}


def test_watchdog_fails_job_past_its_deadline(tmp_path, monkeypatch):
    _inject(monkeypatch, "E-T1", _sleeper)
    monkeypatch.setattr(service_daemon, "WATCHDOG_POLL_S", 0.05)
    daemon = _start_daemon(tmp_path, executor="process")
    try:
        job = daemon.client.submit(["E-T1"], deadline_s=0.5,
                                   timeout_s=90.0)
        final = daemon.client.wait(job["id"], timeout_s=60.0)
        assert final["state"] == "failed"
        assert final["reason"] == REASON_DEADLINE
        assert "deadline" in final["error"]
        stats = daemon.client.stats()
        assert stats["counters"]["jobs.deadline_exceeded"] == 1
    finally:
        daemon.stop()


def test_watchdog_requeues_then_exhausts_a_stalled_job(
        tmp_path, monkeypatch):
    _inject(monkeypatch, "E-T1", _sleeper)
    monkeypatch.setattr(service_daemon, "WATCHDOG_POLL_S", 0.05)
    monkeypatch.setattr(service_daemon, "RECOVERY_BACKOFF",
                        BackoffPolicy(base_s=0.01, max_s=0.02))
    daemon = _start_daemon(
        tmp_path, executor="process", stall_timeout_s=0.5,
        max_recovery_attempts=1)
    try:
        job = daemon.client.submit(["E-T1"], timeout_s=90.0)
        final = daemon.client.wait(job["id"], timeout_s=60.0)
        assert final["state"] == "failed"
        assert final["reason"] == REASON_RECOVERY_EXHAUSTED
        assert final["recovery_attempts"] == 1
        stats = daemon.client.stats()
        assert stats["counters"]["jobs.stalled"] >= 1
        events = [event["event"] for event
                  in daemon.client.events(job["id"])]
        assert events.count("running") == 2  # original + one requeue
    finally:
        daemon.stop()


def test_stall_requeue_records_reason(tmp_path, monkeypatch):
    calls = tmp_path / "calls"

    def flaky_then_fast():
        # first run stalls (killed by the watchdog); the requeued
        # attempt returns immediately
        if calls.exists():
            return {"ok": True}
        calls.write_text("x", encoding="utf-8")
        time.sleep(60.0)
        return {"never": "reached"}

    _inject(monkeypatch, "E-T1", flaky_then_fast)
    monkeypatch.setattr(service_daemon, "WATCHDOG_POLL_S", 0.05)
    monkeypatch.setattr(service_daemon, "RECOVERY_BACKOFF",
                        BackoffPolicy(base_s=0.01, max_s=0.02))
    daemon = _start_daemon(
        tmp_path, executor="process", stall_timeout_s=0.5)
    try:
        job = daemon.client.submit(["E-T1"], timeout_s=90.0)
        final = daemon.client.wait(job["id"], timeout_s=60.0)
        assert final["state"] == "done"
        assert final["recovery_attempts"] == 1
        kinds = [(event["event"], event.get("reason")) for event
                 in daemon.client.events(job["id"])]
        assert ("queued", REASON_STALL) in kinds
    finally:
        daemon.stop()


# -- client resilience ------------------------------------------------


def test_client_retries_connection_errors(monkeypatch):
    monkeypatch.setattr(service_client, "RETRY_BACKOFF",
                        BackoffPolicy(base_s=0.0, max_s=0.0, jitter=0.0))
    client = ServiceClient("http://127.0.0.1:1", retries=2)
    attempts = []

    def flaky(method, path, payload, headers, stream, timeout_s):
        attempts.append(path)
        if len(attempts) < 3:
            raise ServiceUnavailableError("boom")
        return b'{"ok": true}'

    monkeypatch.setattr(client, "_send_once", flaky)
    assert client.health() == {"ok": True}
    assert len(attempts) == 3


def test_client_gives_up_after_retry_budget(monkeypatch):
    monkeypatch.setattr(service_client, "RETRY_BACKOFF",
                        BackoffPolicy(base_s=0.0, max_s=0.0, jitter=0.0))
    client = ServiceClient("http://127.0.0.1:1", retries=1)
    attempts = []

    def down(method, path, payload, headers, stream, timeout_s):
        attempts.append(path)
        raise ServiceUnavailableError("still down")

    monkeypatch.setattr(client, "_send_once", down)
    with pytest.raises(ServiceUnavailableError):
        client.health()
    assert len(attempts) == 2  # first try + one retry


def test_client_retries_retryable_5xx_not_4xx(monkeypatch):
    monkeypatch.setattr(service_client, "RETRY_BACKOFF",
                        BackoffPolicy(base_s=0.0, max_s=0.0, jitter=0.0))
    client = ServiceClient("http://127.0.0.1:1", retries=3)
    script = [ServiceError("down", status=503),
              ServiceError("down", status=502), b'{"ok": true}']

    def next_answer(method, path, payload, headers, stream, timeout_s):
        answer = script.pop(0)
        if isinstance(answer, Exception):
            raise answer
        return answer

    monkeypatch.setattr(client, "_send_once", next_answer)
    assert client.health() == {"ok": True}

    monkeypatch.setattr(
        client, "_send_once",
        lambda *a, **k: (_ for _ in ()).throw(
            ServiceError("no such job", status=404)))
    with pytest.raises(ServiceError) as excinfo:
        client.job("j-missing")
    assert excinfo.value.status == 404


def test_client_wait_survives_a_daemon_restart(tmp_path, monkeypatch):
    _inject(monkeypatch, "E-T1", lambda: {"v": 1})
    first = _start_daemon(tmp_path)
    job = first.client.submit(["E-T1"], idempotency_key="restart")
    first.client.wait(job["id"], timeout_s=30.0)
    monkeypatch.setattr(service_client, "RETRY_BACKOFF",
                        BackoffPolicy(base_s=0.05, max_s=0.2))
    port_probe = ServiceClient(
        first.client.base_url, timeout_s=5.0, retries=8)
    first.stop()

    # with the daemon gone, wait() keeps absorbing connection errors
    # until its own deadline...
    with pytest.raises(ServiceUnavailableError):
        port_probe.wait(job["id"], timeout_s=1.0)

    # ...and once a daemon is back on the same state dir (any port),
    # the job is still known and terminal.
    second = _start_daemon(tmp_path)
    try:
        final = second.client.wait(job["id"], timeout_s=30.0)
        assert final["state"] == "done"
    finally:
        second.stop()


def test_events_follow_reconnects_across_drops(tmp_path, monkeypatch):
    _inject(monkeypatch, "E-T1", lambda: 1)
    daemon = _start_daemon(tmp_path)
    try:
        job = daemon.client.submit(["E-T1"])
        daemon.client.wait(job["id"], timeout_s=30.0)
        monkeypatch.setattr(service_client, "RETRY_BACKOFF",
                            BackoffPolicy(base_s=0.0, max_s=0.0,
                                          jitter=0.0))
        resilient = ServiceClient(
            daemon.client.base_url, timeout_s=5.0, retries=3)

        # sabotage the first stream attempt; the reconnect must
        # resume from the same seq with no loss or duplication
        real = resilient._events_once
        state = {"dropped": False}

        def drop_once(job_id, follow, since):
            stream = real(job_id, follow, since)
            yield next(stream)
            if not state["dropped"]:
                state["dropped"] = True
                raise ConnectionResetError("mid-stream drop")
            yield from stream

        monkeypatch.setattr(resilient, "_events_once", drop_once)
        events = list(resilient.events(job["id"], follow=True))
        seqs = [event["seq"] for event in events]
        assert seqs == sorted(set(seqs))  # no duplicates, no gaps
        assert events[-1]["event"] == "done"
    finally:
        daemon.stop()
