"""The experiment service daemon: async HTTP/JSON job API.

``repro serve`` turns the one-shot sweep engine into a long-running
multi-tenant service.  Architecture, front to back:

* **HTTP front end** -- an asyncio-streams HTTP/1.1 server (stdlib
  only, no web framework).  Handlers parse a request, call into
  :class:`ExperimentService`, and encode a JSON response; the events
  route streams JSONL and can *follow* a running job.
* **Admission** -- submissions pass through the bounded multi-tenant
  :class:`~repro.service.queue.AdmissionQueue`; a full queue answers
  ``429`` with a ``Retry-After`` hint instead of buffering without
  bound.  The queue admits first, so a refused submission leaves
  nothing behind; an admitted job is journalled to the WAL and gets
  its ``queued`` event before any dispatcher may pop it or any client
  see it.  Submissions and cancels run in the loop's executor, off the
  event loop, as their WAL appends are fsync'd and may run or wait out
  a live compaction.
* **Dispatch** -- worker threads pop jobs in priority order and run
  each through a fresh :class:`~repro.engine.scheduler.ExecutionEngine`
  against the **shared result store**, so a job resubmitted by any
  tenant is served from cache and two jobs racing on one key settle it
  via claim files, not duplicate computation.  Engines run on these
  threads, so they install no signal handlers (an engine does so only
  on the main thread): the daemon owns signal policy.
* **Recovery** -- a crash orphan found at startup and a run the
  watchdog found stalled are requeued the same way, with a bounded
  attempt count and a jittered backoff (:meth:`ExperimentService._requeue`).
* **Retention** -- the WAL's compaction is the one rule for which
  finished jobs the daemon keeps: it runs once the journal holds twice
  ``WAL_KEEP_TERMINAL`` terminal jobs, and the jobs it drops leave the
  job table with it.
* **Shutdown** -- SIGINT/SIGTERM (or ``POST /v1/shutdown``) stops
  admission (503), cancels queued jobs, drains in-flight ones, prunes
  the store to its configured bounds, writes the service trace
  artifact, and reports whether the stop came from a signal so the CLI
  can exit with the distinct interrupted code.

Routes::

    GET  /healthz                   liveness + population counts
    POST /v1/jobs                   submit a sweep      -> 202 | 429
    GET  /v1/jobs[?tenant=]         list jobs
    GET  /v1/jobs/<id>              one job, records included
    GET  /v1/jobs/<id>/events       JSONL event stream [?follow=1]
    GET  /v1/jobs/<id>/result       results payload of a done job
    POST /v1/jobs/<id>/cancel       cancel while queued -> 200 | 409
    GET  /v1/stats[?format=prom]    service metrics registry
    GET  /v1/store                  shared store stats
    POST /v1/store/prune            apply the configured store bounds
    POST /v1/shutdown               graceful remote stop
"""

from __future__ import annotations

import asyncio
import json
import math
import os
import signal
import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable

from repro.engine import EngineConfig, ExecutionEngine
from repro.engine.scheduler import EXECUTOR_INLINE, EXECUTOR_PROCESS
from repro.errors import ReproError
from repro.reliability.backoff import BackoffPolicy
from repro.obs import (
    COUNT_BUCKETS,
    DURATION_BUCKETS,
    HistorySampler,
    SamplingProfiler,
    TimeSeriesBuffer,
    Trace,
    activate,
    add_counter,
    configure_logging,
    current_log_path,
    current_trace,
    deactivate,
    get_logger,
    new_trace_id,
    observe,
    registry_summary,
    reset_logging,
    sample_resources,
    span,
    to_prometheus,
    trace_context,
    write_trace,
)
from repro.obs.log import LEVELS
from repro.obs.timeseries import DEFAULT_INTERVAL_S
from repro.service.jobs import (
    JOB_DONE,
    JOB_FAILED,
    JOB_QUEUED,
    JOB_RUNNING,
    REASON_DEADLINE,
    REASON_RECOVERED,
    REASON_RECOVERY_EXHAUSTED,
    REASON_STALL,
    Job,
    JobEventLog,
    JobSpec,
    json_safe,
    next_job_id,
)
from repro.service.queue import AdmissionQueue, QueueConfig, QueueFullError
from repro.service.store import StoreManager
from repro.service.wal import (
    EVENTS_SUFFIX,
    PROFILE_SUFFIX,
    WAL_FILENAME,
    WAL_KEEP_TERMINAL,
    JobWAL,
)

#: Bytes of request body the server is willing to buffer.
MAX_BODY_BYTES = 1 << 20

#: Seconds a follow stream may send nothing before it writes a blank
#: keepalive line (clients skip blank lines).  It stays below every
#: client's read timeout -- the smallest default is ``repro top``'s
#: 10 s -- so a silent job's stream is never timed out, and the write
#: notices a follower that has gone.
FOLLOW_KEEPALIVE_S = 5.0

#: How often the watchdog scans running jobs.
WATCHDOG_POLL_S = 0.25

#: Jittered exponential backoff between recovery requeues.
RECOVERY_BACKOFF = BackoffPolicy(base_s=0.5, max_s=30.0)

#: Metrics-history cadence: one sample a second, kept for the
#: buffer's ten minutes and served on ``GET /metrics/history``.
HISTORY_INTERVAL_S = DEFAULT_INTERVAL_S

#: Sampling interval of a job's profiler (``submit --profile``).
PROFILE_INTERVAL_S = 0.005

_STATUS_TEXT = {
    200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 409: "Conflict",
    413: "Payload Too Large", 429: "Too Many Requests",
    500: "Internal Server Error", 503: "Service Unavailable",
}


@dataclass(frozen=True)
class ServiceConfig:
    """Deployment settings and bounds for one daemon instance."""

    host: str = "127.0.0.1"
    port: int = 0                     # 0 = ephemeral, announced on start
    cache_dir: Path = field(default_factory=lambda: Path(".repro_cache"))
    queue: QueueConfig = field(default_factory=QueueConfig)
    dispatchers: int = 1              # concurrent jobs (worker threads)
    executor: str = EXECUTOR_PROCESS  # engine executor for job sweeps
    trace_out: Path | None = None     # service trace artifact on stop
    #: Store bounds applied after every job (when any is set), on
    #: demand and at shutdown; ``None`` disables that bound.
    store_max_bytes: int | None = None
    store_max_entries: int | None = None
    store_max_age_s: float | None = None
    #: Watchdog: a running job whose engine reports no progress for
    #: this long is treated as stalled, aborted, and requeued.
    stall_timeout_s: float = 300.0
    #: Times an orphaned (crash) or stalled run may be requeued before
    #: the job fails with reason ``recovery_exhausted``.
    max_recovery_attempts: int = 3
    #: Structured-log sink; ``None`` defaults to
    #: ``<cache_dir>/service/service.log.jsonl``.
    log_path: Path | None = None
    #: Log level (``debug``/``info``/``warning``/``error``); ``None``
    #: defers to ``REPRO_LOG_LEVEL`` (else ``info``).
    log_level: str | None = None

    def __post_init__(self) -> None:
        if self.dispatchers < 1:
            raise ValueError(
                f"dispatchers must be >= 1, got {self.dispatchers}")
        if self.executor not in (EXECUTOR_PROCESS, EXECUTOR_INLINE):
            raise ValueError(f"unknown executor {self.executor!r}")
        if self.stall_timeout_s <= 0:
            raise ValueError(
                f"stall_timeout_s must be > 0, got {self.stall_timeout_s}")
        if self.max_recovery_attempts < 0:
            raise ValueError(
                f"max_recovery_attempts must be >= 0, "
                f"got {self.max_recovery_attempts}")
        if self.log_level is not None and self.log_level not in LEVELS:
            raise ValueError(
                f"log_level must be one of {sorted(LEVELS)}, "
                f"got {self.log_level!r}")


@dataclass
class _RunningJob:
    """Watchdog bookkeeping for one in-flight job."""

    job: Job
    engine: ExecutionEngine
    started: float    # monotonic
    heartbeat: float  # monotonic, advanced by engine progress
    #: Set once by the watchdog (``stall`` / ``deadline``) so the
    #: dispatcher knows why its engine run came back dead.
    verdict: str | None = None

    def beat(self) -> None:
        self.heartbeat = time.monotonic()


class ExperimentService:
    """Daemon state: job table, queue, store, WAL, worker threads."""

    def __init__(self, config: ServiceConfig | None = None) -> None:
        self.config = config or ServiceConfig()
        self.queue = AdmissionQueue(self.config.queue)
        self.store = StoreManager(self.config.cache_dir)
        self.trace = Trace("repro-service")
        self.wal = JobWAL(Path(self.config.cache_dir) / "service"
                          / WAL_FILENAME)
        self.jobs: dict[str, Job] = {}
        self._jobs_lock = threading.Lock()
        #: idempotency key -> job id, rebuilt from the WAL on startup.
        self._idempotency: dict[str, str] = {}
        #: Held by a submission from its draining check until its job is
        #: journalled and dispatchable, and by ``stop`` to start the
        #: drain: the drain's cancels never reach an unjournalled job.
        self._submit_lock = threading.Lock()
        self._running: dict[str, _RunningJob] = {}
        self._running_lock = threading.Lock()
        self._work = threading.Event()
        self._draining = threading.Event()
        self._threads: list[threading.Thread] = []
        self.history = TimeSeriesBuffer()
        self._sampler: HistorySampler | None = None
        self._log = get_logger("service.daemon")
        #: Jobs re-admitted by the last startup recovery.
        self.recovered_jobs = 0
        #: Set when shutdown came from SIGINT/SIGTERM rather than the
        #: shutdown route; the CLI maps it to the interrupted exit code.
        self.signalled = False

    # -- lifecycle ----------------------------------------------------

    def start(self) -> None:
        """Install telemetry, recover the WAL, start the threads.

        A failed recovery (an unreadable WAL) leaves no process-global
        telemetry behind: the trace is deactivated and the log sink
        dropped before the error propagates.
        """
        configure_logging(self._log_path, level=self.config.log_level)
        activate(self.trace)
        self._log.info("service.start",
                       dispatchers=self.config.dispatchers,
                       executor=self.config.executor,
                       log_path=str(self._log_path))
        try:
            self._recover()
        except BaseException:
            self._release_telemetry()
            raise
        for index in range(self.config.dispatchers):
            thread = threading.Thread(
                target=self._dispatch_loop,
                name=f"repro-dispatch-{index}", daemon=True)
            thread.start()
            self._threads.append(thread)
        watchdog = threading.Thread(target=self._watchdog_loop,
                                    name="repro-watchdog", daemon=True)
        watchdog.start()
        self._threads.append(watchdog)
        self._sampler = HistorySampler(
            self._history_sample, self.history,
            interval_s=HISTORY_INTERVAL_S)
        self._sampler.start()

    def stop(self, *, drain_timeout_s: float = 60.0) -> None:
        """Drain and shut down; idempotent."""
        with self._submit_lock:
            if self._draining.is_set():
                return
            self._draining.set()
        self._log.info("service.stop", signalled=self.signalled)
        self._work.set()  # wake dispatchers so they observe the drain
        for job in self.queue.pending():
            self.queue.cancel(job.id)
        for thread in self._threads:
            thread.join(timeout=drain_timeout_s)
        if self._sampler is not None:
            self._sampler.stop()
        self.prune_store()
        self._compact()
        self._release_telemetry()
        if self.config.trace_out is not None:
            try:
                write_trace(self.trace, self.config.trace_out)
            except OSError:
                pass

    @property
    def draining(self) -> bool:
        return self._draining.is_set()

    @property
    def _log_path(self) -> Path:
        if self.config.log_path is not None:
            return Path(self.config.log_path)
        return Path(self.config.cache_dir) / "service" / "service.log.jsonl"

    def _release_telemetry(self) -> None:
        """Deactivate this daemon's trace and drop its log sink, each
        only while it is still the process-wide one."""
        if current_trace() is self.trace:
            deactivate()
        if current_log_path() == self._log_path:
            reset_logging()

    # -- metrics history ----------------------------------------------

    def _history_sample(self) -> dict:
        """One cadence sample: load, latency quantiles, resources."""
        with self._running_lock:
            running = len(self._running)
        with self._jobs_lock:
            jobs = len(self.jobs)
        counters = self.trace.counters.as_dict()
        sample = {
            "queued": self.queue.depth(),
            "running": running,
            "jobs": jobs,
            "rss_peak_kb": sample_resources().rss_peak_kb,
            "jobs_done": counters.get("service.jobs_done", 0),
            "jobs_failed": counters.get("service.jobs_failed", 0),
            "requests": counters.get("service.requests", 0),
        }
        series = self.trace.metrics.histograms()
        for name in ("service.job_wall_s", "engine.run_s"):
            matching = [h for n, _, h in series if n == name and h.count]
            if not matching:
                continue
            # Quantiles over the label-merged series would need a
            # rebuild; sample the largest series instead (label splits
            # are usually singular in practice).
            biggest = max(matching, key=lambda h: h.count)
            for q_name, q in (("p50", 0.50), ("p99", 0.99)):
                value = biggest.quantile(q)
                if value is not None:
                    sample[f"{name}.{q_name}"] = round(value, 6)
        return sample

    # -- retention ----------------------------------------------------

    def _compact(self) -> None:
        """Compact the WAL; the jobs it drops leave the table with it."""
        self.wal.compact(keep_terminal=WAL_KEEP_TERMINAL,
                         on_drop=self._forget)

    def _retain(self) -> None:
        """Compact once the WAL holds twice ``WAL_KEEP_TERMINAL``
        terminal jobs: the table holds at most that many (plus one per
        other dispatcher finishing a job meanwhile) besides the live
        jobs, and compaction runs about once per ``WAL_KEEP_TERMINAL``
        finished jobs."""
        if self.wal.terminal >= 2 * WAL_KEEP_TERMINAL:
            self._compact()

    def _forget(self, job_ids: list[str]) -> None:
        """Drop compacted jobs from the table and the idempotency map:
        an evicted id answers as it would after a restart."""
        with self._jobs_lock:
            for job_id in job_ids:
                job = self.jobs.pop(job_id, None)
                key = job.spec.idempotency_key if job is not None else None
                if key is not None and self._idempotency.get(key) == job_id:
                    del self._idempotency[key]

    # -- crash recovery -----------------------------------------------

    def _recover(self) -> None:
        """Rebuild the job table from the WAL after a crash/restart.

        Queued jobs are re-admitted in original priority/arrival order
        (``force=True``: they were already acknowledged, backpressure
        does not apply to them twice).  Jobs that were ``running`` when
        the previous process died are orphans, requeued by
        :meth:`_requeue`.  Terminal jobs come back as state-only stubs
        -- their results died with the old process, their outcome did
        not.
        """
        report = self.wal.replay()
        if report.skipped:
            add_counter("wal.skipped_lines", report.skipped)
        if report.dangling:
            add_counter("wal.dangling_records", report.dangling)
        if not report.entries:
            return
        ordered = sorted(report.entries.values(),
                         key=lambda entry: entry.arrival)
        for entry in ordered:
            log = JobEventLog(self.wal.job_file(entry.job_id, EVENTS_SUFFIX))
            events, skipped = log.replay()
            if skipped:
                add_counter("service.events_skipped", skipped)
            job = Job(id=entry.job_id, spec=entry.spec,
                      state=entry.state,
                      submitted_at=entry.submitted_at,
                      error=entry.error,
                      recovery_attempts=entry.recovery_attempts,
                      reason=entry.reason,
                      events=events, event_log=log, wal=self.wal)
            with self._jobs_lock:
                self.jobs[job.id] = job
                if entry.spec.idempotency_key:
                    self._idempotency[entry.spec.idempotency_key] \
                        = job.id
            if entry.orphaned:
                if self._requeue(job, REASON_RECOVERED):
                    add_counter("jobs.recovered")
                    self.recovered_jobs += 1
            elif not entry.terminal:
                self.queue.submit(job, force=True)
        # leases the dead process held will never be released by it
        self.store.cache.sweep_stale_claims()
        self._compact()

    def _requeue(self, job: Job, reason: str) -> bool:
        """Requeue a crash orphan (``reason`` ``recovered``) or a
        stalled run (``stall``) behind a jittered backoff; returns
        whether it was requeued.

        A job past ``max_recovery_attempts`` fails with reason
        ``recovery_exhausted``, and a stall while the service drains
        fails with reason ``stall``.
        """
        attempts = job.recovery_attempts + 1
        limit = self.config.max_recovery_attempts
        cause = "orphaned" if reason == REASON_RECOVERED else "stalled"
        if attempts > limit:
            add_counter("jobs.recovery_exhausted")
            self._fail(job, f"{cause} run exceeded {limit} recovery "
                       "attempt(s)", reason=REASON_RECOVERY_EXHAUSTED)
            return False
        if self._draining.is_set():
            self._fail(job, f"{cause} while the service was draining",
                       reason=reason)
            return False
        job.recovery_attempts = attempts
        delay = round(RECOVERY_BACKOFF.delay_s(job.id, attempts), 3)
        job.not_before = time.monotonic() + delay
        job.transition(JOB_QUEUED, reason=reason,
                       recovery_attempts=attempts, backoff_s=delay)
        self.queue.submit(job, force=True)
        self._log.info("job.requeued", job_id=job.id,
                       trace_id=job.spec.trace_id, reason=reason,
                       attempt=attempts, backoff_s=delay)
        return True

    def _fail(self, job: Job, error: str, **data: Any) -> None:
        """Fail ``job`` with ``error`` (and a ``reason``, if given),
        counted before the state changes, as a finished job is."""
        add_counter("service.jobs_failed")
        job.transition(JOB_FAILED, error=error, **data)
        self._log.warning("job.failed", job_id=job.id,
                          trace_id=job.spec.trace_id, error=error, **data)

    # -- watchdog -----------------------------------------------------

    def _watchdog_loop(self) -> None:
        """Abort runs past their deadline or with stale heartbeats."""
        while not self._draining.is_set():
            now = time.monotonic()
            with self._running_lock:
                entries = list(self._running.values())
            for entry in entries:
                if entry.verdict is not None:
                    continue
                deadline_s = entry.job.spec.deadline_s
                if (deadline_s is not None
                        and now - entry.started > deadline_s):
                    entry.verdict = "deadline"
                    self._log.warning(
                        "watchdog.deadline", job_id=entry.job.id,
                        trace_id=entry.job.spec.trace_id,
                        deadline_s=deadline_s)
                    entry.engine.abort(
                        f"deadline_s={deadline_s:g} exceeded")
                    continue
                if now - entry.heartbeat > self.config.stall_timeout_s:
                    entry.verdict = "stall"
                    self._log.warning(
                        "watchdog.stall", job_id=entry.job.id,
                        trace_id=entry.job.spec.trace_id,
                        stall_timeout_s=self.config.stall_timeout_s)
                    entry.engine.abort(
                        "no progress for "
                        f"{self.config.stall_timeout_s:g} s")
            self._draining.wait(timeout=WATCHDOG_POLL_S)

    # -- job submission / lookup --------------------------------------

    def submit(self, spec: JobSpec) -> tuple[Job, bool]:
        """Admit a job; returns ``(job, created)``.

        ``created`` is False when ``spec.idempotency_key`` matched an
        existing job, which is returned instead of admitting a
        duplicate.  The queue admits first, so a refused submission
        (QueueFullError) leaves nothing behind.  An admitted job is
        journalled to the WAL, so an acknowledged job survives a crash,
        and gets its ``queued`` event before it enters the table or a
        dispatcher may pop it: no state record or ``running`` event can
        precede them.  Raises QueueFullError / ReproError.
        """
        # Mint the correlation id before the WAL sees the spec, so a
        # recovered job keeps the same trace_id across a crash.  Direct
        # submissions (no client-minted id) get a daemon-side one.
        if spec.trace_id is None:
            spec = replace(spec, trace_id=new_trace_id())
        key = spec.idempotency_key
        with self._submit_lock:
            if self._draining.is_set():
                raise ReproError("service is shutting down")
            with self._jobs_lock:
                existing = (self.jobs.get(self._idempotency.get(key))
                            if key is not None else None)
                if existing is not None:
                    add_counter("service.idempotent_hits")
                    return existing, False
                # Ids count per process, so a restarted daemon with the
                # same pid mints its predecessor's ids again: skip any
                # id the table (which holds every job the WAL does)
                # knows.
                job_id = next_job_id()
                while job_id in self.jobs:
                    job_id = next_job_id()
            job = Job(id=job_id, spec=spec, not_before=math.inf,
                      event_log=JobEventLog(
                          self.wal.job_file(job_id, EVENTS_SUFFIX)),
                      wal=self.wal)
            self.queue.submit(job)
            # Journalled outside ``_jobs_lock``: a live compaction holds
            # the WAL's lock while it takes ``_jobs_lock``.
            self.wal.log_submit(job_id, spec, job.submitted_at)
            job.add_event(JOB_QUEUED, tenant=spec.tenant,
                          priority=spec.priority,
                          experiments=list(spec.experiment_ids))
            with self._jobs_lock:
                self.jobs[job_id] = job
                if key is not None:
                    self._idempotency[key] = job_id
            job.not_before = 0.0  # dispatchable
        self._log.info("job.submit", trace_id=spec.trace_id,
                       job_id=job_id, tenant=spec.tenant,
                       priority=spec.priority,
                       experiments=len(spec.experiment_ids),
                       profile=spec.profile)
        self._work.set()
        return job, True

    def job(self, job_id: str) -> Job | None:
        with self._jobs_lock:
            return self.jobs.get(job_id)

    def list_jobs(self, tenant: str | None = None) -> list[Job]:
        with self._jobs_lock:
            jobs = list(self.jobs.values())
        if tenant is not None:
            jobs = [job for job in jobs if job.spec.tenant == tenant]
        return sorted(jobs, key=lambda job: job.submitted_at)

    def cancel(self, job_id: str) -> tuple[bool, str]:
        """(ok, reason).  Only queued jobs are cancellable."""
        job = self.job(job_id)
        if job is None:
            return False, "unknown job"
        if self.queue.cancel(job_id) is not None:
            self._retain()
            return True, "cancelled"
        return False, f"job is {job.state}, not queued"

    def prune_store(self):
        return self.store.prune(
            max_age_s=self.config.store_max_age_s,
            max_entries=self.config.store_max_entries,
            max_bytes=self.config.store_max_bytes)

    # -- dispatch -----------------------------------------------------

    def _dispatch_loop(self) -> None:
        while True:
            job = self.queue.pop()
            if job is None:
                if self._draining.is_set():
                    return
                self._work.wait(timeout=0.2)
                self._work.clear()
                continue
            self._run_job(job)

    def _engine_config(self, job: Job,
                       progress=None) -> EngineConfig:
        spec = job.spec
        return EngineConfig(
            jobs=spec.workers,
            timeout_s=spec.timeout_s,
            retries=spec.retries,
            cache_enabled=spec.use_cache,
            cache_dir=Path(self.config.cache_dir),
            executor=self.config.executor,
            progress=progress,
            trace_context={"trace_id": spec.trace_id,
                           "job_id": job.id, "tenant": spec.tenant},
        )

    def _run_job(self, job: Job) -> None:
        spec = job.spec
        with trace_context(trace_id=spec.trace_id, job_id=job.id,
                           tenant=spec.tenant):
            self._run_job_in_context(job)
        self._retain()

    def _run_job_in_context(self, job: Job) -> None:
        spec = job.spec
        job.transition(JOB_RUNNING, tenant=spec.tenant)
        wait_s = job.queue_wait_s() or 0.0
        observe("service.queue_wait_s", wait_s, DURATION_BUCKETS,
                tenant=spec.tenant)
        add_counter("service.jobs_started")
        self._log.info("job.dispatch",
                       queue_wait_s=round(wait_s, 6),
                       priority=spec.priority)
        now = time.monotonic()
        entry = _RunningJob(job=job, engine=None, started=now,
                            heartbeat=now)
        engine = ExecutionEngine(
            self._engine_config(job, progress=entry.beat))
        entry.engine = engine
        with self._running_lock:
            self._running[job.id] = entry
        profiler = (SamplingProfiler(PROFILE_INTERVAL_S)
                    if spec.profile else None)
        try:
            if profiler is not None:
                profiler.start()
            with span("service.job", job=job.id, tenant=spec.tenant,
                      priority=spec.priority):
                sweep = engine.run(spec.experiment_ids or None)
        except Exception as exc:  # a job must never kill its dispatcher
            self._fail(job, f"{type(exc).__name__}: {exc}")
            return
        finally:
            if profiler is not None:
                profiler.stop()
                self._store_profile(job, profiler)
            with self._running_lock:
                self._running.pop(job.id, None)
        job.records = [record.to_json_dict()
                       for record in sweep.records]
        job.metrics = sweep.metrics.to_json_dict()
        job.store_results(sweep.results)
        job.interrupted = sweep.interrupted
        for record in sweep.records:
            job.add_event("record", experiment_id=record.experiment_id,
                          status=record.status,
                          cache_hit=record.cache_hit,
                          wall_time_s=record.wall_time_s)
        # Measured from dispatch, not job.wall_s(): finished_at is only
        # stamped by the terminal transition below, and a stalled job
        # requeues without one -- wall_s() here would always be None.
        observe("service.job_wall_s", time.monotonic() - now,
                DURATION_BUCKETS, tenant=spec.tenant)
        if entry.verdict == "deadline":
            add_counter("jobs.deadline_exceeded")
            self._fail(job, f"deadline_s={spec.deadline_s:g} exceeded "
                       "(run aborted by the watchdog)",
                       reason=REASON_DEADLINE)
        elif entry.verdict == "stall":
            add_counter("jobs.stalled")
            self._requeue(job, REASON_STALL)
        elif sweep.metrics.all_ok:
            # counted first: a client that saw the job end sees it in
            # the stats too
            add_counter("service.jobs_done")
            add_counter(f"service.jobs_done.{spec.tenant}")
            job.transition(JOB_DONE, ok=sweep.metrics.ok,
                           cache_hits=sweep.metrics.cache_hits)
            self._log.info("job.done", ok=sweep.metrics.ok,
                           cache_hits=sweep.metrics.cache_hits,
                           wall_s=round(job.wall_s() or 0.0, 6))
        else:
            failed = [record.experiment_id for record in sweep.records
                      if not record.ok]
            self._fail(job, f"{len(failed)} experiment(s) not ok: {failed}")
        config = self.config
        if (config.store_max_bytes is not None
                or config.store_max_entries is not None
                or config.store_max_age_s is not None):
            self.prune_store()  # a pass with no bound would evict nothing

    def _store_profile(self, job: Job,
                       profiler: SamplingProfiler) -> None:
        """Keep the collapsed profile on the job and next to the WAL."""
        text = profiler.to_collapsed_text()
        job.profile_text = text
        observe("service.profile_samples", profiler.samples,
                COUNT_BUCKETS)
        self._log.info("job.profiled", samples=profiler.samples,
                       stacks=len(profiler.collapsed()),
                       duration_s=round(profiler.duration_s, 6))
        try:
            path = self.wal.job_file(job.id, PROFILE_SUFFIX)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text, encoding="utf-8")
        except OSError:
            pass  # the in-memory copy still serves the route


# -- HTTP plumbing ----------------------------------------------------


class _BadRequest(Exception):
    pass


@dataclass
class _Request:
    method: str
    path: str
    query: dict[str, str]
    body: bytes
    #: Header names lowercased by the parser.
    headers: dict[str, str] = field(default_factory=dict)

    def json(self) -> Any:
        try:
            return json.loads(self.body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise _BadRequest(f"invalid JSON body: {exc}") from None


def _parse_query(raw: str) -> dict[str, str]:
    query: dict[str, str] = {}
    for pair in raw.split("&"):
        if not pair:
            continue
        key, _, value = pair.partition("=")
        query[key] = value
    return query


async def _read_request(reader: asyncio.StreamReader) -> _Request | None:
    try:
        request_line = await reader.readline()
    except (ConnectionError, asyncio.LimitOverrunError):
        return None
    if not request_line:
        return None
    parts = request_line.decode("latin-1").split()
    if len(parts) != 3:
        raise _BadRequest("malformed request line")
    method, target, _version = parts
    headers: dict[str, str] = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    raw_length = headers.get("content-length", "0") or "0"
    try:
        length = int(raw_length)
    except ValueError:
        length = -1
    if length < 0:
        raise _BadRequest(f"malformed Content-Length {raw_length!r}")
    if length > MAX_BODY_BYTES:
        raise _BadRequest("request body too large")
    body = await reader.readexactly(length) if length else b""
    path, _, raw_query = target.partition("?")
    return _Request(method=method.upper(), path=path,
                    query=_parse_query(raw_query), body=body,
                    headers=headers)


def _response(status: int, payload: Any = None, *,
              content_type: str = "application/json",
              headers: dict[str, str] | None = None) -> bytes:
    """One HTTP/1.1 answer: the head, then ``payload`` as the body, as
    is when it is text and JSON-encoded otherwise.  Without a payload
    it is the head of a stream that the connection's close ends."""
    lines = [f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}",
             f"Content-Type: {content_type}"]
    body = b""
    if payload is not None:
        text = (payload if isinstance(payload, str) else
                json.dumps(json_safe(payload), sort_keys=True) + "\n")
        body = text.encode("utf-8")
        lines.append(f"Content-Length: {len(body)}")
    lines.append("Connection: close")
    for name, value in (headers or {}).items():
        lines.append(f"{name}: {value}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body


class ServiceServer:
    """Binds the HTTP front end to an :class:`ExperimentService`."""

    def __init__(self, service: ExperimentService) -> None:
        self.service = service
        self.port: int | None = None
        self._server: asyncio.AbstractServer | None = None
        self._stopping = asyncio.Event()

    # -- lifecycle ----------------------------------------------------

    async def start(self) -> None:
        """Bind, start the service, then accept connections.

        The bind comes first, so a port that cannot be bound leaves
        nothing to undo: no telemetry, threads or log records.
        """
        config = self.service.config
        try:
            server = await asyncio.start_server(
                self._handle, config.host, config.port,
                start_serving=False)
        except OSError as exc:
            # asyncio words a failed bind at length; name the errno
            reason = (os.strerror(exc.errno) if (exc.errno or 0) > 0
                      else exc.strerror or str(exc))
            raise ReproError(f"cannot listen on {config.host}:"
                             f"{config.port}: {reason}") from exc
        try:
            self.service.start()
        except BaseException:
            server.close()
            await server.wait_closed()
            raise
        self._server = server
        self.port = server.sockets[0].getsockname()[1]
        await server.start_serving()

    async def serve_forever(self) -> None:
        """Run until a drain signal or shutdown request arrives."""
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(
                    signum, self._initiate_stop, True)
            except (NotImplementedError, RuntimeError):
                pass  # non-main thread or platform without support
        await self._stopping.wait()
        await self._shutdown()

    def _initiate_stop(self, signalled: bool = False) -> None:
        if signalled:
            self.service.signalled = True
            add_counter("service.drain_signals")
        self._stopping.set()

    async def _shutdown(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # Drain runs in a thread: in-flight jobs may take a while and
        # must not block the loop (follow-streams still read events).
        await asyncio.get_running_loop().run_in_executor(
            None, self.service.stop)

    # -- request handling ---------------------------------------------

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        try:
            try:
                request = await _read_request(reader)
                if request is not None:
                    answer = await self._route(request, writer)
                    if answer is not None:
                        writer.write(answer)
            except asyncio.IncompleteReadError:
                pass
            except (_BadRequest, ReproError) as exc:
                writer.write(_response(400, {"error": str(exc)}))
            except Exception as exc:
                writer.write(_response(
                    500, {"error": f"{type(exc).__name__}: {exc}"}))
        finally:
            try:
                await writer.drain()
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _route(self, request: _Request,
                     writer: asyncio.StreamWriter) -> bytes | None:
        """The answer to ``request``, or None once a route that streams
        or must act after answering has written its own."""
        service = self.service
        method, path = request.method, request.path
        add_counter("service.requests")

        if path == "/healthz" and method == "GET":
            with service._running_lock:
                running = len(service._running)
            return _response(200, {
                "ok": True,
                "draining": service.draining,
                "jobs": len(service.jobs),
                "queued": service.queue.depth(),
                "running": running,
                "recovered": service.recovered_jobs,
            })

        if path == "/v1/jobs" and method == "POST":
            if service.draining:
                return _response(
                    503, {"error": "service is shutting down"})
            payload = request.json()
            # A client-minted X-Repro-Trace-Id header wins over nothing
            # but never over an explicit spec field.
            header_trace = request.headers.get("x-repro-trace-id")
            if (header_trace and isinstance(payload, dict)
                    and not payload.get("trace_id")):
                payload["trace_id"] = header_trace
            spec = JobSpec.from_json_dict(payload)

            def submit() -> dict:
                job, created = service.submit(spec)
                answer = job.to_json_dict(include_records=False)
                answer["deduplicated"] = not created
                return answer

            try:
                # in the executor: the submit's fsync'd WAL append, or
                # a live compaction it waits out, would stall the loop
                answer = await asyncio.get_running_loop().run_in_executor(
                    None, submit)
            except QueueFullError as exc:
                return _response(
                    429, {"error": str(exc), "reason": exc.reason,
                          "retry_after_s": exc.retry_after_s},
                    headers={"Retry-After":
                             f"{max(1, round(exc.retry_after_s))}"})
            return _response(200 if answer["deduplicated"] else 202,
                             answer)

        if path == "/v1/jobs" and method == "GET":
            tenant = request.query.get("tenant") or None
            return _response(200, {
                "jobs": [job.to_json_dict(include_records=False)
                         for job in service.list_jobs(tenant)]})

        if path.startswith("/v1/jobs/"):
            return await self._route_job(request, writer)

        if path == "/v1/stats" and method == "GET":
            if request.query.get("format") == "prom":
                return _response(200, to_prometheus(service.trace.metrics),
                                 content_type="text/plain")
            return _response(200, {
                "metrics": registry_summary(service.trace.metrics),
                "counters": service.trace.counters.as_dict(),
                "queue": {"depth": service.queue.depth(),
                          "admitted": service.queue.admitted,
                          "rejected": service.queue.rejected},
                "recovery": {
                    "recovered_jobs": service.recovered_jobs,
                    "wal_write_errors": service.wal.write_errors,
                    "max_recovery_attempts":
                        service.config.max_recovery_attempts,
                },
            })

        if path == "/metrics/history" and method == "GET":
            try:
                since = int(request.query.get("since", "0") or "0")
                raw_limit = request.query.get("limit")
                limit = int(raw_limit) if raw_limit else None
            except ValueError:
                raise _BadRequest(
                    "since/limit must be integers") from None
            return _response(200, {
                "samples": service.history.samples(
                    since_seq=since or None, limit=limit),
                "next_seq": service.history.next_seq(),
                "evicted": service.history.evicted,
                "interval_s": HISTORY_INTERVAL_S,
                "capacity": service.history.capacity,
            })

        if path == "/v1/store" and method == "GET":
            return _response(200, service.store.stats().to_json_dict())

        if path == "/v1/store/prune" and method == "POST":
            return _response(200, service.prune_store().to_json_dict())

        if path == "/v1/shutdown" and method == "POST":
            writer.write(_response(200, {"ok": True,
                                         "stopping": True}))
            await writer.drain()
            self._initiate_stop(False)
            return None

        return _response(404, {"error": f"no route for {method} {path}"})

    async def _route_job(self, request: _Request,
                         writer: asyncio.StreamWriter) -> bytes | None:
        service = self.service
        parts = request.path.split("/")  # '', 'v1', 'jobs', id[, sub]
        job_id = parts[3] if len(parts) > 3 else ""
        sub = parts[4] if len(parts) > 4 else None
        job = service.job(job_id)
        if job is None:
            return _response(404, {"error": f"unknown job {job_id!r}"})

        if sub is None and request.method == "GET":
            return _response(200, job.to_json_dict())

        if sub == "events" and request.method == "GET":
            try:
                since = int(request.query.get("since", "0") or "0")
            except ValueError:
                raise _BadRequest("since must be an integer") from None
            await self._stream_events(
                job, writer,
                follow=request.query.get("follow") in ("1", "true"),
                since=since)
            return None

        if sub == "result" and request.method == "GET":
            if not job.terminal:
                return _response(409, {
                    "error": f"job is {job.state}; results are "
                             "available once it finishes"})
            return _response(200, {
                "id": job.id, "state": job.state, "error": job.error,
                "interrupted": job.interrupted,
                "results": job.results(), "metrics": job.metrics})

        if sub == "cancel" and request.method == "POST":
            # in the executor, as a submit is: the fsync'd state record
            # and any live compaction it runs or waits out block
            ok, reason = await asyncio.get_running_loop().run_in_executor(
                None, service.cancel, job.id)
            return _response(
                200 if ok else 409,
                {"id": job.id, "cancelled": ok, "reason": reason})

        if sub == "profile" and request.method == "GET":
            text = job.profile_text
            if text is None:
                try:
                    text = service.wal.job_file(
                        job.id, PROFILE_SUFFIX).read_text(encoding="utf-8")
                except OSError:
                    return _response(404, {
                        "error": (f"job {job.id} has no profile; submit "
                                  "with profile=true and wait for it to "
                                  "finish")})
            return _response(200, text, content_type="text/plain")

        return _response(405, {
            "error": f"no route for {request.method} {request.path}"})

    async def _stream_events(self, job: Job,
                             writer: asyncio.StreamWriter,
                             follow: bool, since: int = 0) -> None:
        """Stream events as JSONL, optionally skipping ``seq < since``.

        ``since`` is what lets a reconnecting follower resume where its
        dropped connection left off instead of re-reading (and
        re-yielding) the whole history.  A follower parks until the job
        appends an event, which wakes it: it clears its wake flag
        before each snapshot, so an append between the snapshot and the
        wait is never missed.  After ``FOLLOW_KEEPALIVE_S`` with nothing
        sent it writes a blank line.
        """
        sent = max(0, since)
        loop = asyncio.get_running_loop()
        wake = asyncio.Event()
        waker = _waker(loop, wake)
        if follow:
            job.follow(waker)
        try:
            writer.write(_response(200, content_type="application/jsonl"))
            quiet_since = loop.time()
            while True:
                wake.clear()
                with job.lock:
                    fresh = [event for event in job.events
                             if event["seq"] >= sent]
                    terminal = job.terminal
                for event in fresh:
                    writer.write(
                        (json.dumps(json_safe(event), sort_keys=True)
                         + "\n").encode("utf-8"))
                if fresh:
                    sent = fresh[-1]["seq"] + 1
                    quiet_since = loop.time()
                elif loop.time() - quiet_since >= FOLLOW_KEEPALIVE_S:
                    writer.write(b"\n")
                    quiet_since = loop.time()
                try:
                    await writer.drain()
                except (ConnectionError, OSError):
                    return
                if not follow or terminal:
                    return
                try:
                    await asyncio.wait_for(
                        wake.wait(), FOLLOW_KEEPALIVE_S
                        - (loop.time() - quiet_since))
                except asyncio.TimeoutError:
                    pass
        finally:
            if follow:
                job.unfollow(waker)


def _waker(loop: asyncio.AbstractEventLoop,
           event: asyncio.Event) -> Callable[[], None]:
    """``event.set`` on ``loop``, callable from any thread.

    A job calls its followers' wakers on the thread that appends the
    event (a dispatcher, say).  Once the loop has closed there is no
    follower left to wake, and the closed loop's error must not reach
    that thread.
    """
    def wake() -> None:
        try:
            loop.call_soon_threadsafe(event.set)
        except RuntimeError:
            pass  # the loop has closed
    return wake


async def _serve(config: ServiceConfig,
                 announce=print) -> ExperimentService:
    service = ExperimentService(config)
    server = ServiceServer(service)
    await server.start()
    announce(f"repro service listening on "
             f"http://{config.host}:{server.port}")
    await server.serve_forever()
    return service


def run_service(config: ServiceConfig, announce=print) -> bool:
    """Run the daemon until shutdown; True when a signal stopped it."""
    service = asyncio.run(_serve(config, announce))
    return service.signalled
