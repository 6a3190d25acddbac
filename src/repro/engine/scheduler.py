"""The experiment execution engine: scheduling, isolation, retries.

The scheduler executes any subset of the experiment registry with

* **one dispatch path**: every launch hands a batch of N tasks to one
  worker body, which reports each task's outcome as it finishes.  N
  adapts to the backlog (``min(8, pending // (4 * jobs))``, at least
  1), so small sweeps keep one process per task while large ones
  amortise fork cost; retries and fault-plan runs always launch
  singly, and a worker that dies mid-batch costs only the tasks it
  never reported, which are retried singly;
* a **process pool** (``jobs`` worker processes, forked on platforms
  that support it so monkeypatched registries propagate, each with its
  OpenBLAS pools capped at ``usable CPUs // (jobs × process-executor
  sweeps launching workers in this process)`` threads by
  :mod:`repro.engine.cpus`), a
  per-experiment **timeout** that actually kills the worker, and
  **bounded retries** spaced by exponential backoff with deterministic
  jitter (:class:`~repro.reliability.backoff.BackoffPolicy`);
* **failure isolation**: a crashing, raising, or hanging runner yields
  a failed/timeout :class:`~repro.engine.records.RunRecord` while the
  rest of the sweep completes;
* the **content-addressed cache** of :mod:`repro.engine.cache`, so
  experiments whose transitive source is unchanged return instantly
  without spawning a worker;
* **cross-process claims**: before launching a runner the scheduler
  leases the task's cache key (``<entry>.rpc.claim``); a concurrent
  sweep or service job that loses the race polls for the winner's
  stored result (``shared`` wait phase) instead of recomputing, with
  TTL-bounded staleness so a crashed claimant never wedges a key;
* **graceful shutdown**: SIGINT/SIGTERM (main thread only) switch the
  scheduler into drain mode -- no new launches, in-flight batches
  finish and store their results, never-launched tasks settle
  as ``cancelled`` records, and the journal is flushed on the normal
  exit path.  :attr:`SweepResult.interrupted` reports it and the CLI
  maps it to a distinct exit code;
* a JSONL **run journal** plus an aggregate
  :class:`~repro.engine.metrics.EngineMetrics` summary;
* an optional **fault-injection hook**: when
  :attr:`EngineConfig.fault_plan` is set, the scheduler consults the
  :class:`~repro.reliability.faults.FaultPlan` before every attempt
  (crash/hang/transient/slow faults run inside the worker) and after
  every store (corrupt-cache faults tear the on-disk entry), recording
  each applied fault on :attr:`SweepResult.fired_faults` so the chaos
  harness can prove absorption.

Two executors share that loop: ``"process"`` (the default, full
isolation) forks a worker per batch, and ``"inline"`` calls the same
worker body in the calling process, one task per batch -- no timeout
enforcement; used by the benchmark fixtures and wherever fork
overhead would dominate.

Timing discipline: **every duration in this module is a difference of
``time.monotonic()`` readings** -- the adjustable wall clock is never
subtracted, so ``wall_time_s`` and the per-task phase timings cannot
go negative under an NTP step or manual clock change.
Wall-clock ``started_at`` timestamps come from
:func:`repro.obs.wall_now`, which derives unix-scale stamps from the
monotonic clock against an anchor captured at import.

Observability: when a :class:`repro.obs.Trace` is active (the
``repro trace`` CLI installs one), the scheduler emits spans for each
task's lookup / run / store phase and accumulates the same phases on
every :class:`RunRecord` (``phases`` maps phase name to seconds; the
``queue`` and ``retry`` entries measure *waiting*, everything else is
active work summing to ``wall_time_s``).  Worker processes build their
own trace and ship it back over the result pipe, so solver spans from
inside an experiment land in the sweep trace with the worker's pid.
"""

from __future__ import annotations

import multiprocessing
import os
import signal as signal_module
import threading
import time
from collections import deque
from contextlib import ExitStack, contextmanager, nullcontext
from dataclasses import dataclass, field, replace
from multiprocessing.connection import wait as _connection_wait
from pathlib import Path
from typing import Any, Sequence

from repro.engine import cache as engine_cache
from repro.engine.cache import ResultCache, runner_fingerprint
from repro.engine.cpus import (
    BlasPool,
    cap_blas_threads,
    openblas_pools,
    usable_cpus,
)
from repro.engine.metrics import EngineMetrics
from repro.engine.records import (
    STATUS_CANCELLED,
    STATUS_FAILED,
    STATUS_OK,
    STATUS_TIMEOUT,
    RunJournal,
    RunRecord,
    experiment_family,
)
from repro.errors import ReproError
from repro.obs import (
    CONTEXT_FIELDS,
    COUNT_BUCKETS,
    DURATION_BUCKETS,
    MetricsRegistry,
    Trace,
    activate,
    add_counter,
    context_fields,
    current_metrics,
    current_trace,
    get_logger,
    observe,
    record_resource_delta,
    record_resource_metrics,
    record_span,
    reset_tracing,
    sample_resources,
    set_trace_context,
    span,
    trace_context,
    tracing_enabled,
    wall_now,
)
from repro.reliability.backoff import BackoffPolicy
from repro.reliability.faults import (
    FaultPlan,
    FaultSpec,
    FiredFault,
    apply_runner_fault,
    tear_cache_entry,
)

DEFAULT_CACHE_DIR = Path(os.environ.get("REPRO_CACHE_DIR", ".repro_cache"))

EXECUTOR_PROCESS = "process"
EXECUTOR_INLINE = "inline"

#: How often a task that lost a cache claim polls the foreign lease
#: for the winner's stored result; read at call time.
CLAIM_POLL_S = 0.05

#: Spacing between a failing task's attempts; read at call time.
RETRY_BACKOFF = BackoffPolicy()

#: Process-executor sweeps launching workers in this process (a service
#: runs one per busy dispatcher).  The CPUs are the process's, so each
#: worker launch shares them among every such sweep's workers.  A sweep
#: counts only while it has tasks to run: one served from the cache
#: forks nothing and leaves the others' budgets alone.
_launching_sweeps = 0
_launching_sweeps_lock = threading.Lock()


@contextmanager
def _launching_sweep():
    global _launching_sweeps
    with _launching_sweeps_lock:
        _launching_sweeps += 1
    try:
        yield
    finally:
        with _launching_sweeps_lock:
            _launching_sweeps -= 1


def _blas_budget(jobs: int, sweeps: int) -> int:
    """OpenBLAS threads for one forked worker: the usable CPUs over the
    ``jobs`` workers of each of ``sweeps`` launching sweeps."""
    return max(1, usable_cpus() // (jobs * sweeps))


#: Phase names that measure waiting rather than work; every other
#: phase on a record is active time, and the active phases sum to the
#: record's ``wall_time_s``.  ``shared`` is time spent waiting on a
#: foreign cache claim (another process computing the same key).
WAIT_PHASES = ("queue", "retry", "shared")

#: record phase -> histogram metric it lands in when metrics are
#: active.  The ``run`` phase additionally carries a ``family`` label
#: so ``repro stats`` can break run latency down per artifact family.
_PHASE_METRICS = {
    "lookup": "engine.lookup_s",
    "run": "engine.run_s",
    "store": "engine.store_s",
    "queue": "engine.queue_wait_s",
    "retry": "engine.retry_wait_s",
    "shared": "engine.shared_wait_s",
}

#: Signals that trigger a graceful drain when the engine runs on the
#: main thread (worker threads -- e.g. inside the service daemon --
#: never install handlers; the daemon owns its own signal policy).
DRAIN_SIGNALS = (signal_module.SIGINT, signal_module.SIGTERM)

_log = get_logger("engine.scheduler")


def observe_record_metrics(metrics: MetricsRegistry,
                           record: RunRecord) -> None:
    """Land one finished record's phase timings in the sweep histograms."""
    family = experiment_family(record.experiment_id)
    for phase, value in record.phases.items():
        metric = _PHASE_METRICS.get(phase)
        if metric is None:
            continue
        if phase == "run":
            metrics.observe(metric, value, DURATION_BUCKETS,
                            family=family)
        else:
            metrics.observe(metric, value, DURATION_BUCKETS)
    metrics.observe("engine.attempts", record.attempts, COUNT_BUCKETS)


def default_jobs() -> int:
    """Default worker count: ``REPRO_WORKERS`` if set, else min(4, CPUs).

    CPUs are the ones this process may run on (:func:`usable_cpus`), so
    a ``taskset`` or cpuset mask lowers the default.

    The four-worker cap keeps CI machines and laptops responsive, but it
    is a *default*, not a limit: operators running large sweeps on big
    hosts lift it with the ``REPRO_WORKERS`` environment variable or the
    ``--workers`` CLI flag (which wins when both are given).
    """
    raw = os.environ.get("REPRO_WORKERS")
    if raw is not None and raw.strip():
        try:
            value = int(raw)
        except ValueError:
            raise ReproError(
                f"REPRO_WORKERS must be a positive integer, got {raw!r}"
            ) from None
        if value < 1:
            raise ReproError(
                f"REPRO_WORKERS must be >= 1, got {value}")
        return value
    return min(4, usable_cpus())


@dataclass(frozen=True)
class EngineConfig:
    """Tunables for one :class:`ExecutionEngine`."""

    jobs: int = 1
    timeout_s: float | None = 120.0
    retries: int = 0
    cache_enabled: bool = True
    cache_dir: Path = field(default_factory=lambda: DEFAULT_CACHE_DIR)
    executor: str = EXECUTOR_PROCESS
    fault_plan: FaultPlan | None = None
    #: Optional no-arg callable invoked whenever the sweep makes
    #: genuine progress (a task finishes, a cache hit lands).  The
    #: service daemon points this at the job's heartbeat so its
    #: watchdog can tell a slow sweep from a wedged one.  Exceptions
    #: from the callback are swallowed.
    progress: Any = None
    #: Correlation fields (``trace_id``/``job_id``/``tenant`` mapping)
    #: installed for the run's duration and shipped to worker
    #: processes, so spans and log records on both sides of the fork
    #: carry the submitting job's ids.  Merged over any context
    #: already active on the calling thread (explicit config wins).
    trace_context: Any = None

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0, got {self.retries}")
        if self.executor not in (EXECUTOR_PROCESS, EXECUTOR_INLINE):
            raise ValueError(f"unknown executor {self.executor!r}")

    @property
    def effective_journal_path(self) -> Path | None:
        """The cache's journal, or none when the cache is off."""
        if self.cache_enabled:
            return Path(self.cache_dir) / "journal.jsonl"
        return None


@dataclass(frozen=True)
class SweepResult:
    """Everything one engine run produced."""

    records: list[RunRecord]
    results: dict[str, Any]
    metrics: EngineMetrics
    fired_faults: tuple[FiredFault, ...] = ()
    #: True when a drain signal interrupted the sweep: in-flight tasks
    #: finished and were stored, pending ones carry ``cancelled``
    #: records, and the journal holds all of them.
    interrupted: bool = False

    @property
    def all_ok(self) -> bool:
        return self.metrics.all_ok


def _mp_context() -> multiprocessing.context.BaseContext:
    # fork (where available) lets workers inherit the parent's
    # already-imported -- possibly monkeypatched -- registry.
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn")


def _run_batch(experiment_ids: Sequence[str], send,
               fault: FaultSpec | None = None, *, forked: bool = True,
               blas_pools: Sequence[BlasPool] = (),
               blas_threads: int | None = None, traced: bool = False,
               context: dict | None = None) -> None:
    """Worker body: run a batch of experiments in turn, reporting each.

    Each experiment sends one ``("task", id, status, value, run_s)``
    message as soon as it finishes (``value`` is the result, or the
    exception's repr), so a worker that dies mid-batch has reported
    exactly the tasks it finished; a trailing ``("done", payload)``
    carries the worker trace.  ``fault`` is injected before every
    runner; fault-plan batches are always single tasks.

    A forked worker first drops the signal state it inherited: the
    parent's SIGTERM handler (the engine's drain handler, or asyncio's
    plus its wakeup fd under ``repro serve``) would swallow the
    ``terminate()`` that enforces timeouts and forward it into the
    parent's event loop.  SIGINT is ignored, as a terminal Ctrl-C
    reaches the parent too, which drains.  ``blas_threads`` caps the
    OpenBLAS pools the parent found and the worker inherited
    (``blas_pools``) at its share of the CPUs, and each ``worker.run``
    span records the resulting pool sizes as ``blas_pools``.
    ``traced`` records a worker
    trace (a forked parent trace would be a dead copy); ``context``
    re-installs the parent's correlation fields, which thread-local
    state does not carry across fork.  The inline executor calls this
    in-process with ``forked=False``: spans land in the caller's trace
    and crash/hang faults degrade to exceptions.
    """
    run_attributes = {}
    if forked:
        signal_module.set_wakeup_fd(-1)
        signal_module.signal(signal_module.SIGTERM, signal_module.SIG_DFL)
        signal_module.signal(signal_module.SIGINT, signal_module.SIG_IGN)
        if blas_threads is not None:
            run_attributes["blas_pools"] = cap_blas_threads(
                blas_pools, blas_threads)
        reset_tracing()  # a trace inherited over fork would swallow spans
        if context:
            set_trace_context(**context)
    child_trace = Trace(f"worker-{experiment_ids[0]}") if traced else None
    if child_trace is not None:
        activate(child_trace)
    from repro.analysis.experiments import EXPERIMENTS
    for experiment_id in experiment_ids:
        start = time.monotonic()
        try:
            apply_runner_fault(fault, allow_exit=forked)
            with span("worker.run", experiment=experiment_id,
                      **run_attributes):
                result = EXPERIMENTS[experiment_id].runner()
            send(("task", experiment_id, STATUS_OK, result,
                  time.monotonic() - start))
        except Exception as exc:
            send(("task", experiment_id, STATUS_FAILED, repr(exc),
                  time.monotonic() - start))
    payload = None
    if child_trace is not None:
        # The forked worker *is* the batch, so its lifetime peaks are
        # the batch's cost; the parent max-merges the RSS gauge into
        # the sweep-wide worker peak.
        record_resource_metrics(child_trace.metrics, scope="task")
        payload = child_trace.to_payload()
    send(("done", payload))


@dataclass
class _Task:
    experiment_id: str
    fingerprint: str | None
    attempts: int = 0
    started_at: float = 0.0
    last_error: str | None = None
    ready_at: float = 0.0    # monotonic time the task became runnable
    not_before: float = 0.0  # monotonic time gating the next attempt
    claimed: bool = False            # this process holds the lease
    claim_wait_start: float = 0.0    # monotonic; 0 = not waiting
    claim_deadline: float = 0.0      # give up waiting and run anyway
    phases: dict[str, float] = field(default_factory=dict)

    def add_phase(self, name: str, duration_s: float) -> None:
        if duration_s > 0.0:
            self.phases[name] = self.phases.get(name, 0.0) + duration_s

    @property
    def active_s(self) -> float:
        """Seconds of actual work (lookup/run/store; waits excluded)."""
        return sum(value for name, value in self.phases.items()
                   if name not in WAIT_PHASES)


@dataclass
class _Slot:
    """One launched batch and the outcomes it has reported so far.

    ``process`` is ``None`` for an inline batch, which has already run
    to completion when its slot is created.
    """

    tasks: list[_Task]
    launched: float
    deadline: float | None = None
    process: multiprocessing.process.BaseProcess | None = None
    conn: Any = None
    #: experiment id -> (status, result or error repr, runner seconds)
    outcomes: dict[str, tuple[str, Any, float]] = field(
        default_factory=dict)
    payload: Any = None

    def receive(self, message: tuple) -> None:
        """Take one message from :func:`_run_batch`."""
        if message[0] == "task":
            _, experiment_id, status, value, run_s = message
            self.outcomes[experiment_id] = (status, value, run_s)
        else:  # ("done", trace payload)
            self.payload = message[1]

    def drain(self) -> bool:
        """Receive every message waiting on the worker pipe.

        Returns True at end of file: the worker has closed its end of
        the pipe, which it does only by exiting.
        """
        try:
            while self.conn.poll(0):
                self.receive(self.conn.recv())
        except (EOFError, OSError):
            return True
        return False


class ExecutionEngine:
    """Runs experiment subsets according to an :class:`EngineConfig`."""

    def __init__(self, config: EngineConfig | None = None) -> None:
        self.config = config or EngineConfig()
        self.cache = (ResultCache(self.config.cache_dir)
                      if self.config.cache_enabled else None)
        journal_path = self.config.effective_journal_path
        self.journal = (RunJournal(journal_path)
                        if journal_path is not None else None)
        self._fired: list[FiredFault] = []
        #: OpenBLAS pools forked workers cap at their budget
        #: (:func:`_blas_budget`).  They are found at a sweep's first
        #: forked launch, so a sweep served from the cache never scans
        #: for them; the inline executor leaves this process's pools
        #: alone.
        self._blas_pools: list[BlasPool] | None = None
        self._interrupted = False
        self._aborted = False
        self._abort_reason = ""

    # -- public API ---------------------------------------------------

    def run(self, experiment_ids: Sequence[str] | None = None
            ) -> SweepResult:
        """Execute the given ids (default: the whole registry)."""
        from repro.analysis.experiments import EXPERIMENTS

        if experiment_ids is None:
            ids = list(EXPERIMENTS)
        else:
            ids = list(dict.fromkeys(experiment_ids))
            unknown = [i for i in ids if i not in EXPERIMENTS]
            if unknown:
                raise ReproError(
                    f"unknown experiment(s) {unknown}; known ids: "
                    f"{sorted(EXPERIMENTS)}")

        sweep_start = time.monotonic()
        self._fired = []
        self._interrupted = False
        self._aborted = False
        self._abort_reason = ""
        self._blas_pools = None
        records: dict[str, RunRecord] = {}
        results: dict[str, Any] = {}
        metrics = current_metrics()
        sweep_sample = (sample_resources() if metrics is not None
                        else None)

        correlate = dict(context_fields())
        if self.config.trace_context:
            correlate.update(
                (key, str(value)) for key, value
                in dict(self.config.trace_context).items()
                if key in CONTEXT_FIELDS and value is not None)

        restore_handlers = self._install_signal_handlers()
        forked = self.config.executor != EXECUTOR_INLINE
        # what a worker launched now would get, beside the sweeps
        # already launching
        budget = ({"blas_threads": _blas_budget(
                       self.config.jobs, _launching_sweeps + 1)}
                  if forked else {})
        try:
            with ExitStack() as stack:
                if correlate:
                    stack.enter_context(trace_context(**correlate))
                stack.enter_context(
                    span("engine.sweep", experiments=len(ids),
                         jobs=self.config.jobs,
                         executor=self.config.executor, **budget))
                _log.info("sweep.start", experiments=len(ids),
                          jobs=self.config.jobs,
                          executor=self.config.executor, **budget)
                pending: deque[_Task] = deque()
                for experiment_id in ids:
                    record, result, task = self._try_cache(
                        EXPERIMENTS, experiment_id)
                    if record is not None:
                        records[experiment_id] = record
                        results[experiment_id] = result
                        self._beat()
                    else:
                        task.ready_at = time.monotonic()
                        pending.append(task)

                with (_launching_sweep() if forked and pending
                      else nullcontext()):
                    self._dispatch(pending, records, results)
        finally:
            restore_handlers()

        with ExitStack() as stack:
            if correlate:
                stack.enter_context(trace_context(**correlate))
            _log.info("sweep.done", experiments=len(ids),
                      interrupted=self._interrupted,
                      wall_s=round(time.monotonic() - sweep_start, 6))
        ordered = [records[experiment_id] for experiment_id in ids]
        if metrics is not None:
            for record in ordered:
                observe_record_metrics(metrics, record)
            if self.cache is not None:
                stats = self.cache.stats
                metrics.set_gauge("cache.entries", len(self.cache))
                metrics.set_gauge("cache.hit_ratio",
                                  stats.hits / max(1, stats.hits
                                                   + stats.misses))
            record_resource_delta(metrics, sweep_sample, scope="sweep")
        sweep_metrics = EngineMetrics.from_records(
            ordered, time.monotonic() - sweep_start)
        if self.journal is not None:
            self.journal.append_many(ordered)
        return SweepResult(records=ordered, results=results,
                           metrics=sweep_metrics,
                           fired_faults=tuple(self._fired),
                           interrupted=self._interrupted)

    # -- graceful shutdown --------------------------------------------

    def _install_signal_handlers(self):
        """Arm the drain signals; returns the restore callback.

        Handlers only install on the main thread (CPython restricts
        ``signal.signal`` to it, and the service daemon runs engines on
        worker threads under its own signal policy).  The first signal
        requests a drain: no new launches, in-flight work finishes and
        is stored, pending tasks become ``cancelled`` records, and the
        journal is flushed on the normal exit path.
        """
        if threading.current_thread() is not threading.main_thread():
            return lambda: None
        previous = []
        for sig in DRAIN_SIGNALS:
            try:
                previous.append(
                    (sig, signal_module.signal(sig, self._on_signal)))
            except (ValueError, OSError):
                pass
        def restore():
            for sig, old in previous:
                try:
                    signal_module.signal(sig, old)
                except (ValueError, OSError):
                    pass
        return restore

    def _on_signal(self, signum, frame) -> None:
        add_counter("engine.drain_signals")
        self._interrupted = True

    def abort(self, reason: str = "aborted") -> None:
        """Kill the sweep from another thread (watchdog enforcement).

        Unlike a drain signal, an abort does **not** let in-flight
        workers finish: the process pool is torn down at the next poll
        (bounded by the 0.5 s poll cap), in-flight tasks settle as
        ``failed`` records carrying the reason, and never-launched
        tasks settle as ``cancelled``.  The inline executor checks the
        flag between tasks -- it cannot interrupt a running one.
        """
        self._abort_reason = reason
        self._aborted = True
        add_counter("engine.aborts")
        _log.warning("engine.abort", reason=reason)

    def _beat(self) -> None:
        """Report genuine sweep progress to the configured callback."""
        progress = self.config.progress
        if progress is not None:
            try:
                progress()
            except Exception:
                pass

    def _abort_all(self, running: list[_Slot], pending: deque[_Task],
                   records: dict[str, RunRecord]) -> None:
        """Tear down every slot and settle all remaining tasks."""
        for slot in running:
            self._kill(slot)
            for task in slot.tasks:
                task.last_error = f"aborted: {self._abort_reason}"
                records[task.experiment_id] = self._finalize(
                    task, STATUS_FAILED)
            try:
                slot.conn.close()
            except OSError:
                pass
        running.clear()
        while pending:
            task = pending.popleft()
            task.last_error = f"aborted: {self._abort_reason}"
            records[task.experiment_id] = self._finalize(
                task, STATUS_CANCELLED)

    def _cancel_pending(self, pending: deque[_Task],
                        records: dict[str, RunRecord]) -> None:
        """Settle never-launched tasks as ``cancelled`` after a drain."""
        while pending:
            task = pending.popleft()
            self._settle_claim_wait(task)
            task.last_error = ("interrupted: drain signal received "
                               "before this task launched")
            records[task.experiment_id] = self._finalize(
                task, STATUS_CANCELLED)

    # -- cache front-end ----------------------------------------------

    def _try_cache(self, registry, experiment_id: str
                   ) -> tuple[RunRecord | None, Any, _Task]:
        started = wall_now()
        lookup_start = time.monotonic()
        fingerprint: str | None = None
        hit, result = False, None
        if self.cache is not None:
            with span("engine.lookup", experiment=experiment_id):
                fingerprint = runner_fingerprint(
                    experiment_id, registry[experiment_id].runner)
                hit, result = self.cache.get(experiment_id, fingerprint)
        lookup_s = time.monotonic() - lookup_start
        if hit:
            record = RunRecord(
                experiment_id=experiment_id,
                status=STATUS_OK,
                wall_time_s=lookup_s,
                cache_hit=True,
                attempts=0,
                started_at=started,
                phases={"lookup": lookup_s},
            )
            return record, result, _Task(experiment_id, fingerprint)
        task = _Task(experiment_id, fingerprint)
        if self.cache is not None:
            task.add_phase("lookup", lookup_s)
        return None, None, task

    def _retry_cache_hit(self, task: _Task,
                         records: dict[str, RunRecord],
                         results: dict[str, Any]) -> bool:
        """Re-consult the cache before relaunching a failed task.

        Between a failed attempt and its retry, a concurrent sweep over
        the same cache may have stored this entry; honouring it saves
        the relaunch.  The resulting record is a *cache hit with
        attempts > 0* -- which is why retry counts must come from
        per-record ``attempts - 1`` sums, never ``attempts -
        cache_misses`` arithmetic.
        """
        if self.cache is None or task.fingerprint is None:
            return False
        lookup_start = time.monotonic()
        with span("engine.lookup", experiment=task.experiment_id,
                  retry=True):
            hit, result = self.cache.get(task.experiment_id,
                                         task.fingerprint)
        task.add_phase("lookup", time.monotonic() - lookup_start)
        if not hit:
            return False
        self._release_claim(task)
        self._beat()
        results[task.experiment_id] = result
        records[task.experiment_id] = RunRecord(
            experiment_id=task.experiment_id,
            status=STATUS_OK,
            wall_time_s=task.active_s,
            cache_hit=True,
            attempts=task.attempts,
            started_at=task.started_at,
            phases=dict(task.phases),
        )
        return True

    # -- claims (cross-process in-flight dedup) -----------------------

    def _claims_enabled(self, task: _Task) -> bool:
        return self.cache is not None and task.fingerprint is not None

    def _release_claim(self, task: _Task) -> None:
        if task.claimed and self.cache is not None \
                and task.fingerprint is not None:
            self.cache.release_claim(task.experiment_id,
                                     task.fingerprint)
        task.claimed = False

    def _settle_claim_wait(self, task: _Task) -> None:
        """Bank the time spent waiting on a foreign claim, if any.

        ``ready_at`` is advanced so the same interval is not counted a
        second time as queue wait by the launch accounting.
        """
        if task.claim_wait_start:
            task.add_phase("shared",
                           time.monotonic() - task.claim_wait_start)
            task.claim_wait_start = 0.0
            if task.ready_at:
                task.ready_at = time.monotonic()

    def _acquire_claim(self, task: _Task,
                       records: dict[str, RunRecord],
                       results: dict[str, Any]) -> str:
        """Lease ``task``'s cache key, or learn why not (non-blocking).

        Returns ``"run"`` (lease held or claims disabled -- launch the
        runner), ``"hit"`` (the foreign claimant stored the result
        while we waited; a cache-hit record was emitted), or ``"wait"``
        (a live foreign claim exists -- poll again in
        :data:`CLAIM_POLL_S`).  A stale claim (dead or
        TTL-expired holder) is broken and re-contested; a waiter that
        exceeds its own TTL-sized budget runs anyway, so claims can
        delay but never deadlock a sweep.
        """
        if not self._claims_enabled(task):
            return "run"
        while True:
            if task.claimed:
                return "run"
            # A waiter re-checks the store before contesting the
            # lease: the winner's protocol is put-then-release, so a
            # released claim usually means the result is sitting there.
            if task.claim_wait_start and self._shared_hit(
                    task, records, results):
                return "hit"
            if self.cache.claim(task.experiment_id, task.fingerprint):
                task.claimed = True
                if task.claim_wait_start and self._shared_hit(
                        task, records, results):
                    # put landed between our re-check and the claim
                    self._release_claim(task)
                    return "hit"
                self._settle_claim_wait(task)
                return "run"
            if not task.claim_wait_start and self._shared_hit(
                    task, records, results):
                return "hit"  # lost the race but the winner was faster
            holder = self.cache.claim_holder(task.experiment_id,
                                             task.fingerprint)
            now = time.monotonic()
            if holder is None:
                continue  # lease vanished between checks; re-contest
            if task.claim_wait_start == 0.0:
                task.claim_wait_start = now
                task.claim_deadline = now + engine_cache.CLAIM_TTL_S
                self.cache.note_claim_wait()
            if self.cache.claim_is_stale(holder):
                self.cache.break_claim(task.experiment_id,
                                       task.fingerprint)
                continue
            if now >= task.claim_deadline:
                # Waited a full TTL: compute anyway rather than trust
                # the foreign claimant any longer.
                self._settle_claim_wait(task)
                return "run"
            return "wait"

    def _shared_hit(self, task: _Task, records: dict[str, RunRecord],
                    results: dict[str, Any]) -> bool:
        """Serve ``task`` from an entry a foreign claimant stored."""
        with span("engine.lookup", experiment=task.experiment_id,
                  shared=True):
            hit, result = self.cache.get(task.experiment_id,
                                         task.fingerprint)
        if not hit:
            return False
        self._settle_claim_wait(task)
        self._beat()
        results[task.experiment_id] = result
        records[task.experiment_id] = RunRecord(
            experiment_id=task.experiment_id,
            status=STATUS_OK,
            wall_time_s=task.active_s,
            cache_hit=True,
            attempts=task.attempts,
            started_at=task.started_at or wall_now(),
            phases=dict(task.phases),
        )
        return True

    def _store(self, task: _Task, result: Any) -> None:
        if self.cache is None or task.fingerprint is None:
            return
        store_start = time.monotonic()
        with span("engine.store", experiment=task.experiment_id):
            self.cache.put(task.experiment_id, task.fingerprint, result)
        self._release_claim(task)
        task.add_phase("store", time.monotonic() - store_start)
        self._apply_cache_fault(task)

    # -- fault-injection hooks ----------------------------------------

    def _runner_fault(self, task: _Task) -> FaultSpec | None:
        """The fault (if any) to inject into this attempt's runner."""
        plan = self.config.fault_plan
        if plan is None:
            return None
        fault = plan.runner_fault(task.experiment_id, task.attempts)
        if fault is not None:
            self._fired.append(FiredFault(
                task.experiment_id, task.attempts, fault.kind))
        return fault

    def _apply_cache_fault(self, task: _Task) -> None:
        """Tear this experiment's stored entry if the plan says so."""
        plan = self.config.fault_plan
        if plan is None or self.cache is None \
                or task.fingerprint is None:
            return
        fault = plan.cache_fault(task.experiment_id)
        if fault is None:
            return
        path = self.cache.path_for(task.experiment_id, task.fingerprint)
        if tear_cache_entry(path):
            self._fired.append(FiredFault(
                task.experiment_id, task.attempts, fault.kind))

    def _schedule_retry(self, task: _Task,
                        pending: deque[_Task]) -> None:
        """Requeue with exponential backoff and deterministic jitter."""
        delay = RETRY_BACKOFF.delay_s(
            task.experiment_id, task.attempts)
        task.ready_at = time.monotonic()
        task.not_before = task.ready_at + delay
        add_counter("engine.retries")
        _log.warning("task.retry", experiment=task.experiment_id,
                     attempt=task.attempts, delay_s=round(delay, 6),
                     error=task.last_error)
        pending.append(task)

    # -- dispatch -----------------------------------------------------

    def _dispatch(self, pending: deque[_Task],
                  records: dict[str, RunRecord],
                  results: dict[str, Any]) -> None:
        """Launch batches and collect their outcomes until all settle.

        The process executor keeps up to ``jobs`` forked workers in
        flight.  The inline executor is the same loop with one slot and
        single-task batches, each run in this process as it launches,
        so it is collected at once and no timeout applies.
        """
        inline = self.config.executor == EXECUTOR_INLINE
        ctx = None if inline else _mp_context()
        capacity = 1 if inline else self.config.jobs
        max_attempts = 1 + self.config.retries
        running: list[_Slot] = []

        while pending or running:
            if self._aborted:
                self._abort_all(running, pending, records)
                break
            if self._interrupted and not running:
                # drained: every in-flight worker has been collected
                self._cancel_pending(pending, records)
                break
            now = time.monotonic()
            target = 1 if inline else self._chunk_target(len(pending))
            deferred: list[_Task] = []
            while (pending and not self._interrupted
                   and len(running) < capacity):
                task = pending.popleft()
                if not self._clear_to_launch(task, now, deferred,
                                             records, results):
                    continue
                batch = [task]
                # Only fresh tasks share a batch; retries run singly.
                while (task.attempts == 0 and len(batch) < target
                       and pending and pending[0].attempts == 0
                       and pending[0].not_before <= now):
                    candidate = pending.popleft()
                    if self._clear_to_launch(candidate, now, deferred,
                                             records, results):
                        batch.append(candidate)
                running.append(self._launch(ctx, batch))
            pending.extendleft(reversed(deferred))

            if not running:
                if self._interrupted:
                    continue  # loop back to the drain branch above
                if not pending:
                    break
                # every runnable task is waiting out its backoff or a
                # foreign claim's poll interval
                wake = min(task.not_before for task in pending)
                time.sleep(min(0.5, max(0.0,
                                        wake - time.monotonic())))
                continue
            running = self._poll(running, pending, records, results,
                                 max_attempts)

    def _clear_to_launch(self, task: _Task, now: float,
                         deferred: list[_Task],
                         records: dict[str, RunRecord],
                         results: dict[str, Any]) -> bool:
        """Whether ``task`` launches now.

        False when it was deferred (backoff window still open, or a
        live foreign claim to poll again) or served from the store.
        """
        if task.not_before > now:
            deferred.append(task)
            return False
        if task.attempts > 0 and self._retry_cache_hit(
                task, records, results):
            return False
        claim_state = self._acquire_claim(task, records, results)
        if claim_state == "wait":
            task.not_before = time.monotonic() + CLAIM_POLL_S
            deferred.append(task)
        return claim_state == "run"

    def _chunk_target(self, n_pending: int) -> int:
        """Fresh tasks to group per worker launch for this refill.

        Batching amortises process start-up over large sweeps; it never
        engages (target 1) while each worker would get at most ~4
        tasks, or under a fault plan (faults are injected per attempt
        and need per-task isolation).
        """
        if self.config.fault_plan is not None:
            return 1
        return min(8, max(1, n_pending // (self.config.jobs * 4)))

    def _launch(self, ctx, batch: list[_Task]) -> _Slot:
        """Start ``batch`` in a forked worker, or run it inline."""
        launched = time.monotonic()
        for task in batch:
            if task.attempts == 0:
                task.started_at = wall_now()
            if task.ready_at:
                # Split the wait since the task became runnable into
                # the deliberate backoff window (retry) and slot
                # contention (queue).
                waited = max(0.0, launched - task.ready_at)
                backoff_s = (min(waited, max(0.0, task.not_before
                                             - task.ready_at))
                             if task.attempts > 0 else 0.0)
                task.add_phase("retry", backoff_s)
                task.add_phase("queue", waited - backoff_s)
            task.attempts += 1
        fault = self._runner_fault(batch[0])  # fault batches are single
        ids = [task.experiment_id for task in batch]
        if ctx is None:
            slot = _Slot(tasks=batch, launched=launched)
            metrics = current_metrics()
            sample = sample_resources() if metrics is not None else None
            _run_batch(ids, slot.receive, fault, forked=False)
            if metrics is not None:
                record_resource_delta(metrics, sample, scope="task")
            return slot
        if self._blas_pools is None:
            self._blas_pools = openblas_pools()
        parent_conn, child_conn = ctx.Pipe(duplex=False)
        process = ctx.Process(
            target=_run_batch,
            args=(ids, child_conn.send, fault),
            kwargs={"blas_pools": self._blas_pools,
                    "blas_threads": _blas_budget(self.config.jobs,
                                                 _launching_sweeps),
                    "traced": tracing_enabled(),
                    "context": context_fields() or None},
            name=f"repro-engine-{ids[0]}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        if len(batch) > 1:
            add_counter("engine.chunks")
            observe("engine.chunk_size", len(batch), COUNT_BUCKETS)
        # The per-experiment budget applies to each task in the batch.
        deadline = (launched + self.config.timeout_s * len(batch)
                    if self.config.timeout_s is not None else None)
        return _Slot(tasks=batch, launched=launched, deadline=deadline,
                     process=process, conn=parent_conn)

    def _poll(self, running: list[_Slot], pending: deque[_Task],
              records: dict[str, RunRecord], results: dict[str, Any],
              max_attempts: int) -> list[_Slot]:
        """Wait for worker output; collect finished and overdue slots.

        Pipes are read as messages arrive, so a worker whose outcome
        exceeds the OS pipe buffer never blocks in ``send``.  Returns
        the slots still running.
        """
        forked = [slot for slot in running if slot.process is not None]
        ready: set = set()
        if forked:
            timeout = self._poll_timeout(forked, pending
                                         if len(running)
                                         < self.config.jobs else ())
            # Capped so a cross-thread abort() takes effect promptly
            # even when no per-task deadline is armed.
            timeout = 0.5 if timeout is None else min(timeout, 0.5)
            ready = set(_connection_wait(
                [handle for slot in forked
                 for handle in (slot.conn, slot.process.sentinel)],
                timeout=timeout))
        now = time.monotonic()

        still_running: list[_Slot] = []
        for slot in running:
            timed_out = False
            if slot.process is not None:  # inline slots ran at launch
                finished = ((slot.conn in ready and slot.drain())
                            or slot.process.sentinel in ready)
                timed_out = (not finished and slot.deadline is not None
                             and now >= slot.deadline)
                if not (finished or timed_out):
                    still_running.append(slot)
                    continue
                if timed_out:
                    self._kill(slot)
                else:
                    slot.drain()  # messages sent just before exit
                slot.process.join(timeout=5.0)
                slot.conn.close()
            self._collect(slot, pending, records, results, max_attempts,
                          timed_out=timed_out)
        return still_running

    @staticmethod
    def _poll_timeout(running: list[_Slot],
                      waiting: Sequence[_Task] = ()) -> float | None:
        wakes = [slot.deadline for slot in running
                 if slot.deadline is not None]
        wakes += [task.not_before for task in waiting]
        if not wakes:
            return None
        return max(0.0, min(wakes) - time.monotonic()) + 0.01

    @staticmethod
    def _kill(slot: _Slot) -> None:
        slot.process.terminate()
        slot.process.join(timeout=5.0)
        if slot.process.is_alive():
            slot.process.kill()
            slot.process.join(timeout=5.0)

    def _collect(self, slot: _Slot, pending: deque[_Task],
                 records: dict[str, RunRecord],
                 results: dict[str, Any],
                 max_attempts: int, timed_out: bool) -> None:
        """Settle every task of a finished or overdue batch.

        A reported task is stored and recorded with the runner time the
        worker measured.  A task the worker never reached (crash, exit,
        or the batch deadline) is retried singly, so one bad task
        cannot take its batch-mates' results down with it.
        """
        if slot.payload:
            trace = current_trace()
            if trace is not None:
                trace.merge_payload(slot.payload)
        unreported = [task for task in slot.tasks
                      if task.experiment_id not in slot.outcomes]
        # Telemetry only: split the batch's unmeasured wall time evenly
        # over the tasks that never reported.
        measured = sum(run_s for _, _, run_s in slot.outcomes.values())
        residual = (max(0.0, time.monotonic() - slot.launched - measured)
                    / max(1, len(unreported)))
        worker_pid = (slot.process.pid if slot.process is not None
                      else os.getpid())

        for task in slot.tasks:
            status, value, run_s = slot.outcomes.get(
                task.experiment_id, (None, None, residual))
            task.add_phase("run", run_s)
            record_span("engine.run", slot.launched, run_s,
                        experiment=task.experiment_id,
                        attempt=task.attempts, worker_pid=worker_pid,
                        timed_out=timed_out and status is None)
            if status == STATUS_OK:
                self._store(task, value)
                results[task.experiment_id] = value
                records[task.experiment_id] = self._finalize(
                    task, STATUS_OK)
                self._beat()
                continue
            if status == STATUS_FAILED:
                task.last_error = value
            elif timed_out:
                add_counter("engine.timeouts")
                task.last_error = (
                    f"timeout: exceeded "
                    f"{self.config.timeout_s * len(slot.tasks):.1f} s")
                _log.warning("task.timeout",
                             experiment=task.experiment_id,
                             attempt=task.attempts,
                             timeout_s=self.config.timeout_s)
            else:
                task.last_error = (
                    f"worker exited before a result "
                    f"(exit code {slot.process.exitcode})")
                _log.warning("task.worker_died",
                             experiment=task.experiment_id,
                             attempt=task.attempts,
                             exit_code=slot.process.exitcode)
            if task.attempts < max_attempts:
                self._schedule_retry(task, pending)
            else:
                records[task.experiment_id] = self._finalize(
                    task, STATUS_TIMEOUT if timed_out and status is None
                    else STATUS_FAILED)

    def _finalize(self, task: _Task, status: str) -> RunRecord:
        self._release_claim(task)
        return RunRecord(
            experiment_id=task.experiment_id,
            status=status,
            wall_time_s=task.active_s,
            cache_hit=False,
            attempts=task.attempts,
            error=None if status == STATUS_OK else task.last_error,
            started_at=task.started_at,
            phases=dict(task.phases),
        )


def run_experiments(experiment_ids: Sequence[str] | None = None,
                    *, config: EngineConfig | None = None,
                    **overrides: Any) -> SweepResult:
    """One-call sweep: ``run_experiments(["E-T1"], jobs=4)``.

    Keyword overrides are applied on top of ``config`` (or the
    defaults), so callers rarely need to build an
    :class:`EngineConfig` by hand.
    """
    base = config or EngineConfig()
    if overrides:
        base = replace(base, **overrides)
    return ExecutionEngine(base).run(experiment_ids)
