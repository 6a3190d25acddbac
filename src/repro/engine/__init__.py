"""Parallel, cached, observable experiment execution.

``repro.engine`` turns the experiment registry
(:mod:`repro.analysis.experiments`) into a schedulable workload:

* :class:`ExecutionEngine` / :func:`run_experiments` -- process-pool
  scheduler with per-experiment timeouts, failure isolation (one
  crashing runner never aborts the sweep), and bounded retries spaced
  by exponential backoff with deterministic jitter;
* :class:`~repro.engine.cache.ResultCache` -- content-addressed
  on-disk cache keyed by experiment id + a source fingerprint of the
  modules the runner transitively imports; entries are checksummed and
  written atomically, and corrupt entries are quarantined as misses;
* :class:`~repro.engine.records.RunRecord` /
  :class:`~repro.engine.records.RunJournal` -- per-execution records
  appended (flushed + fsynced) to a JSONL journal whose recovery
  skips torn lines;
* :class:`~repro.engine.metrics.EngineMetrics` -- aggregate sweep
  summary (outcomes, cache hit rate, parallel speedup);
* :mod:`~repro.engine.cpus` -- the CPUs this process may use, and the
  cap that gives each forked worker its share of them as OpenBLAS
  threads;
* fault injection -- :attr:`EngineConfig.fault_plan` accepts a
  :class:`~repro.reliability.faults.FaultPlan` so the chaos harness
  (:mod:`repro.reliability.chaos`) can prove every recovery path.

``python -m repro run-all``, ``scripts/generate_experiments_md.py``
and the benchmark suite all execute through this engine;
:func:`repro.analysis.run_experiment` remains the thin single-shot
path.
"""

from repro.engine.cache import (
    CacheStats,
    ClaimInfo,
    ResultCache,
    runner_fingerprint,
)
from repro.engine.metrics import EngineMetrics
from repro.engine.records import (
    STATUS_CANCELLED,
    STATUS_FAILED,
    STATUS_OK,
    STATUS_TIMEOUT,
    RunJournal,
    RunRecord,
)
from repro.engine.scheduler import (
    DEFAULT_CACHE_DIR,
    EngineConfig,
    ExecutionEngine,
    SweepResult,
    default_jobs,
    run_experiments,
)

__all__ = [
    "CacheStats",
    "ClaimInfo",
    "DEFAULT_CACHE_DIR",
    "EngineConfig",
    "EngineMetrics",
    "ExecutionEngine",
    "ResultCache",
    "RunJournal",
    "RunRecord",
    "STATUS_CANCELLED",
    "STATUS_FAILED",
    "STATUS_OK",
    "STATUS_TIMEOUT",
    "SweepResult",
    "default_jobs",
    "run_experiments",
    "runner_fingerprint",
]
