"""Reliability subsystem: fault injection, crash-safe state, guarded numerics.

``repro.reliability`` makes the engine's failure handling *provable*
instead of hopeful:

* :mod:`repro.reliability.faults` -- deterministic, seedable
  :class:`FaultPlan` (crash / hang / transient / corrupt-cache /
  slow-start faults targeted by experiment id and attempt) that the
  scheduler consults through a single injection hook;
* :mod:`repro.reliability.chaos` -- :func:`run_chaos` executes a sweep
  under a named plan and reports which faults were absorbed vs
  surfaced (``repro chaos`` on the CLI);
* :mod:`repro.reliability.backoff` -- exponential retry backoff with
  deterministic jitter (replaces the scheduler's fixed retry);
* :mod:`repro.reliability.guard` -- :func:`guarded_solve` /
  :func:`guarded_linear_solve`: bracket/domain validation, NaN/Inf
  containment, one fallback strategy, and structured
  :class:`~repro.errors.CalibrationError` diagnostics for the device,
  electrothermal, and power-grid solvers.
"""

from repro.reliability.backoff import NO_BACKOFF, BackoffPolicy
from repro.reliability.chaos import (
    EXIT_OK,
    EXIT_RELIABILITY_BUG,
    EXIT_UNRECOVERABLE,
    ChaosReport,
    FaultOutcome,
    run_chaos,
)
from repro.reliability.faults import (
    BUILTIN_PLANS,
    CRASH_EXIT_CODE,
    FAULT_CORRUPT_CACHE,
    FAULT_CRASH,
    FAULT_HANG,
    FAULT_SLOW_START,
    FAULT_TRANSIENT,
    KINDS,
    FaultPlan,
    FaultSpec,
    FiredFault,
    apply_runner_fault,
    load_plan,
    tear_cache_entry,
)
from repro.reliability.guard import (
    FALLBACK_BISECT,
    FALLBACK_DENSE,
    FALLBACK_DIRECT,
    FALLBACK_RELAXATION,
    PRECONDITIONER_AMG,
    PRECONDITIONER_AUTO,
    PRECONDITIONER_CHOICES,
    PRECONDITIONER_ENV,
    PRECONDITIONER_JACOBI,
    GuardedRoot,
    GuardedSolution,
    SolveDiagnostics,
    guarded_linear_solve,
    guarded_solve,
)
from repro.reliability.precond import (
    MultilevelPreconditioner,
    PRECONDITIONER_CACHE,
    PreconditionerCache,
    build_multilevel,
    sparsity_fingerprint,
)

__all__ = [
    "BUILTIN_PLANS",
    "BackoffPolicy",
    "CRASH_EXIT_CODE",
    "ChaosReport",
    "EXIT_OK",
    "EXIT_RELIABILITY_BUG",
    "EXIT_UNRECOVERABLE",
    "FAULT_CORRUPT_CACHE",
    "FAULT_CRASH",
    "FAULT_HANG",
    "FAULT_SLOW_START",
    "FAULT_TRANSIENT",
    "FALLBACK_BISECT",
    "FALLBACK_DENSE",
    "FALLBACK_DIRECT",
    "FALLBACK_RELAXATION",
    "FaultOutcome",
    "FaultPlan",
    "FaultSpec",
    "FiredFault",
    "GuardedRoot",
    "GuardedSolution",
    "KINDS",
    "MultilevelPreconditioner",
    "NO_BACKOFF",
    "PRECONDITIONER_AMG",
    "PRECONDITIONER_AUTO",
    "PRECONDITIONER_CACHE",
    "PRECONDITIONER_CHOICES",
    "PRECONDITIONER_ENV",
    "PRECONDITIONER_JACOBI",
    "PreconditionerCache",
    "SolveDiagnostics",
    "apply_runner_fault",
    "build_multilevel",
    "guarded_linear_solve",
    "guarded_solve",
    "load_plan",
    "run_chaos",
    "sparsity_fingerprint",
    "tear_cache_entry",
]
