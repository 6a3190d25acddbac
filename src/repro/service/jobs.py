"""Job model for the experiment service: specs, lifecycle, events.

A **job** is one client-submitted sweep travelling through the service:

    submitted -> queued -> running -> done | failed
                   \\-> cancelled (while still queued)

:class:`JobSpec` is the validated wire form of a submission (tenant,
experiment ids, priority class, engine knobs); :class:`Job` is the
daemon-side state machine.  Every transition and every finished run
record appends a :class:`JobEvent` to the job's in-memory event list
*and* to a per-job JSONL event file under the service directory, so
clients can stream progress (``GET /v1/jobs/<id>/events``) and a
crashed daemon leaves an audit trail next to the engine's own run
journal.

Events are plain dicts on the wire::

    {"seq": 3, "ts": 1754380800.2, "event": "record",
     "job": "j-000002", "experiment_id": "E-T1", "status": "ok",
     "cache_hit": true}

Engine results can contain numpy scalars and arrays; job payloads are
sanitised with :func:`json_safe` before they touch a socket.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from repro import journal
from repro.errors import ReproError
from repro.obs import wall_now

#: Priority classes, highest first; the queue drains in this order.
PRIORITIES = ("high", "normal", "low")

JOB_QUEUED = "queued"
JOB_RUNNING = "running"
JOB_DONE = "done"
JOB_FAILED = "failed"
JOB_CANCELLED = "cancelled"

JOB_STATES = (JOB_QUEUED, JOB_RUNNING, JOB_DONE, JOB_FAILED,
              JOB_CANCELLED)

#: States a job never leaves.
TERMINAL_STATES = (JOB_DONE, JOB_FAILED, JOB_CANCELLED)

DEFAULT_TENANT = "default"

#: Distinct terminal/requeue reasons surfaced in status and stats.
REASON_STALL = "stall"
REASON_DEADLINE = "deadline_exceeded"
REASON_RECOVERED = "recovered"
REASON_RECOVERY_EXHAUSTED = "recovery_exhausted"

_SPEC_KEYS = frozenset((
    "experiments", "tenant", "priority", "timeout_s", "retries",
    "workers", "use_cache", "deadline_s", "idempotency_key",
    "trace_id", "profile",
))


def json_safe(value: Any) -> Any:
    """Recursively coerce a result payload into JSON-encodable types.

    Numpy scalars expose ``item()``; numpy arrays expose ``tolist()``.
    Anything still foreign after that is stringified rather than
    allowed to blow up the response encoder.
    """
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return value
    if isinstance(value, dict):
        return {str(key): json_safe(item) for key, item in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [json_safe(item) for item in value]
    if hasattr(value, "item") and not hasattr(value, "__len__"):
        try:
            return json_safe(value.item())
        except (TypeError, ValueError):
            pass
    if hasattr(value, "tolist"):
        try:
            return json_safe(value.tolist())
        except (TypeError, ValueError):
            pass
    return repr(value)


@dataclass(frozen=True)
class JobSpec:
    """Validated submission payload."""

    experiment_ids: tuple[str, ...] = ()   # empty = whole registry
    tenant: str = DEFAULT_TENANT
    priority: str = "normal"
    timeout_s: float = 120.0
    retries: int = 0
    workers: int = 1
    use_cache: bool = True
    #: Wall-clock budget for the whole job; the watchdog fails the job
    #: (reason ``deadline_exceeded``) once it runs past this.  None
    #: means no deadline.
    deadline_s: float | None = None
    #: Client-chosen dedup key: resubmitting the same key returns the
    #: existing job instead of admitting a duplicate.
    idempotency_key: str | None = None
    #: Correlation id shared by every span, log record, and event this
    #: job produces.  Client-minted (``X-Repro-Trace-Id``) or minted by
    #: the daemon at submit -- always set before the WAL sees the spec.
    trace_id: str | None = None
    #: Attach the sampling profiler to this job's run.
    profile: bool = False

    def __post_init__(self) -> None:
        if self.priority not in PRIORITIES:
            raise ReproError(
                f"priority must be one of {PRIORITIES}, "
                f"got {self.priority!r}")
        if not self.tenant or not isinstance(self.tenant, str):
            raise ReproError("tenant must be a non-empty string")
        if len(self.tenant) > 64 or not all(
                ch.isalnum() or ch in "-_." for ch in self.tenant):
            raise ReproError(
                "tenant must be <= 64 chars of [a-zA-Z0-9._-], "
                f"got {self.tenant!r}")
        if self.timeout_s <= 0:
            raise ReproError(
                f"timeout_s must be > 0, got {self.timeout_s}")
        if self.retries < 0:
            raise ReproError(
                f"retries must be >= 0, got {self.retries}")
        if self.workers < 1:
            raise ReproError(
                f"workers must be >= 1, got {self.workers}")
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ReproError(
                f"deadline_s must be > 0, got {self.deadline_s}")
        if self.idempotency_key is not None:
            key = self.idempotency_key
            if (not isinstance(key, str) or not key or len(key) > 128
                    or not all(ch.isalnum() or ch in "-_.:"
                               for ch in key)):
                raise ReproError(
                    "idempotency_key must be <= 128 chars of "
                    f"[a-zA-Z0-9._:-], got {key!r}")
        if self.trace_id is not None:
            tid = self.trace_id
            if (not isinstance(tid, str) or not tid or len(tid) > 64
                    or not all(ch.isalnum() or ch == "-"
                               for ch in tid)):
                raise ReproError(
                    "trace_id must be <= 64 chars of [a-zA-Z0-9-], "
                    f"got {tid!r}")

    @classmethod
    def from_json_dict(cls, payload: Any) -> "JobSpec":
        """Parse and validate a wire submission; raises ReproError."""
        if not isinstance(payload, dict):
            raise ReproError("job spec must be a JSON object")
        unknown = sorted(set(payload) - _SPEC_KEYS)
        if unknown:
            raise ReproError(
                f"unknown job spec key(s) {unknown}; "
                f"known: {sorted(_SPEC_KEYS)}")
        experiments = payload.get("experiments", [])
        if not isinstance(experiments, list) or not all(
                isinstance(item, str) for item in experiments):
            raise ReproError("experiments must be a list of id strings")
        try:
            return cls(
                experiment_ids=tuple(dict.fromkeys(experiments)),
                tenant=payload.get("tenant", DEFAULT_TENANT),
                priority=payload.get("priority", "normal"),
                timeout_s=float(payload.get("timeout_s", 120.0)),
                retries=int(payload.get("retries", 0)),
                workers=int(payload.get("workers", 1)),
                use_cache=bool(payload.get("use_cache", True)),
                deadline_s=(None if payload.get("deadline_s") is None
                            else float(payload["deadline_s"])),
                idempotency_key=payload.get("idempotency_key"),
                trace_id=payload.get("trace_id"),
                profile=bool(payload.get("profile", False)),
            )
        except (TypeError, ValueError) as exc:
            raise ReproError(f"malformed job spec: {exc}") from None

    def to_json_dict(self) -> dict:
        return {
            "experiments": list(self.experiment_ids),
            "tenant": self.tenant,
            "priority": self.priority,
            "timeout_s": self.timeout_s,
            "retries": self.retries,
            "workers": self.workers,
            "use_cache": self.use_cache,
            "deadline_s": self.deadline_s,
            "idempotency_key": self.idempotency_key,
            "trace_id": self.trace_id,
            "profile": self.profile,
        }


_job_counter = itertools.count(1)


def next_job_id() -> str:
    """Process-unique, monotonically sortable job id."""
    return f"j-{os.getpid():05d}-{next(_job_counter):06d}"


def _event(record: dict) -> dict:
    if "seq" not in record:
        raise ValueError("not an event record")
    return record


class JobEventLog:
    """Append-only JSONL event file for one job (crash-tolerant)."""

    def __init__(self, path: Path | None) -> None:
        self.path = path

    def append(self, event: dict) -> None:
        if self.path is None:
            return
        try:
            journal.append(self.path, [journal.encode(event)],
                           durable=False)
        except OSError:
            pass  # event files are best-effort observability

    def replay(self) -> tuple[list[dict], int]:
        """Read back the event file, tolerating a torn final line.

        Returns ``(events, skipped)`` where ``skipped`` counts lines
        dropped because they did not parse (a writer killed mid-append
        leaves exactly such a partial record).  Events are returned in
        file order with sequence numbers as written.
        """
        if self.path is None:
            return [], 0
        try:
            return journal.replay(self.path, _event)
        except OSError:
            return [], 0


@dataclass
class Job:
    """Daemon-side job state; all mutation under ``lock``."""

    id: str
    spec: JobSpec
    state: str = JOB_QUEUED
    submitted_at: float = field(default_factory=wall_now)
    started_at: float | None = None
    finished_at: float | None = None
    error: str | None = None
    #: EngineMetrics.to_json_dict() of the finished sweep.
    metrics: dict | None = None
    #: RunRecord.to_json_dict() per record of the finished sweep.
    records: list[dict] = field(default_factory=list)
    #: zlib-compressed JSON of the finished sweep's results.  A daemon
    #: keeps up to twice ``WAL_KEEP_TERMINAL`` finished jobs, so the
    #: payload is held encoded: a several times smaller footprint than
    #: its object tree.
    results_blob: bytes | None = None
    interrupted: bool = False
    #: Times this job was requeued after an orphaned/stalled run.
    recovery_attempts: int = 0
    #: Why the job last changed state abnormally (``stall``,
    #: ``deadline_exceeded``, ``recovered``, ``recovery_exhausted``).
    reason: str | None = None
    #: Monotonic clock before which the queue must not dispatch this
    #: job (recovery/stall backoff).
    not_before: float = 0.0
    #: Collapsed-stack profile text when the job ran with
    #: ``spec.profile`` (served on ``/v1/jobs/<id>/profile``).
    profile_text: str | None = None
    events: list[dict] = field(default_factory=list)
    event_log: JobEventLog = field(
        default_factory=lambda: JobEventLog(None))
    #: When set, every transition is journalled here before clients see
    #: it (assigned by the daemon; None in unit tests).
    wal: Any = None
    lock: threading.Lock = field(default_factory=threading.Lock)
    #: One waker per follower streaming this job's events, called after
    #: every appended event (see :meth:`follow`).
    followers: list[Callable[[], None]] = field(
        default_factory=list, repr=False, compare=False)

    def store_results(self, results: Any) -> None:
        """Keep the finished sweep's results, json-safe and compressed."""
        self.results_blob = zlib.compress(
            json.dumps(json_safe(results)).encode("utf-8"))

    def results(self) -> Any:
        """The stored results payload (None until the job finishes)."""
        if self.results_blob is None:
            return None
        return json.loads(zlib.decompress(self.results_blob))

    def follow(self, wake: Callable[[], None]) -> None:
        """Call ``wake`` once per event appended from now on.

        ``wake`` runs on the appending thread, after the event is in
        ``events``; it must be quick and must not raise.
        """
        with self.lock:
            self.followers.append(wake)

    def unfollow(self, wake: Callable[[], None]) -> None:
        with self.lock:
            if wake in self.followers:
                self.followers.remove(wake)

    def add_event(self, kind: str, **data: Any) -> dict:
        """Record one lifecycle/progress event (thread-safe)."""
        with self.lock:
            event = self._keep_event(kind, data)
            followers = tuple(self.followers)
        self._publish(event, followers)
        return event

    def _publish(self, event: dict, followers: tuple) -> None:
        """Wake the followers, then log the event to the job's file."""
        for wake in followers:
            wake()
        self.event_log.append(event)

    def _keep_event(self, kind: str, data: dict) -> dict:
        """Append one event to ``events``; the caller holds ``lock``."""
        event = {"seq": len(self.events), "ts": wall_now(),
                 "event": kind, "job": self.id, **data}
        if self.spec.trace_id is not None:
            event.setdefault("trace_id", self.spec.trace_id)
        self.events.append(event)
        return event

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def transition(self, state: str, **data: Any) -> None:
        """Move to ``state`` and log the transition event.

        The WAL record is written first, so no client sees a state the
        journal does not hold yet.  The state, its timestamp, any
        ``reason`` or ``error`` in ``data`` and the event then change in
        one ``lock`` hold, so whoever sees a terminal state also sees
        the terminal event.
        """
        if state not in JOB_STATES:
            raise ReproError(f"unknown job state {state!r}")
        if self.wal is not None:
            self.wal.log_state(
                self.id, state, reason=data.get("reason", self.reason),
                error=data.get("error", self.error),
                recovery_attempts=self.recovery_attempts)
        with self.lock:
            self.state = state
            if state == JOB_RUNNING:
                self.started_at = wall_now()
            elif state in TERMINAL_STATES:
                self.finished_at = wall_now()
            if "reason" in data:
                self.reason = data["reason"]
            if "error" in data:
                self.error = data["error"]
            event = self._keep_event(state, data)
            followers = tuple(self.followers)
        self._publish(event, followers)

    def queue_wait_s(self) -> float | None:
        if self.started_at is None:
            return None
        return max(0.0, self.started_at - self.submitted_at)

    def wall_s(self) -> float | None:
        if self.started_at is None or self.finished_at is None:
            return None
        return max(0.0, self.finished_at - self.started_at)

    def to_json_dict(self, *, include_records: bool = True) -> dict:
        with self.lock:
            payload = {
                "id": self.id,
                "state": self.state,
                "tenant": self.spec.tenant,
                "priority": self.spec.priority,
                "trace_id": self.spec.trace_id,
                "profiled": self.profile_text is not None,
                "experiments": list(self.spec.experiment_ids),
                "submitted_at": self.submitted_at,
                "started_at": self.started_at,
                "finished_at": self.finished_at,
                "error": self.error,
                "interrupted": self.interrupted,
                "recovery_attempts": self.recovery_attempts,
                "reason": self.reason,
                "events": len(self.events),
            }
            if self.metrics is not None:
                payload["metrics"] = self.metrics
            if include_records and self.records:
                payload["records"] = list(self.records)
        return payload
