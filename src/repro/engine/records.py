"""Run records and the crash-safe JSONL run journal.

Every experiment execution -- cached or live, successful or not --
produces exactly one :class:`RunRecord`.  The record is the engine's
unit of observability: the scheduler appends each one to a JSONL
journal as it completes, and :mod:`repro.engine.metrics` aggregates a
sweep's records into an :class:`~repro.engine.metrics.EngineMetrics`
summary.

Journal schema (one JSON object per line)::

    {"experiment_id": "E-T2", "status": "ok", "wall_time_s": 0.012,
     "cache_hit": false, "attempts": 1, "error": null,
     "started_at": 1754380800.123,
     "phases": {"lookup": 0.001, "run": 0.011}}

``status`` is one of ``ok`` / ``failed`` / ``timeout`` /
``cancelled`` (the task was still pending when a graceful-shutdown
signal drained the sweep); ``error`` is the ``repr`` of the exception
for failed runs (or a worker-exit / timeout / interruption
description) and ``null`` otherwise; ``started_at`` is a unix
timestamp of the first attempt (monotonic-anchored, see
:func:`repro.obs.wall_now`).  ``phases`` maps phase name to seconds
spent in it across all attempts: ``lookup`` / ``run`` / ``store`` are
active work and sum to ``wall_time_s``; ``queue`` / ``retry`` measure
waiting (slot contention and backoff) and are excluded from
``wall_time_s``.

Crash safety is :mod:`repro.journal`'s: each batch of records is one
fsync'd ``write`` on an ``O_APPEND`` descriptor, and
:meth:`RunJournal.recover` skips truncated or interleaved lines
instead of losing the whole history.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Iterable

from repro import journal

STATUS_OK = "ok"
STATUS_FAILED = "failed"
STATUS_TIMEOUT = "timeout"
STATUS_CANCELLED = "cancelled"

STATUSES = (STATUS_OK, STATUS_FAILED, STATUS_TIMEOUT,
            STATUS_CANCELLED)

#: Experiment-id letter -> artifact family, e.g. ``E-T1`` -> table.
#: Families label the per-family latency histograms and the
#: ``repro stats`` / ``repro bench`` breakdowns.
EXPERIMENT_FAMILIES = {
    "T": "table",
    "F": "figure",
    "C": "claim",
    "V": "validation",
    "S": "scaling",
    "X": "extension",
    "E": "electrothermal",
}


def experiment_family(experiment_id: str) -> str:
    """Artifact family of an experiment id (``other`` when unknown)."""
    prefix, _, rest = experiment_id.partition("-")
    if prefix == "E" and rest:
        return EXPERIMENT_FAMILIES.get(rest[0], "other")
    return "other"


@dataclass(frozen=True)
class RunRecord:
    """The immutable outcome of one experiment execution."""

    experiment_id: str
    status: str
    wall_time_s: float
    cache_hit: bool
    attempts: int
    error: str | None = None
    started_at: float = 0.0
    phases: dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.status not in STATUSES:
            raise ValueError(
                f"status must be one of {STATUSES}, got {self.status!r}")

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK

    def to_json_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json_dict(cls, payload: dict) -> "RunRecord":
        return cls(
            experiment_id=payload["experiment_id"],
            status=payload["status"],
            wall_time_s=float(payload["wall_time_s"]),
            cache_hit=bool(payload["cache_hit"]),
            attempts=int(payload["attempts"]),
            error=payload.get("error"),
            started_at=float(payload.get("started_at", 0.0)),
            phases={str(name): float(value) for name, value
                    in (payload.get("phases") or {}).items()},
        )


class RunJournal:
    """Append-only JSONL journal of :class:`RunRecord` entries.

    The journal survives across sweeps: each engine run appends its
    records, so the file is a complete execution history of the cache
    directory it lives in.  Appends are durable (flush + fsync) and
    recovery is tolerant: a truncated trailing line from a crashed
    writer costs that one line, never the journal.
    """

    def __init__(self, path: Path | str) -> None:
        self.path = Path(path)

    def append(self, record: RunRecord) -> None:
        journal.append(self.path, [journal.encode(record.to_json_dict())],
                       durable=True)

    def append_many(self, records: Iterable[RunRecord]) -> None:
        journal.append(self.path, [journal.encode(record.to_json_dict())
                                   for record in records], durable=True)

    @classmethod
    def recover(cls, path: Path | str) -> tuple[list["RunRecord"], int]:
        """Parse a journal, skipping unparseable lines.

        Returns ``(records, skipped)`` where ``skipped`` counts lines
        lost to truncation (a writer died mid-append) or interleaving.
        A missing journal has no records.
        """
        return journal.replay(path, RunRecord.from_json_dict)
