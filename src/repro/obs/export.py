"""Trace export: the one trace artifact and the phase breakdown.

:func:`write_trace` writes the Trace Event Format consumed by
``chrome://tracing`` and `Perfetto <https://ui.perfetto.dev>`_: a
``{"traceEvents": [...]}`` object of complete (``"ph": "X"``) events
with microsecond ``ts`` / ``dur``, one lane per pid/tid, plus ``"M"``
metadata events naming the processes.  Span attributes land in each
event's ``args``.  The object also carries a top-level ``metrics`` key
holding :func:`~repro.obs.metrics.registry_summary` of the trace's
registry; the format keeps any other top-level property as trace
metadata, so the file that opens in Perfetto is the one
``repro trace --in`` and ``repro stats --in`` read.

:func:`phase_breakdown` is the aggregation behind every ``repro trace``
table, live or from an artifact: spans grouped by name with count /
total / mean / max and the share of the wall interval they cover,
sorted by total time descending.
:func:`validate_chrome_trace` is the malformed-trace gate used by CI.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Iterable

from repro.obs.metrics import registry_summary
from repro.obs.trace import SpanRecord, Trace


def to_chrome_events(trace: Trace) -> list[dict]:
    """Complete + metadata trace events, ``ts`` relative to the trace.

    Timestamps are microseconds from the trace's creation instant so
    the viewer's time axis starts near zero regardless of uptime.
    """
    base_s = trace.start_monotonic_s
    events: list[dict] = []
    for pid in sorted({span.pid for span in trace.spans}):
        events.append({
            "ph": "M", "name": "process_name", "pid": pid, "tid": 0,
            "args": {"name": trace.name if pid == os.getpid()
                     else f"{trace.name} worker {pid}"},
        })
    for span in trace.spans:
        args: dict[str, Any] = dict(span.attributes)
        if span.parent is not None:
            args["parent"] = span.parent
        events.append({
            "name": span.name,
            "cat": "repro",
            "ph": "X",
            "ts": max(0.0, (span.start_s - base_s) * 1e6),
            "dur": span.duration_s * 1e6,
            "pid": span.pid,
            "tid": span.tid,
            "args": args,
        })
    return events


def phase_breakdown(spans: Iterable[dict],
                    top: int | None = None) -> list[dict]:
    """Aggregate span dicts into per-phase timing rows.

    ``spans`` are dicts with ``name``, ``duration_s`` and, for the wall
    interval, ``start_s`` (:meth:`SpanRecord.to_json_dict` or a trace
    artifact's events mapped back).  Each row: ``{"name", "count",
    "total_s", "mean_s", "max_s", "share"}`` where ``share`` is the
    phase's total over the wall interval the given spans cover,
    earliest start to latest end (concurrent spans can push the column
    sum past 1.0; that is parallelism, not an accounting error).
    """
    grouped: dict[str, dict] = {}
    starts: list[float] = []
    ends: list[float] = []
    for span in spans:
        name = str(span.get("name", "?"))
        duration_s = float(span.get("duration_s") or 0.0)
        row = grouped.setdefault(name, {
            "name": name, "count": 0, "total_s": 0.0, "max_s": 0.0})
        row["count"] += 1
        row["total_s"] += duration_s
        row["max_s"] = max(row["max_s"], duration_s)
        if span.get("start_s") is not None:
            starts.append(float(span["start_s"]))
            ends.append(starts[-1] + duration_s)
    wall_s = max(ends) - min(starts) if starts else 0.0
    rows = sorted(grouped.values(),
                  key=lambda row: (-row["total_s"], row["name"]))
    if top is not None and top >= 0:
        rows = rows[:top]
    for row in rows:
        row["mean_s"] = row["total_s"] / row["count"]
        row["share"] = row["total_s"] / wall_s if wall_s > 0 else 0.0
    return rows


def write_trace(trace: Trace, path: Path | str) -> Path:
    """Write ``trace`` to ``path`` as the one trace artifact: Chrome
    trace events plus the ``metrics`` registry summary."""
    path = Path(path)
    payload = {
        "displayTimeUnit": "ms",
        "otherData": {"trace": trace.name, "epoch_s": trace.epoch_s},
        "traceEvents": to_chrome_events(trace),
        "metrics": registry_summary(trace.metrics),
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, sort_keys=True), "utf-8")
    return path


def validate_chrome_trace(payload: Any) -> list[str]:
    """Problems with a Chrome trace-event payload (empty list = valid).

    Accepts either the object form (``{"traceEvents": [...]}``) or the
    bare event-array form; requires at least one complete (``X``)
    event, and checks every ``X`` event for the fields Perfetto needs
    (string ``name``, numeric non-negative ``ts``/``dur``, integer
    ``pid``/``tid``).
    """
    errors: list[str] = []
    if isinstance(payload, dict):
        events = payload.get("traceEvents")
        if not isinstance(events, list):
            return ["payload has no traceEvents list"]
    elif isinstance(payload, list):
        events = payload
    else:
        return [f"payload is {type(payload).__name__}, "
                f"expected object or array"]
    complete = 0
    for index, event in enumerate(events):
        if not isinstance(event, dict):
            errors.append(f"event {index} is not an object")
            continue
        phase = event.get("ph")
        if phase == "M":
            continue
        if phase != "X":
            errors.append(f"event {index} has unsupported ph={phase!r}")
            continue
        complete += 1
        if not isinstance(event.get("name"), str) or not event["name"]:
            errors.append(f"event {index} has no name")
        for key in ("ts", "dur"):
            value = event.get(key)
            if not isinstance(value, (int, float)) or value < 0:
                errors.append(
                    f"event {index} has bad {key}={value!r}")
        for key in ("pid", "tid"):
            if not isinstance(event.get(key), int):
                errors.append(
                    f"event {index} has bad {key}={event.get(key)!r}")
    if complete == 0:
        errors.append("trace contains no complete (ph=X) events")
    return errors


__all__ = [
    "SpanRecord",
    "phase_breakdown",
    "to_chrome_events",
    "validate_chrome_trace",
    "write_trace",
]
