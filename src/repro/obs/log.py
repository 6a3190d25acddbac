"""Structured JSON-lines logging with trace correlation.

One log record is one JSON object on one line::

    {"ts": 1754380800.217, "level": "info", "logger": "service.daemon",
     "event": "job.dispatch", "pid": 4242,
     "trace_id": "9f2c...", "job_id": "j-04242-000003",
     "tenant": "bench", "queue_wait_s": 0.012}

Design constraints, in the order they were chosen:

* **no-op until configured** -- with no sink installed (and no
  ``REPRO_LOG_PATH`` in the environment) every log call returns after
  one module-global check, so instrumented paths cost effectively
  nothing in library use and unit tests;
* **monotonic-anchored wall timestamps** -- ``ts`` comes from
  :func:`~repro.obs.clock.wall_now`, the same clock-step-immune stamp
  every other artifact in this repository uses, so log lines, span
  exports, and job events sort consistently;
* **correlation by default** -- the active
  :mod:`~repro.obs.context` fields (``trace_id``/``job_id``/
  ``tenant``) are stamped into every record, which is what ties a
  daemon log line to the job events and worker spans of the same
  submission;
* **level filtering via the environment** -- ``REPRO_LOG_LEVEL``
  (``debug``/``info``/``warning``/``error``) filters at call time;
  ``REPRO_LOG_PATH`` configures a file sink lazily on first use so
  subprocesses (pool workers, smoke-test daemons) can be steered
  without code changes;
* **fork-safe file sink** -- each record is one ``O_APPEND`` write
  (:func:`repro.journal.append`) and no handle is held between
  records, so a forked engine worker logs to the same path and its
  lines interleave with the parent's instead of corrupting them.

:func:`validate_log_records` is the schema gate behind
``scripts/check_trace.py``.
"""

from __future__ import annotations

import io
import json
import os
import threading
from pathlib import Path
from typing import Any, TextIO

from repro import journal
from repro.obs.clock import wall_now
from repro.obs.context import context_fields

#: Level names in ascending severity, with their numeric ranks.
LEVELS = {"debug": 10, "info": 20, "warning": 30, "error": 40}

DEFAULT_LEVEL = "info"

LOG_LEVEL_ENV = "REPRO_LOG_LEVEL"
LOG_PATH_ENV = "REPRO_LOG_PATH"

#: Keys every record carries; extra fields ride alongside them.
RECORD_FIELDS = ("ts", "level", "logger", "event", "pid")


class _LogState:
    """Module-wide sink state (one sink per process)."""

    __slots__ = ("path", "stream", "level_rank", "lock", "env_checked")

    def __init__(self) -> None:
        self.path: Path | None = None
        self.stream: TextIO | None = None
        self.level_rank: int = LEVELS[DEFAULT_LEVEL]
        self.lock = threading.Lock()
        #: Lazily consult REPRO_LOG_PATH only once per configuration.
        self.env_checked = False


_state = _LogState()


def _parse_level(raw: str | None, fallback: str = DEFAULT_LEVEL) -> int:
    if raw is None or not raw.strip():
        return LEVELS[fallback]
    name = raw.strip().lower()
    if name not in LEVELS:
        raise ValueError(
            f"unknown log level {raw!r}; expected one of "
            f"{sorted(LEVELS)}")
    return LEVELS[name]


def configure_logging(path: Path | str | None = None, *,
                      stream: TextIO | None = None,
                      level: str | None = None) -> None:
    """Install a JSONL sink (a file path, an open stream, or both off).

    ``level`` defaults to ``REPRO_LOG_LEVEL`` (else ``info``).
    Reconfiguring replaces the previous sink.  Passing neither ``path``
    nor ``stream`` leaves logging disabled (but still applies the level
    for a later sink).
    """
    with _state.lock:
        _state.path = Path(path) if path is not None else None
        _state.stream = stream
        _state.level_rank = _parse_level(
            level if level is not None
            else os.environ.get(LOG_LEVEL_ENV))
        _state.env_checked = True


def reset_logging() -> None:
    """Drop any configured sink (tests; child processes opting out)."""
    with _state.lock:
        _state.path = None
        _state.stream = None
        _state.level_rank = LEVELS[DEFAULT_LEVEL]
        _state.env_checked = False


def logging_configured() -> bool:
    """True when a sink (file or stream) is installed or pending."""
    _maybe_env_configure()
    return _state.path is not None or _state.stream is not None


def current_log_path() -> Path | None:
    """The configured file sink, if any."""
    _maybe_env_configure()
    return _state.path


def _maybe_env_configure() -> None:
    """Adopt ``REPRO_LOG_PATH`` lazily, once, when nothing is set."""
    if _state.env_checked:
        return
    with _state.lock:
        if _state.env_checked:
            return
        _state.env_checked = True
        raw = os.environ.get(LOG_PATH_ENV, "").strip()
        if raw:
            _state.path = Path(raw)
        try:
            _state.level_rank = _parse_level(
                os.environ.get(LOG_LEVEL_ENV))
        except ValueError:
            _state.level_rank = LEVELS[DEFAULT_LEVEL]


def _emit(level: str, logger: str, event: str,
          fields: dict[str, Any]) -> None:
    _maybe_env_configure()
    if _state.path is None and _state.stream is None:
        return
    if LEVELS[level] < _state.level_rank:
        return
    record: dict[str, Any] = {
        "ts": wall_now(),
        "level": level,
        "logger": logger,
        "event": event,
        "pid": os.getpid(),
    }
    record.update(context_fields())
    for key, value in fields.items():
        if key not in record:
            record[key] = value
    try:
        line = json.dumps(record, sort_keys=True,
                          default=repr) + "\n"
    except (TypeError, ValueError):
        return
    stream, path = _state.stream, _state.path
    try:
        if stream is not None:
            with _state.lock:
                stream.write(line)
                stream.flush()
        elif path is not None:
            journal.append(path, [line], durable=False)
    except (OSError, ValueError, io.UnsupportedOperation):
        pass  # logging is best-effort observability


class StructuredLogger:
    """A named handle; all methods take ``(event, **fields)``."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def debug(self, event: str, **fields: Any) -> None:
        _emit("debug", self.name, event, fields)

    def info(self, event: str, **fields: Any) -> None:
        _emit("info", self.name, event, fields)

    def warning(self, event: str, **fields: Any) -> None:
        _emit("warning", self.name, event, fields)

    def error(self, event: str, **fields: Any) -> None:
        _emit("error", self.name, event, fields)


def get_logger(name: str) -> StructuredLogger:
    """A structured logger bound to ``name`` (cheap; no registry)."""
    return StructuredLogger(name)


def validate_log_records(text: str) -> tuple[int, list[str]]:
    """Check JSONL log text against the record schema.

    Returns ``(records, problems)`` -- the count of valid records and
    a list of problems (empty = every non-blank line valid).  A torn
    final line (killed writer) is reported but tolerated by callers
    that want crash tolerance; schema violations on parseable lines
    are never tolerated.
    """
    problems: list[str] = []
    count = 0
    lines = text.splitlines()
    for index, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except ValueError:
            problems.append(f"line {index}: not valid JSON")
            continue
        if not isinstance(record, dict):
            problems.append(f"line {index}: record is not an object")
            continue
        missing = [key for key in RECORD_FIELDS if key not in record]
        if missing:
            problems.append(f"line {index}: missing {missing}")
            continue
        if not isinstance(record["ts"], (int, float)) \
                or record["ts"] <= 0:
            problems.append(f"line {index}: bad ts {record['ts']!r}")
        if record["level"] not in LEVELS:
            problems.append(
                f"line {index}: unknown level {record['level']!r}")
        for key in ("logger", "event"):
            if not isinstance(record[key], str) or not record[key]:
                problems.append(
                    f"line {index}: bad {key} {record[key]!r}")
        if not isinstance(record["pid"], int):
            problems.append(
                f"line {index}: bad pid {record['pid']!r}")
        for key in ("trace_id", "job_id", "tenant"):
            if key in record and (not isinstance(record[key], str)
                                  or not record[key]):
                problems.append(
                    f"line {index}: bad {key} {record[key]!r}")
        count += 1
    return count, problems


__all__ = [
    "DEFAULT_LEVEL",
    "LEVELS",
    "LOG_LEVEL_ENV",
    "LOG_PATH_ENV",
    "StructuredLogger",
    "configure_logging",
    "current_log_path",
    "get_logger",
    "logging_configured",
    "reset_logging",
    "validate_log_records",
]
