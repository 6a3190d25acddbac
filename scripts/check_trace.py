#!/usr/bin/env python
"""Validate an observability artifact produced by the repro tooling.

CI gate: after ``python -m repro trace``/``profile`` or a daemon run
this script confirms the artifact is well-formed before it is
uploaded.  Three kinds are accepted, auto-detected by default:

* **chrome** -- the trace artifact: its event list is validated
  (:func:`repro.obs.validate_chrome_trace`), the complete-event
  count is checked against ``--min-spans``, and its ``metrics`` key
  (counters, gauges, histogram bounds/counts invariants) is validated
  with :func:`repro.obs.validate_metrics_payload`;
* **log** -- a structured JSONL log file: every line must be a JSON
  object with the required record fields
  (:func:`repro.obs.validate_log_records`), with at least
  ``--min-records`` records;
* **profile** -- a collapsed-stack file (``frame;frame;... count``
  lines, :func:`repro.obs.validate_collapsed`) with at least
  ``--min-stacks`` distinct stacks.

Auto-detection: a JSON payload is a trace artifact unless it is a
single log record; non-JSON files whose first non-blank line is a JSON
object are logs, anything else is treated as a collapsed-stack
profile.

Exit 0 when the artifact loads and clears every check; exit 1 with
the problem list otherwise.

Usage::

    PYTHONPATH=src python scripts/check_trace.py trace.json
    PYTHONPATH=src python scripts/check_trace.py trace.json --min-spans 5
    PYTHONPATH=src python scripts/check_trace.py service.log.jsonl --kind log
    PYTHONPATH=src python scripts/check_trace.py job.profile.txt \
        --kind profile --min-stacks 1
"""

import argparse
import json
import sys
from pathlib import Path

from repro.obs import (
    validate_chrome_trace,
    validate_collapsed,
    validate_log_records,
    validate_metrics_payload,
)

KINDS = ("auto", "chrome", "log", "profile")


def _check_chrome(path, payload, min_spans):
    errors = validate_chrome_trace(payload)
    if errors:
        print(f"error: {path}: invalid Chrome trace: "
              + "; ".join(errors), file=sys.stderr)
        return 1
    events = (payload["traceEvents"] if isinstance(payload, dict)
              else payload)
    complete = [event for event in events if event.get("ph") == "X"]
    if len(complete) < min_spans:
        print(f"error: {path}: {len(complete)} complete events, "
              f"need at least {min_spans}", file=sys.stderr)
        return 1
    metrics = payload.get("metrics") if isinstance(payload, dict) \
        else None
    errors = validate_metrics_payload(metrics)
    if errors:
        print(f"error: {path}: invalid metrics:", file=sys.stderr)
        for problem in errors:
            print(f"  - {problem}", file=sys.stderr)
        return 1

    names = sorted({event["name"] for event in complete})
    lanes = {event["pid"] for event in complete}
    total_us = sum(event["dur"] for event in complete)
    print(f"{path}: {len(complete)} spans across {len(lanes)} "
          f"process lane(s), {total_us / 1e6:.3f}s recorded; "
          f"{len(metrics['counters'])} counter(s), "
          f"{len(metrics['gauges'])} gauge(s), "
          f"{len(metrics.get('histograms') or [])} histogram series")
    print(f"  span names: {', '.join(names[:10])}"
          + (" ..." if len(names) > 10 else ""))
    return 0


def _check_log(path, text, min_records):
    count, problems = validate_log_records(text)
    if problems:
        print(f"error: {path}: invalid structured log:",
              file=sys.stderr)
        for problem in problems[:20]:
            print(f"  - {problem}", file=sys.stderr)
        if len(problems) > 20:
            print(f"  ... and {len(problems) - 20} more",
                  file=sys.stderr)
        return 1
    if count < min_records:
        print(f"error: {path}: {count} log record(s), need at least "
              f"{min_records}", file=sys.stderr)
        return 1
    events = set()
    traced = 0
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        record = json.loads(line)
        events.add(record.get("event"))
        if record.get("trace_id"):
            traced += 1
    print(f"{path}: {count} schema-valid log record(s), "
          f"{traced} carrying a trace_id")
    names = sorted(str(name) for name in events)
    print(f"  events: {', '.join(names[:10])}"
          + (" ..." if len(names) > 10 else ""))
    return 0


def _check_profile(path, text, min_stacks):
    stacks, problems = validate_collapsed(text)
    if problems:
        print(f"error: {path}: invalid collapsed-stack profile:",
              file=sys.stderr)
        for problem in problems[:20]:
            print(f"  - {problem}", file=sys.stderr)
        return 1
    if stacks < min_stacks:
        print(f"error: {path}: {stacks} stack(s), need at least "
              f"{min_stacks}", file=sys.stderr)
        return 1
    samples = sum(int(line.rsplit(" ", 1)[1])
                  for line in text.splitlines() if line.strip())
    print(f"{path}: {stacks} distinct stack(s), "
          f"{samples} sample(s) total")
    return 0


def _detect_kind(payload, text):
    """chrome for JSON payloads; log vs profile for line files."""
    if payload is not None:
        if isinstance(payload, dict) and "event" in payload \
                and "ts" in payload:
            return "log"  # a one-record JSONL file parses as JSON
        return "chrome"
    for line in text.splitlines():
        line = line.strip()
        if line:
            return "log" if line.startswith("{") else "profile"
    return "profile"


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Validate a repro observability artifact "
                    "(trace, structured JSONL log, or collapsed-stack "
                    "profile).")
    parser.add_argument("trace", type=Path,
                        help="path to the artifact")
    parser.add_argument("--kind", choices=KINDS, default="auto",
                        help="artifact kind (default: auto-detect)")
    parser.add_argument("--min-spans", type=int, default=1,
                        help="minimum spans for trace artifacts "
                             "(default: %(default)s)")
    parser.add_argument("--min-records", type=int, default=1,
                        help="minimum records for log artifacts "
                             "(default: %(default)s)")
    parser.add_argument("--min-stacks", type=int, default=1,
                        help="minimum distinct stacks for profile "
                             "artifacts (default: %(default)s)")
    args = parser.parse_args(argv)

    if not args.trace.is_file():
        print(f"error: no artifact at {args.trace}", file=sys.stderr)
        return 1

    try:
        text = args.trace.read_text("utf-8")
    except OSError as exc:
        print(f"error: {args.trace}: {exc}", file=sys.stderr)
        return 1
    try:
        payload = json.loads(text)
    except ValueError:
        payload = None

    kind = args.kind
    if kind == "auto":
        kind = _detect_kind(payload, text)
    if kind == "chrome":
        if payload is None:
            print(f"error: {args.trace}: not valid JSON "
                  f"(required for --kind chrome)", file=sys.stderr)
            return 1
        return _check_chrome(args.trace, payload, args.min_spans)
    if kind == "log":
        return _check_log(args.trace, text, args.min_records)
    return _check_profile(args.trace, text, args.min_stacks)


if __name__ == "__main__":
    sys.exit(main())
