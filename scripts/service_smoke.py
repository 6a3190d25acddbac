#!/usr/bin/env python
"""End-to-end smoke test of the experiment service daemon.

CI gate for ``repro serve``: starts the daemon as a subprocess, drives
it over HTTP with the :class:`~repro.service.client.ServiceClient`,
and asserts the service contract:

1. a **cold** job over the given experiments completes via the job API
   (submit -> wait -> done) with results for every experiment;
2. an identical **warm** resubmission is served from the shared result
   store (>= ``--min-hit-rate`` of its records are cache hits) and the
   store stats route shows the hits;
3. the JSONL event stream replays the full job lifecycle
   (queued -> running -> record* -> done);
4. **telemetry correlates end to end**: the cold job's client-minted
   ``trace_id`` appears on the job payload, on every one of its
   events, in the daemon's structured JSONL log, and (after shutdown)
   on its spans in the trace artifact across at least two process
   lanes; ``/metrics/history`` serves ring-buffer samples;
5. with ``--profile-out`` the cold job runs under the daemon's
   sampling profiler and its collapsed-stack artifact is non-empty
   and schema-valid;
6. ``SIGTERM`` shuts the daemon down gracefully: it drains, writes the
   service trace artifact, and exits with the interrupted code (4).

Exit 0 when every check passes; exit 1 with the failure list
otherwise.  The trace, log, and profile artifacts are left behind for
``scripts/check_trace.py``.

Usage::

    PYTHONPATH=src python scripts/service_smoke.py \
        --cache-dir smoke-store --trace-out service-trace.json \
        E-T1 E-T2
"""

from __future__ import annotations

import argparse
import json
import signal
import subprocess
import sys
import time
from pathlib import Path

from repro.obs import validate_collapsed, validate_log_records
from repro.service import ServiceClient, ServiceError

#: ``repro serve`` exits with this after a drain signal.
EXIT_INTERRUPTED = 4

DEFAULT_IDS = ("E-T1", "E-T2")


def _fail(problems: list[str], message: str) -> None:
    problems.append(message)
    print(f"FAIL: {message}", file=sys.stderr)


def _wait_for_port(log_path: Path, deadline_s: float) -> str:
    """The daemon announces its URL on stdout; poll the log for it."""
    deadline = time.monotonic() + deadline_s
    while time.monotonic() < deadline:
        if log_path.exists():
            text = log_path.read_text(encoding="utf-8")
            for token in text.split():
                if token.startswith("http://"):
                    return token
        time.sleep(0.1)
    raise RuntimeError(
        f"service did not announce a URL within {deadline_s:.0f}s; "
        f"log:\n{log_path.read_text(encoding='utf-8') if log_path.exists() else '<missing>'}")


def _run_job(client: ServiceClient, ids: list[str], tenant: str,
             timeout_s: float, profile: bool = False) -> dict:
    job = client.submit(ids, tenant=tenant, profile=profile)
    print(f"submitted {job['id']} (tenant={tenant}, "
          f"state={job['state']}, trace_id={job.get('trace_id')})")
    final = client.wait(job["id"], timeout_s=timeout_s)
    print(f"  -> {final['state']}, "
          f"{len(final.get('records', []))} record(s)")
    return final


def _check_correlation(client: ServiceClient, job: dict,
                       log_path: Path, problems: list[str]) -> None:
    """One shared trace_id on the job, its events, and the log."""
    trace_id = job.get("trace_id")
    if not trace_id:
        _fail(problems, f"job {job['id']} carries no trace_id")
        return
    events = list(client.events(job["id"]))
    untagged = [event["event"] for event in events
                if event.get("trace_id") != trace_id]
    if untagged:
        _fail(problems,
              f"events missing the job trace_id: {untagged}")
    else:
        print(f"trace_id {trace_id} on the job payload and all "
              f"{len(events)} of its events")
    if not log_path.is_file():
        _fail(problems, f"no structured log at {log_path}")
        return
    text = log_path.read_text(encoding="utf-8")
    count, log_problems = validate_log_records(text)
    if log_problems:
        _fail(problems, f"structured log invalid: "
                        f"{'; '.join(log_problems[:5])}")
        return
    correlated = sum(
        1 for line in text.splitlines() if line.strip()
        and json.loads(line).get("trace_id") == trace_id)
    print(f"structured log: {count} schema-valid record(s), "
          f"{correlated} correlated to {trace_id}")
    if not correlated:
        _fail(problems,
              f"no log record carries trace_id {trace_id}")


def _check_history(client: ServiceClient,
                   problems: list[str]) -> None:
    history = client.history()
    samples = history.get("samples") or []
    if not samples:
        _fail(problems, "/metrics/history returned no samples")
        return
    latest = samples[-1]
    print(f"metrics history: {len(samples)} sample(s), latest "
          f"seq={latest.get('seq')} jobs_done={latest.get('jobs_done')}")
    if "jobs_done" not in latest or "rss_peak_kb" not in latest:
        _fail(problems,
              f"history sample lacks expected keys: {sorted(latest)}")


def _check_profile(client: ServiceClient, job: dict, out: Path,
                   problems: list[str]) -> None:
    """Fetch, validate, and save a profiled job's collapsed stacks."""
    try:
        text = client.profile(job["id"])
    except ServiceError as exc:
        _fail(problems, f"profile fetch for {job['id']} failed: {exc}")
        return
    stacks, profile_problems = validate_collapsed(text)
    if profile_problems:
        _fail(problems, f"profile invalid: "
                        f"{'; '.join(profile_problems[:5])}")
        return
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(text, encoding="utf-8")
    print(f"profile: {stacks} collapsed stack(s) written to {out}")


def _check_trace_artifact(trace_out: Path, trace_id: str | None,
                          problems: list[str]) -> None:
    """Post-shutdown: the job's spans share one id across >= 2 pids."""
    if not trace_out.exists():
        _fail(problems, f"no service trace artifact at {trace_out}")
        return
    if not trace_id:
        return
    try:
        payload = json.loads(trace_out.read_text(encoding="utf-8"))
    except ValueError as exc:
        _fail(problems, f"trace artifact unreadable: {exc}")
        return
    spans = [event for event in payload.get("traceEvents") or []
             if event.get("ph") == "X"]
    tagged = [span for span in spans
              if (span.get("args") or {}).get("trace_id") == trace_id]
    lanes = {span.get("pid") for span in tagged}
    print(f"trace artifact: {len(tagged)}/{len(spans)} span(s) carry "
          f"{trace_id} across {len(lanes)} process lane(s)")
    if not tagged:
        _fail(problems,
              f"no span in {trace_out} carries trace_id {trace_id}")
    elif len(lanes) < 2:
        _fail(problems,
              f"job spans span only {len(lanes)} process lane(s); "
              f"expected daemon + worker")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("experiment_ids", nargs="*", metavar="id",
                        default=None,
                        help=f"experiments to sweep (default: "
                             f"{' '.join(DEFAULT_IDS)})")
    parser.add_argument("--cache-dir", default="smoke-store",
                        help="shared store directory")
    parser.add_argument("--trace-out", default="service-trace.json",
                        help="service trace artifact path")
    parser.add_argument("--job-timeout", type=float, default=300.0,
                        help="per-job wait deadline in seconds")
    parser.add_argument("--min-hit-rate", type=float, default=0.9,
                        help="required warm-resubmit cache-hit "
                             "fraction (default: %(default)s)")
    parser.add_argument("--profile-out", default=None, metavar="PATH",
                        help="run the cold job under the daemon's "
                             "sampling profiler and write its "
                             "collapsed stacks here")
    args = parser.parse_args()
    ids = list(args.experiment_ids or DEFAULT_IDS)
    problems: list[str] = []
    cold_trace_id: str | None = None

    log_path = Path(args.cache_dir) / "serve.log"
    log_path.parent.mkdir(parents=True, exist_ok=True)
    with log_path.open("w", encoding="utf-8") as log:
        daemon = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--cache-dir", args.cache_dir,
             "--trace-out", args.trace_out],
            stdout=log, stderr=subprocess.STDOUT)
    try:
        url = _wait_for_port(log_path, deadline_s=30.0)
        print(f"daemon up at {url} (pid {daemon.pid})")
        client = ServiceClient(url, timeout_s=60.0)

        health = client.health()
        if not health.get("ok"):
            _fail(problems, f"healthz not ok: {health}")

        cold = _run_job(client, ids, "smoke-cold", args.job_timeout,
                        profile=args.profile_out is not None)
        if cold["state"] != "done":
            _fail(problems,
                  f"cold job finished {cold['state']}: "
                  f"{cold.get('error')}")
        results = client.result(cold["id"])["results"] or {}
        missing = [i for i in ids if i not in results]
        if missing:
            _fail(problems, f"cold job results missing {missing}")
        cold_trace_id = cold.get("trace_id")
        _check_correlation(
            client, cold,
            Path(args.cache_dir) / "service" / "service.log.jsonl",
            problems)
        _check_history(client, problems)
        if args.profile_out is not None:
            _check_profile(client, cold, Path(args.profile_out),
                           problems)

        warm = _run_job(client, ids, "smoke-warm", args.job_timeout)
        records = warm.get("records", [])
        hits = sum(1 for record in records if record["cache_hit"])
        rate = hits / max(1, len(records))
        print(f"warm resubmit: {hits}/{len(records)} served from "
              f"the shared store ({100.0 * rate:.0f}%)")
        if warm["state"] != "done":
            _fail(problems,
                  f"warm job finished {warm['state']}: "
                  f"{warm.get('error')}")
        if rate < args.min_hit_rate:
            _fail(problems,
                  f"warm hit rate {rate:.2f} below required "
                  f"{args.min_hit_rate:.2f}")

        events = [event["event"] for event
                  in client.events(warm["id"])]
        for expected in ("queued", "running", "record", "done"):
            if expected not in events:
                _fail(problems,
                      f"event stream missing {expected!r}: {events}")

        store = client.store()
        print(f"store: {store['entries']} entries, "
              f"{store['bytes']} bytes, "
              f"hit rate {store['hit_rate']}")
        if store["entries"] < len(ids):
            _fail(problems,
                  f"store holds {store['entries']} entries, "
                  f"expected >= {len(ids)}")
        if not store["journal_hits"]:
            _fail(problems, "store journal shows no cache hits "
                            "after a warm resubmission")

        stats = client.stats()
        done = stats["counters"].get("service.jobs_done", 0)
        if done < 2:
            _fail(problems,
                  f"service.jobs_done counter is {done}, expected 2")
    except (ServiceError, RuntimeError, OSError) as exc:
        _fail(problems, f"smoke driver error: {exc}")
    finally:
        daemon.send_signal(signal.SIGTERM)
        try:
            code = daemon.wait(timeout=60.0)
        except subprocess.TimeoutExpired:
            daemon.kill()
            code = daemon.wait()
            _fail(problems, "daemon did not drain within 60s of "
                            "SIGTERM (killed)")
        else:
            print(f"daemon exited {code} after SIGTERM")
            if code != EXIT_INTERRUPTED:
                _fail(problems,
                      f"expected graceful-drain exit code "
                      f"{EXIT_INTERRUPTED}, got {code}")

    _check_trace_artifact(Path(args.trace_out), cold_trace_id,
                          problems)

    if problems:
        print(f"\nservice smoke FAILED "
              f"({len(problems)} problem(s))", file=sys.stderr)
        return 1
    print("\nservice smoke passed: cold sweep, warm shared-store "
          "resubmit, event stream, end-to-end trace correlation, "
          "graceful SIGTERM drain")
    return 0


if __name__ == "__main__":
    sys.exit(main())
