"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``list``
    Show every experiment id with its paper artifact and description.
``run <id>``
    Run one experiment and pretty-print its result.
``run-all [--jobs N] [--no-cache] [--cache-dir D] [--json] [ids...]``
    Run many (default: all) experiments through the execution engine:
    process pool, content-addressed result cache, per-experiment
    timeout/retries, JSONL run journal, metrics summary.
``chaos --plan P [--jobs N] [--json] [ids...]``
    Run a sweep under a named fault plan (crash/hang/transient/
    corrupt-cache/slow-start faults) and report which faults the
    engine absorbed vs surfaced; ``--list-plans`` shows the builtins.
    ``chaos --service`` instead SIGKILLs a live daemon mid-sweep,
    restarts it over the same state dir, and asserts the recovery
    contract: zero lost jobs, no recomputed keys, bounded requeues.
``trace [ids...] --out trace.json [--top N]``
    Run a sweep with the tracing layer active and write the trace
    artifact: Chrome/Perfetto trace events plus the metrics registry
    under ``metrics``; a per-phase breakdown table and counter dump go
    to stdout.  Every span of a direct run carries a freshly minted
    ``trace_id`` (pin it with ``--trace-id``).  ``--in artifact.json``
    instead reads a written artifact's events and renders the same
    breakdown offline; ``--job`` / ``--trace-id`` filter the spans to
    one job's lanes -- an empty or missing artifact reports "no trace
    data" and exits 0.
``stats [ids...] [--format table|prom|json]``
    Run a sweep with metrics active and report the distributions: a
    per-family run-latency table plus histogram, gauge and counter
    summaries (``table``), the Prometheus text exposition format
    (``prom``), or the full registry summary as JSON (``json``).
    ``--in`` renders a trace artifact's ``metrics`` (or a bare
    registry summary) offline with the same tables; empty/missing
    payloads exit 0 with "no stats data".
``top [--url U] [--once] [--interval S] [--iterations N]``
    Render the daemon's metrics history (the ``/metrics/history``
    ring buffer): queue depth, running jobs, verdict counters, RSS
    and job-latency quantiles per sample, refreshed every sampling
    interval until interrupted (or ``--once``).
``profile [ids...] [--out profile.txt] [--interval S] [--top N]``
    Run an inline sweep under the wall-clock sampling profiler and
    print the hottest functions; ``--out`` writes the collapsed-stack
    file (one ``frame;frame;... count`` line per stack, ready for
    flamegraph tooling).  Profiling a job on a live daemon instead is
    ``jobs submit --profile``.
``bench [ids...] [--quick] [--repeats N] [--out-dir D]``
    Run the perf-regression benchmark harness: median-of-N cold runs
    per experiment, written as a schema-versioned ``BENCH_*.json``
    snapshot and compared against the newest earlier snapshot in the
    output directory with a noise-aware threshold.
``serve [--host H] [--port P] [--queue-depth N] ...``
    Run the experiment service daemon: an HTTP/JSON job API with a
    bounded multi-tenant admission queue, dispatcher threads over the
    execution engine, and the shared result store.  SIGINT/SIGTERM
    drains in-flight jobs and exits with the interrupted code.  Flags
    set the deployment (address, store, bounds, dispatchers, logs); the
    watchdog scan, recovery backoff, WAL retention, metrics-history
    window and profiler interval are constants of
    :mod:`repro.service.daemon`.
``jobs <submit|list|status|events|results|cancel|stats|store|shutdown>``
    Client for a running service: submit a sweep and optionally wait,
    inspect or cancel jobs, stream JSONL events, read service metrics.
``cache <stats|prune> [--cache-dir D]``
    Inspect the shared result store (entry count, bytes, hit rate,
    quarantine and claim populations) or prune it by age / entry
    count / total size with LRU eviction.
``roadmap``
    Print the ITRS roadmap table the models are built on.

Exit codes
----------
``run-all``, ``trace`` and ``stats`` share their sweep flags and one
sweep path: 0 all experiments ok; 1 partial success (some ran, some
failed); 2 usage/configuration error; 3 total failure (nothing ok); 4
a drain signal (SIGINT/SIGTERM) interrupted the sweep -- in-flight
experiments finished and were journalled, pending ones were
cancelled.
``chaos``: 0 every recoverable fault absorbed; 1 an unrecoverable
fault surfaced (by design); 2 usage error; 3 a recoverable fault
surfaced or results were lost -- a reliability bug.  ``--service``
mode: 0 crash absorbed; 2 driver error; 3 recovery contract violated.
``bench``: 0 snapshot written and no regression (or nothing to compare
against); 1 a benchmark regressed past the threshold; 2 usage error;
3 a benchmarked experiment failed.
``serve``: 0 clean shutdown (``POST /v1/shutdown``); 4 stopped by a
drain signal.
``jobs``: 0 success; 1 the awaited job failed; 2 usage error; 5 the
service rejected the submission with backpressure (HTTP 429).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from contextlib import nullcontext
from pathlib import Path
from typing import Any, Callable, Sequence

from repro.analysis import EXPERIMENTS, run_experiment
from repro.analysis.report import render_dict_rows, render_table
from repro.bench import (
    DEFAULT_BASELINE_DIR,
    DEFAULT_REPEATS,
    QUICK_IDS,
    compare_snapshots,
    latest_baseline,
    load_snapshot,
    run_benchmarks,
    write_snapshot,
)
from repro.engine import (
    DEFAULT_CACHE_DIR,
    EngineConfig,
    SweepResult,
    default_jobs,
    run_experiments,
)
from repro.errors import ReproError
from repro.itrs import ITRS_2000
from repro.obs import (
    MetricsRegistry,
    SamplingProfiler,
    Trace,
    new_trace_id,
    phase_breakdown,
    registry_summary,
    to_prometheus,
    tracing,
    write_trace,
)
from repro.reliability import BUILTIN_PLANS, load_plan, run_chaos
from repro.service.chaos import run_service_chaos
from repro.service import (
    BackpressureError,
    PRIORITIES,
    QueueConfig,
    ServiceClient,
    ServiceConfig,
    ServiceError,
    StoreManager,
    run_service,
)

#: run-all exit codes (2 is argparse/config usage errors).
EXIT_ALL_OK = 0
EXIT_PARTIAL_FAILURE = 1
EXIT_TOTAL_FAILURE = 3
#: A drain signal stopped the sweep (or the daemon) gracefully.
EXIT_INTERRUPTED = 4
#: The service refused a submission with backpressure (HTTP 429).
EXIT_BACKPRESSURE = 5

DEFAULT_SERVICE_URL = "http://127.0.0.1:8023"


def _print_result(result: Any) -> None:
    if isinstance(result, dict):
        rows = result.get("rows")
        if isinstance(rows, list) and rows \
                and isinstance(rows[0], dict):
            print(render_dict_rows(rows))
            print()
        curves = result.get("curves") or result.get("series")
        if isinstance(curves, dict):
            for name in curves:
                print(f"curve: {name} ({len(curves[name])} points)")
            print()
        summary = result.get("summary")
        scalars = summary if isinstance(summary, dict) else (
            result if not (rows or curves) else None)
        if isinstance(scalars, dict) and scalars:
            width = max(len(key) for key in scalars)
            for key, value in scalars.items():
                print(f"  {key.ljust(width)}  {value}")
    else:
        print(result)


def _cmd_list() -> int:
    rows = [[experiment.id, experiment.paper_artifact,
             experiment.description]
            for experiment in EXPERIMENTS.values()]
    print(render_table(["id", "artifact", "description"], rows))
    return 0


def _cmd_run(experiment_id: str) -> int:
    try:
        result = run_experiment(experiment_id)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"error: {exc!r}", file=sys.stderr)
        return 3
    experiment = EXPERIMENTS[experiment_id]
    print(f"{experiment.id} -- {experiment.description} "
          f"({experiment.paper_artifact})\n")
    _print_result(result)
    return 0


def _error_tail(error: str | None, width: int = 60) -> str:
    """The *tail* of a captured exception -- the raise site and message
    land at the end of a traceback repr, so that is the useful part."""
    if not error:
        return ""
    flat = " ".join(error.split())
    if len(flat) <= width:
        return flat
    return "..." + flat[-(width - 3):]


def _sweep_rows(sweep: SweepResult) -> list[list[Any]]:
    rows = []
    for record in sweep.records:
        rows.append([record.experiment_id, record.status,
                     "hit" if record.cache_hit else "miss",
                     f"{record.wall_time_s:.3f}", record.attempts,
                     _error_tail(record.error)])
    return rows


def _sweep_exit_code(sweep: SweepResult) -> int:
    """0 all ok; 1 partial success; 3 total failure; 4 interrupted."""
    if sweep.interrupted:
        return EXIT_INTERRUPTED
    if sweep.metrics.all_ok:
        return EXIT_ALL_OK
    if sweep.metrics.ok > 0:
        return EXIT_PARTIAL_FAILURE
    return EXIT_TOTAL_FAILURE


def _resolve_jobs(args: argparse.Namespace) -> int:
    """Worker count: ``--jobs``/``--workers`` wins, then the
    ``REPRO_WORKERS``-aware default.

    Resolved per command invocation (not at parser build time) so a bad
    ``REPRO_WORKERS`` value is a clean usage error on the sweep
    commands and cannot break unrelated ones like ``repro roadmap``.
    """
    if args.jobs is not None:
        return args.jobs
    return default_jobs()


def _add_jobs_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs", "--workers", dest="jobs", type=int, default=None,
        help="worker processes (default: $REPRO_WORKERS if set, "
             "else min(4, CPUs))")


def _add_sweep_arguments(parser: argparse.ArgumentParser) -> None:
    """The sweep flags ``run-all``, ``trace`` and ``stats`` share."""
    parser.add_argument("experiment_ids", nargs="*", metavar="id",
                        help="experiment ids (default: all)")
    _add_jobs_argument(parser)
    parser.add_argument("--no-cache", action="store_true",
                        help="bypass the result cache")
    parser.add_argument("--cache-dir", default=str(DEFAULT_CACHE_DIR),
                        help=f"cache directory "
                             f"(default: {DEFAULT_CACHE_DIR})")
    parser.add_argument("--timeout", type=float, default=120.0,
                        help="per-experiment timeout in seconds")
    parser.add_argument("--retries", type=int, default=0,
                        help="retries per failing experiment")


def _run_sweep(args: argparse.Namespace,
               report: Callable[[SweepResult], None],
               trace: Trace | None = None,
               trace_id: str | None = None) -> int:
    """Run the sweep the shared flags describe, under ``trace`` when
    given, then ``report`` it; returns the sweep's exit code.

    A bad flag, a bad ``REPRO_WORKERS`` or an unknown id prints
    ``error: ...`` and returns 2 before ``report`` runs, so nothing is
    rendered or written.
    """
    try:
        config = EngineConfig(
            jobs=_resolve_jobs(args),
            timeout_s=args.timeout,
            retries=args.retries,
            cache_enabled=not args.no_cache,
            cache_dir=Path(args.cache_dir),
            trace_context=(None if trace_id is None
                           else {"trace_id": trace_id}),
        )
    except (ValueError, ReproError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        with nullcontext() if trace is None else tracing(trace):
            sweep = run_experiments(args.experiment_ids or None,
                                    config=config)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report(sweep)
    return _sweep_exit_code(sweep)


def _read_artifact(path: Path, what: str) -> Any:
    """The JSON payload ``--in`` names, or None after reporting
    "no <what> data" for a missing or unparseable file."""
    try:
        return json.loads(path.read_text("utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        print(f"no {what} data in {path}: {exc}")
        return None


def _cmd_run_all(args: argparse.Namespace) -> int:
    def report(sweep: SweepResult) -> None:
        if args.json:
            print(json.dumps({
                "records": [r.to_json_dict() for r in sweep.records],
                "metrics": sweep.metrics.to_json_dict(),
            }, indent=2, sort_keys=True))
            return
        print(render_table(
            ["id", "status", "cache", "time [s]", "attempts", "error"],
            _sweep_rows(sweep)))
        print()
        print(sweep.metrics.render())

    return _run_sweep(args, report)


def _cmd_chaos_service(args: argparse.Namespace) -> int:
    """SIGKILL/restart recovery drill against a real daemon."""
    import tempfile

    def run(state_dir: str) -> int:
        report = run_service_chaos(
            state_dir,
            experiment_ids=args.experiment_ids or None,
            job_timeout_s=args.job_timeout,
            out=(lambda *_: None) if args.json else print)
        if args.json:
            print(json.dumps(report.to_json_dict(), indent=2,
                             sort_keys=True))
        else:
            print()
            print(report.render())
        return report.exit_code

    state_dir = args.state_dir or args.cache_dir
    if state_dir is not None:
        return run(state_dir)
    with tempfile.TemporaryDirectory(
            prefix="repro-service-chaos-") as tmp:
        return run(tmp)


def _cmd_chaos(args: argparse.Namespace) -> int:
    if args.service:
        return _cmd_chaos_service(args)
    if args.list_plans:
        rows = [[plan.name, len(plan.faults),
                 ", ".join(sorted({s.kind for s in plan.faults}))]
                for plan in BUILTIN_PLANS.values()]
        print(render_table(["plan", "faults", "kinds"], rows))
        return 0
    if args.plan is None:
        print("error: --plan is required (or use --list-plans)",
              file=sys.stderr)
        return 2
    try:
        plan = load_plan(args.plan)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        report = run_chaos(
            plan,
            args.experiment_ids or None,
            jobs=_resolve_jobs(args),
            timeout_s=args.timeout,
            retries=args.retries,
            cache_dir=args.cache_dir,
        )
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(report.to_json_dict(), indent=2,
                         sort_keys=True))
    else:
        print(report.render())
    return report.exit_code


def _artifact_spans(payload: Any) -> list[dict]:
    """Span dicts from a trace artifact's complete (``ph=X``) events
    (``ts`` and ``dur`` are microseconds there)."""
    if not isinstance(payload, (dict, list)):
        return []
    events = (payload.get("traceEvents")
              if isinstance(payload, dict) else payload)
    spans: list[dict] = []
    for event in events if isinstance(events, list) else ():
        if isinstance(event, dict) and event.get("ph") == "X":
            ts = event.get("ts")
            spans.append({
                "name": event.get("name", "?"),
                "start_s": None if ts is None else float(ts) / 1e6,
                "duration_s": float(event.get("dur") or 0.0) / 1e6,
                "pid": event.get("pid", 0),
                "attributes": dict(event.get("args") or {}),
            })
    return spans


def _filter_spans(spans: list[dict], job_id: str | None,
                  trace_id: str | None) -> list[dict]:
    """Spans whose correlation attributes match every given filter."""
    if job_id is None and trace_id is None:
        return spans
    kept = []
    for span in spans:
        attributes = span.get("attributes") or {}
        if job_id is not None \
                and attributes.get("job_id") != job_id:
            continue
        if trace_id is not None \
                and attributes.get("trace_id") != trace_id:
            continue
        kept.append(span)
    return kept


def _phase_rows(breakdown: list[dict]) -> list[list[Any]]:
    return [[row["name"], row["count"], f"{row['total_s']:.4f}",
             f"{row['mean_s']:.4f}", f"{row['max_s']:.4f}",
             f"{100.0 * row['share']:.1f}%"]
            for row in breakdown]


_PHASE_HEADERS = ["phase", "count", "total [s]", "mean [s]",
                  "max [s]", "share"]


def _render_span_lanes(spans: list[dict]) -> str:
    """Per-process lane summary for a filtered span set."""
    lanes: dict[Any, dict] = {}
    for span in spans:
        lane = lanes.setdefault(span.get("pid", 0),
                                {"count": 0, "total_s": 0.0})
        lane["count"] += 1
        lane["total_s"] += float(span.get("duration_s") or 0.0)
    rows = [[pid, lane["count"], f"{lane['total_s']:.4f}"]
            for pid, lane in sorted(lanes.items())]
    return render_table(["pid", "spans", "total [s]"], rows)


def _cmd_trace_artifact(args: argparse.Namespace) -> int:
    """Offline mode: render (and filter) a saved trace artifact."""
    path = Path(args.in_path)
    payload = _read_artifact(path, "trace")
    if payload is None:
        return EXIT_ALL_OK
    spans = _artifact_spans(payload)
    if not spans:
        print(f"no trace data in {path}")
        return EXIT_ALL_OK
    filtered = _filter_spans(spans, args.job, args.trace_id)
    if not filtered:
        wanted = " ".join(
            part for part in (
                f"job_id={args.job}" if args.job else "",
                f"trace_id={args.trace_id}" if args.trace_id else "")
            if part)
        print(f"no trace data matching {wanted or 'filters'} "
              f"in {path} ({len(spans)} spans total)")
        return EXIT_ALL_OK
    print(render_table(
        _PHASE_HEADERS,
        _phase_rows(phase_breakdown(filtered, top=args.top))))
    print()
    print(_render_span_lanes(filtered))
    print(f"\n{len(filtered)} of {len(spans)} spans from {path}")
    return EXIT_ALL_OK


def _cmd_trace(args: argparse.Namespace) -> int:
    if args.in_path is not None:
        return _cmd_trace_artifact(args)
    # Direct runs mint their own correlation id (the daemon mints one
    # per job); every span -- including pool workers' -- carries it.
    trace_id = args.trace_id or new_trace_id()
    trace = Trace("repro-sweep")

    def report(sweep: SweepResult) -> None:
        out_path = write_trace(trace, args.out)
        span_dicts = [span.to_json_dict() for span in trace.spans]
        filtered = _filter_spans(span_dicts, args.job, None)
        if len(filtered) != len(span_dicts):
            print(f"{len(filtered)} of {len(span_dicts)} spans match "
                  f"job_id={args.job}")
            print()
        print(render_table(
            _PHASE_HEADERS,
            _phase_rows(phase_breakdown(filtered, top=args.top))))
        counters = trace.counters.as_dict()
        if counters:
            print()
            print(render_table(
                ["counter", "value"],
                [[name, f"{value:g}"]
                 for name, value in counters.items()]))
        print()
        print(sweep.metrics.render())
        print(f"\ntrace_id {trace_id}")
        print(f"trace ({len(trace)} spans) written to {out_path}")

    return _run_sweep(args, report, trace, trace_id)


STATS_FORMATS = ("table", "prom", "json")


def _format_seconds(value: Any) -> str:
    return "-" if value is None else f"{float(value):.4f}"


def _series_label(name: str, labels: dict[str, str]) -> str:
    if not labels:
        return name
    inner = ",".join(f"{key}={value}"
                     for key, value in sorted(labels.items()))
    return f"{name}{{{inner}}}"


def _stats_tables(summary: dict) -> str:
    """The ``repro stats`` table body from a registry summary, live or
    saved: run latency per experiment family (the ``engine.run_s``
    series' ``family`` label), then histograms, gauges and counters."""
    sections: list[str] = []
    family_rows = []
    histogram_rows = []
    for entry in summary.get("histograms") or []:
        if not isinstance(entry, dict):
            continue
        name = str(entry.get("name", "?"))
        labels = dict(entry.get("labels") or {})
        if name == "engine.run_s" and "family" in labels:
            family_rows.append([
                labels["family"], entry.get("count", 0),
                *(_format_seconds(entry.get(key))
                  for key in ("mean", "p50", "p90", "p99", "max"))])
        histogram_rows.append([
            _series_label(name, labels), entry.get("count", 0),
            *("-" if entry.get(key) is None
              else f"{float(entry[key]):.4g}"
              for key in ("mean", "p50", "p99", "max")),
        ])
    if family_rows:
        sections.append("run latency by experiment family:")
        sections.append(render_table(
            ["family", "runs", "mean [s]", "p50 [s]", "p90 [s]",
             "p99 [s]", "max [s]"], sorted(family_rows)))
    if histogram_rows:
        sections.append("histograms:")
        sections.append(render_table(
            ["series", "count", "mean", "p50", "p99", "max"],
            histogram_rows))
    gauges = summary.get("gauges") or {}
    if gauges:
        sections.append("gauges:")
        sections.append(render_table(
            ["gauge", "value"],
            [[name, f"{float(value):g}"]
             for name, value in sorted(gauges.items())]))
    counters = summary.get("counters") or {}
    if counters:
        sections.append("counters:")
        sections.append(render_table(
            ["counter", "value"],
            [[name, f"{float(value):g}"]
             for name, value in sorted(counters.items())]))
    return "\n\n".join(sections)


def _cmd_stats_artifact(args: argparse.Namespace) -> int:
    """Offline mode: render a saved metrics summary."""
    path = Path(args.in_path)
    payload = _read_artifact(path, "stats")
    if payload is None:
        return EXIT_ALL_OK
    # Accept a trace artifact (whose metrics key is a registry
    # summary) or a bare registry summary.
    summary = (payload.get("metrics")
               if isinstance(payload, dict)
               and isinstance(payload.get("metrics"), dict)
               else payload)
    if not isinstance(summary, dict) or not any(
            summary.get(key) for key in ("counters", "gauges",
                                         "histograms")):
        print(f"no stats data in {path}")
        return EXIT_ALL_OK
    if args.format == "prom":
        registry = MetricsRegistry()
        registry.merge_payload(summary)
        print(to_prometheus(registry), end="")
    elif args.format == "json":
        print(json.dumps(summary, indent=2, sort_keys=True))
    else:
        print(_stats_tables(summary))
    return EXIT_ALL_OK


def _cmd_stats(args: argparse.Namespace) -> int:
    if args.in_path is not None:
        return _cmd_stats_artifact(args)
    trace = Trace("repro-stats")

    def report(sweep: SweepResult) -> None:
        if args.format == "prom":
            print(to_prometheus(trace.metrics), end="")
        elif args.format == "json":
            print(json.dumps(registry_summary(trace.metrics), indent=2,
                             sort_keys=True))
        else:
            print(_stats_tables(registry_summary(trace.metrics)))
            print()
            print(sweep.metrics.render())

    return _run_sweep(args, report, trace)


def _cmd_bench(args: argparse.Namespace) -> int:
    ids = args.experiment_ids or (list(QUICK_IDS) if args.quick
                                  else None)
    if args.repeats < 1:
        print(f"error: --repeats must be >= 1, got {args.repeats}",
              file=sys.stderr)
        return 2
    try:
        snapshot = run_benchmarks(ids, repeats=args.repeats)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    out_dir = Path(args.out_dir)
    baseline_path = (None if args.no_compare
                     else latest_baseline(out_dir))
    path = write_snapshot(snapshot, out_dir)
    comparison = None
    if baseline_path is not None:
        comparison = compare_snapshots(load_snapshot(baseline_path),
                                       snapshot)
    if args.json:
        payload = {"snapshot_path": str(path), "snapshot": snapshot}
        if comparison is not None:
            payload["baseline_path"] = str(baseline_path)
            payload["comparison"] = comparison.to_json_dict()
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        rows = [[entry["id"], entry["family"],
                 _format_seconds(entry["median_s"]),
                 _format_seconds(entry["best_s"]),
                 f"{entry['peak_rss_kb'] / 1024.0:.1f}",
                 f"{entry['solver_iterations']:g}"]
                for entry in snapshot["benchmarks"]]
        print(render_table(
            ["id", "family", "median [s]", "best [s]", "peak RSS [MB]",
             "solver iters"], rows))
        print(f"\nsnapshot ({len(snapshot['benchmarks'])} "
              f"benchmark(s), {args.repeats} repeat(s)) "
              f"written to {path}")
        if comparison is None:
            print("no earlier snapshot to compare against"
                  if not args.no_compare else "comparison skipped")
        else:
            print(f"\nbaseline {baseline_path}")
            print(comparison.render())
    return 0 if comparison is None else comparison.exit_code


#: ``repro top`` columns: (sample key, header, formatter).
_TOP_COLUMNS: tuple[tuple[str, str], ...] = (
    ("queued", "queued"),
    ("running", "running"),
    ("jobs", "jobs"),
    ("jobs_done", "done"),
    ("jobs_failed", "failed"),
    ("requests", "requests"),
    ("rss_peak_kb", "rss [MB]"),
    ("service.job_wall_s.p50", "job p50 [s]"),
    ("service.job_wall_s.p99", "job p99 [s]"),
)


def _history_table(samples: list[dict]) -> str:
    rows = []
    for sample in samples:
        row: list[Any] = [sample.get("seq", "-")]
        for key, _header in _TOP_COLUMNS:
            value = sample.get(key)
            if value is None:
                row.append("-")
            elif key == "rss_peak_kb":
                row.append(f"{float(value) / 1024.0:.1f}")
            elif isinstance(value, float) and not value.is_integer():
                row.append(f"{value:.4g}")
            else:
                row.append(f"{value:g}" if isinstance(value, float)
                           else value)
        rows.append(row)
    return render_table(
        ["seq"] + [header for _key, header in _TOP_COLUMNS], rows)


def _cmd_top(args: argparse.Namespace) -> int:
    """Render the daemon's metrics-history ring buffer."""
    client = ServiceClient(args.url, timeout_s=args.http_timeout,
                           retries=args.http_retries)
    iterations = 1 if args.once else args.iterations
    since = 0
    shown = 0
    printed_any = False
    try:
        while True:
            try:
                payload = client.history(since=since,
                                         limit=args.limit)
            except ServiceError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
            samples = payload.get("samples") or []
            if samples:
                if printed_any:
                    print()
                print(_history_table(samples))
                printed_any = True
                next_seq = payload.get("next_seq")
                if isinstance(next_seq, int):
                    since = next_seq
            shown += 1
            if iterations and shown >= iterations:
                if not printed_any:
                    print("no metrics history yet (the daemon "
                          "samples once per interval)")
                return EXIT_ALL_OK
            interval = args.interval
            if interval is None:
                interval = float(payload.get("interval_s") or 1.0)
            time.sleep(max(0.05, interval))
    except KeyboardInterrupt:
        return EXIT_ALL_OK


def _cmd_profile(args: argparse.Namespace) -> int:
    """Inline sweep under the sampling profiler; hottest functions."""
    ids = args.experiment_ids or None
    try:
        # Inline executor: the wall-clock sampler only sees threads of
        # this process, so the sweep must not fork pool workers.
        config = EngineConfig(
            jobs=1,
            executor="inline",
            timeout_s=args.timeout,
            retries=0,
            cache_enabled=not args.no_cache,
            cache_dir=Path(args.cache_dir),
        )
        profiler = SamplingProfiler(args.interval)
    except (ValueError, ReproError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    profiler.start()
    try:
        sweep = run_experiments(ids, config=config)
    except ReproError as exc:
        profiler.stop()
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        profiler.stop()
    rows = [[row["function"], row["samples"],
             f"{100.0 * row['share']:.1f}%"]
            for row in profiler.top_functions(top=args.top)]
    if rows:
        print(render_table(["function", "samples", "share"], rows))
    else:
        print("no samples captured (sweep finished faster than one "
              f"sampling interval of {profiler.interval_s:g}s)")
    print(f"\n{profiler.samples} samples over "
          f"{profiler.duration_s:.3f}s "
          f"({len(profiler.collapsed())} distinct stacks)")
    if args.out:
        out_path = profiler.write_collapsed(args.out)
        print(f"collapsed stacks written to {out_path}")
    return _sweep_exit_code(sweep)


def _cmd_serve(args: argparse.Namespace) -> int:
    try:
        config = ServiceConfig(
            host=args.host,
            port=args.port,
            cache_dir=Path(args.cache_dir),
            queue=QueueConfig(max_depth=args.queue_depth,
                              max_per_tenant=args.tenant_depth),
            dispatchers=args.dispatchers,
            executor=args.executor,
            trace_out=(Path(args.trace_out)
                       if args.trace_out else None),
            store_max_bytes=args.store_max_bytes,
            store_max_entries=args.store_max_entries,
            store_max_age_s=args.store_max_age,
            stall_timeout_s=args.stall_timeout,
            max_recovery_attempts=args.max_recovery_attempts,
            log_path=Path(args.log_path) if args.log_path else None,
            log_level=args.log_level,
        )
    except (ValueError, ReproError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        signalled = run_service(config)
    except ReproError as exc:  # a busy port, an unreadable job WAL
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print("repro service stopped"
          + (" (drain signal)" if signalled else ""))
    return EXIT_INTERRUPTED if signalled else EXIT_ALL_OK


def _jobs_client(args: argparse.Namespace) -> ServiceClient:
    return ServiceClient(args.url, timeout_s=args.http_timeout,
                         retries=args.http_retries)


def _job_row(job: dict) -> list[Any]:
    return [job["id"], job["state"], job["tenant"], job["priority"],
            len(job.get("experiments", [])) or "all",
            _error_tail(job.get("error"), width=40)]


def _cmd_jobs(args: argparse.Namespace) -> int:
    client = _jobs_client(args)
    try:
        return _dispatch_jobs(args, client)
    except BackpressureError as exc:
        print(f"rejected: {exc} "
              f"(retry after {exc.retry_after_s:g}s)",
              file=sys.stderr)
        return EXIT_BACKPRESSURE
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _dispatch_jobs(args: argparse.Namespace,
                   client: ServiceClient) -> int:
    action = args.jobs_command
    if action == "submit":
        job = client.submit(
            args.experiment_ids or None, tenant=args.tenant,
            priority=args.priority, timeout_s=args.timeout,
            retries=args.retries, workers=args.workers,
            use_cache=not args.no_cache,
            deadline_s=args.deadline,
            idempotency_key=args.idempotency_key,
            profile=args.profile)
        if not args.wait:
            print(json.dumps(job, indent=2, sort_keys=True))
            return EXIT_ALL_OK
        final = client.wait(job["id"], timeout_s=args.wait_timeout)
        print(json.dumps(final, indent=2, sort_keys=True))
        return (EXIT_ALL_OK if final["state"] == "done"
                else EXIT_PARTIAL_FAILURE)
    if action == "list":
        jobs = client.jobs(args.tenant)
        print(render_table(
            ["id", "state", "tenant", "priority", "experiments",
             "error"], [_job_row(job) for job in jobs]))
        return EXIT_ALL_OK
    if action == "status":
        print(json.dumps(client.job(args.job_id), indent=2,
                         sort_keys=True))
        return EXIT_ALL_OK
    if action == "events":
        for event in client.events(args.job_id, follow=args.follow,
                                   since=args.since):
            print(json.dumps(event, sort_keys=True))
        return EXIT_ALL_OK
    if action == "results":
        payload = client.result(args.job_id)
        print(json.dumps(payload, indent=2, sort_keys=True))
        return (EXIT_ALL_OK if payload["state"] == "done"
                else EXIT_PARTIAL_FAILURE)
    if action == "cancel":
        payload = client.cancel(args.job_id)
        print(json.dumps(payload, indent=2, sort_keys=True))
        return EXIT_ALL_OK if payload["cancelled"] else 2
    if action == "stats":
        if args.format == "prom":
            print(client.stats_prometheus(), end="")
        else:
            print(json.dumps(client.stats(), indent=2,
                             sort_keys=True))
        return EXIT_ALL_OK
    if action == "store":
        print(json.dumps(client.store(), indent=2, sort_keys=True))
        return EXIT_ALL_OK
    if action == "profile":
        text = client.profile(args.job_id)
        if args.out:
            out_path = Path(args.out)
            out_path.parent.mkdir(parents=True, exist_ok=True)
            out_path.write_text(text, encoding="utf-8")
            print(f"collapsed stacks written to {out_path}")
        else:
            print(text, end="")
        return EXIT_ALL_OK
    # shutdown
    print(json.dumps(client.shutdown(), indent=2, sort_keys=True))
    return EXIT_ALL_OK


def _format_bytes(count: int) -> str:
    value = float(count)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if value < 1024.0 or unit == "GiB":
            return (f"{value:.1f} {unit}" if unit != "B"
                    else f"{count} B")
        value /= 1024.0
    return f"{count} B"


def _cmd_cache(args: argparse.Namespace) -> int:
    manager = StoreManager(Path(args.cache_dir))
    if args.cache_command == "stats":
        stats = manager.stats()
        if args.json:
            print(json.dumps(stats.to_json_dict(), indent=2,
                             sort_keys=True))
            return EXIT_ALL_OK
        hit_rate = ("-" if stats.hit_rate is None
                    else f"{100.0 * stats.hit_rate:.1f}%")
        print(render_table(["store", "value"], [
            ["directory", str(manager.root)],
            ["entries", stats.entries],
            ["size", _format_bytes(stats.bytes)],
            ["quarantined", stats.quarantined],
            ["live claims", stats.claims],
            ["journalled runs", stats.journal_runs],
            ["journalled hits", stats.journal_hits],
            ["hit rate", hit_rate],
        ]))
        return EXIT_ALL_OK
    # prune
    if (args.max_age is None and args.max_entries is None
            and args.max_bytes is None):
        print("error: prune needs at least one bound "
              "(--max-age / --max-entries / --max-bytes)",
              file=sys.stderr)
        return 2
    report = manager.prune(max_age_s=args.max_age,
                           max_entries=args.max_entries,
                           max_bytes=args.max_bytes)
    if args.json:
        print(json.dumps(report.to_json_dict(), indent=2,
                         sort_keys=True))
    else:
        reasons = ", ".join(f"{reason}: {count}" for reason, count
                            in sorted(report.reasons.items()))
        print(f"evicted {report.evicted} entr"
              f"{'y' if report.evicted == 1 else 'ies'} "
              f"({_format_bytes(report.freed_bytes)} freed"
              + (f"; {reasons}" if reasons else "")
              + f"), kept {report.kept} "
              f"({_format_bytes(report.kept_bytes)})")
    return EXIT_ALL_OK


def _cmd_roadmap() -> int:
    headers = ["node [nm]", "year", "Vdd [V]", "Leff [nm]", "Tox [A]",
               "clock [GHz]", "power [W]", "area [mm2]", "Tj [C]"]
    rows = [[r.node_nm, r.year, r.vdd_v, r.leff_nm, r.tox_physical_a,
             r.clock_ghz, r.chip_power_w, r.die_area_mm2, r.tj_max_c]
            for r in ITRS_2000]
    print(render_table(headers, rows))
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of Sylvester & Kaul, DAC 2001",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    subparsers.add_parser("list", help="list experiments")
    run_parser = subparsers.add_parser("run", help="run one experiment")
    run_parser.add_argument("experiment_id", choices=sorted(EXPERIMENTS))
    run_all = subparsers.add_parser(
        "run-all", help="run many experiments through the engine")
    _add_sweep_arguments(run_all)
    run_all.add_argument("--json", action="store_true",
                         help="emit records + metrics as JSON")
    chaos = subparsers.add_parser(
        "chaos",
        help="run a sweep under an injected fault plan")
    chaos.add_argument("experiment_ids", nargs="*", metavar="id",
                       help="experiment ids (default: all)")
    chaos.add_argument("--plan", default=None,
                       help="builtin plan name or a .json plan file")
    chaos.add_argument("--list-plans", action="store_true",
                       help="list the builtin fault plans and exit")
    _add_jobs_argument(chaos)
    chaos.add_argument("--timeout", type=float, default=20.0,
                       help="per-experiment timeout in seconds "
                            "(also what kills hang faults)")
    chaos.add_argument("--retries", type=int, default=2,
                       help="retries per failing experiment")
    chaos.add_argument("--cache-dir", default=None,
                       help="cache directory (default: a fresh "
                            "temporary dir, removed afterwards)")
    chaos.add_argument("--json", action="store_true",
                       help="emit the chaos report as JSON")
    chaos.add_argument("--service", action="store_true",
                       help="SIGKILL a live daemon mid-sweep, restart "
                            "it over the same state dir, and verify "
                            "crash recovery instead of a fault plan")
    chaos.add_argument("--state-dir", default=None,
                       help="service state dir for --service "
                            "(default: --cache-dir, else a temp dir)")
    chaos.add_argument("--job-timeout", type=float, default=120.0,
                       help="--service per-job recovery deadline in "
                            "seconds (default: %(default)s)")
    trace_parser = subparsers.add_parser(
        "trace",
        help="run a traced sweep and export the profile")
    _add_sweep_arguments(trace_parser)
    trace_parser.add_argument("--out", default="trace.json",
                              help="trace output path "
                                   "(default: trace.json)")
    trace_parser.add_argument("--top", type=int, default=None,
                              metavar="N",
                              help="show only the N slowest phases")
    trace_parser.add_argument("--in", dest="in_path", default=None,
                              metavar="ARTIFACT",
                              help="render a saved trace artifact "
                                   "instead of running a sweep; empty "
                                   "or missing data exits 0")
    trace_parser.add_argument("--job", default=None, metavar="JOB_ID",
                              help="only spans tagged with this "
                                   "job_id (service traces)")
    trace_parser.add_argument("--trace-id", default=None,
                              help="with --in: only spans tagged with "
                                   "this trace_id; live runs: pin the "
                                   "minted correlation id instead")
    stats = subparsers.add_parser(
        "stats",
        help="run a sweep and report metric distributions")
    _add_sweep_arguments(stats)
    stats.add_argument("--format", choices=STATS_FORMATS,
                       default="table",
                       help="table (per-family latency + histogram "
                            "summaries), prom (Prometheus text "
                            "exposition), or json (registry summary)")
    stats.add_argument("--in", dest="in_path", default=None,
                       metavar="ARTIFACT",
                       help="render a trace artifact's metrics (or a "
                            "bare registry summary) instead of "
                            "running a sweep; empty or missing data "
                            "exits 0")
    bench = subparsers.add_parser(
        "bench",
        help="run the perf-regression benchmark harness")
    bench.add_argument("experiment_ids", nargs="*", metavar="id",
                       help="experiment ids (default: all, or the "
                            "quick subset with --quick)")
    bench.add_argument("--quick", action="store_true",
                       help=f"benchmark the fast CI subset "
                            f"({', '.join(QUICK_IDS)})")
    bench.add_argument("--repeats", type=int, default=DEFAULT_REPEATS,
                       help="cold runs per benchmark; the median is "
                            "recorded (default: %(default)s)")
    bench.add_argument("--out-dir", default=str(DEFAULT_BASELINE_DIR),
                       help=f"snapshot directory; the newest earlier "
                            f"BENCH_*.json there is the comparison "
                            f"baseline (default: "
                            f"{DEFAULT_BASELINE_DIR})")
    bench.add_argument("--no-compare", action="store_true",
                       help="write the snapshot without comparing")
    bench.add_argument("--json", action="store_true",
                       help="emit the snapshot + comparison as JSON")
    top = subparsers.add_parser(
        "top", help="render the daemon's metrics history")
    top.add_argument("--url", default=DEFAULT_SERVICE_URL,
                     help="service base URL (default: %(default)s)")
    top.add_argument("--http-timeout", type=float, default=10.0,
                     help="per-request timeout in seconds "
                          "(default: %(default)s)")
    top.add_argument("--http-retries", type=int, default=0,
                     help="retries for connection errors "
                          "(default: %(default)s)")
    top.add_argument("--once", action="store_true",
                     help="print the current history and exit")
    top.add_argument("--interval", type=float, default=None,
                     metavar="S",
                     help="refresh period (default: the daemon's "
                          "sampling interval)")
    top.add_argument("--iterations", type=int, default=0,
                     metavar="N",
                     help="stop after N refreshes (default: run "
                          "until interrupted)")
    top.add_argument("--limit", type=int, default=None, metavar="N",
                     help="at most N samples per refresh (newest)")
    profile_parser = subparsers.add_parser(
        "profile",
        help="run an inline sweep under the sampling profiler")
    profile_parser.add_argument("experiment_ids", nargs="*",
                                metavar="id",
                                help="experiment ids (default: all)")
    profile_parser.add_argument("--out", default=None,
                                metavar="PATH",
                                help="write the collapsed-stack file "
                                     "here (flamegraph.pl input)")
    profile_parser.add_argument("--interval", type=float,
                                default=0.005, metavar="S",
                                help="sampling period in seconds "
                                     "(default: %(default)s)")
    profile_parser.add_argument("--top", type=int, default=15,
                                metavar="N",
                                help="hottest functions to print "
                                     "(default: %(default)s)")
    profile_parser.add_argument("--no-cache", action="store_true",
                                help="bypass the result cache (cache "
                                     "hits skip the compute you are "
                                     "trying to profile)")
    profile_parser.add_argument("--cache-dir",
                                default=str(DEFAULT_CACHE_DIR),
                                help=f"cache directory "
                                     f"(default: {DEFAULT_CACHE_DIR})")
    profile_parser.add_argument("--timeout", type=float,
                                default=120.0,
                                help="per-experiment timeout in "
                                     "seconds")
    serve = subparsers.add_parser(
        "serve", help="run the experiment service daemon")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default: %(default)s)")
    serve.add_argument("--port", type=int, default=8023,
                       help="bind port; 0 picks an ephemeral port "
                            "(default: %(default)s)")
    serve.add_argument("--cache-dir", default=str(DEFAULT_CACHE_DIR),
                       help=f"shared result store directory "
                            f"(default: {DEFAULT_CACHE_DIR})")
    serve.add_argument("--queue-depth", type=int, default=32,
                       help="global admission queue bound "
                            "(default: %(default)s)")
    serve.add_argument("--tenant-depth", type=int, default=8,
                       help="per-tenant queued-job bound "
                            "(default: %(default)s)")
    serve.add_argument("--dispatchers", type=int, default=1,
                       help="concurrent jobs (default: %(default)s)")
    serve.add_argument("--executor", choices=("process", "inline"),
                       default="process",
                       help="engine executor for job sweeps "
                            "(default: %(default)s)")
    serve.add_argument("--trace-out", default=None,
                       help="write the service trace artifact here on "
                            "shutdown")
    serve.add_argument("--store-max-bytes", type=int, default=None,
                       help="prune the store past this size (LRU)")
    serve.add_argument("--store-max-entries", type=int, default=None,
                       help="prune the store past this entry count")
    serve.add_argument("--store-max-age", type=float, default=None,
                       metavar="S",
                       help="prune entries idle longer than S seconds")
    serve.add_argument("--stall-timeout", type=float, default=300.0,
                       metavar="S",
                       help="watchdog requeues a job whose heartbeat "
                            "is older than S seconds "
                            "(default: %(default)s)")
    serve.add_argument("--max-recovery-attempts", type=int, default=3,
                       help="crash/stall requeues per job before it "
                            "fails for good (default: %(default)s)")
    serve.add_argument("--log-path", default=None, metavar="PATH",
                       help="structured JSONL log file (default: "
                            "<cache-dir>/service/service.log.jsonl)")
    serve.add_argument("--log-level",
                       choices=("debug", "info", "warning", "error"),
                       default=None,
                       help="structured-log threshold (default: "
                            "$REPRO_LOG_LEVEL or info)")

    jobs = subparsers.add_parser(
        "jobs", help="client for a running experiment service")
    jobs.add_argument("--url", default=DEFAULT_SERVICE_URL,
                      help="service base URL (default: %(default)s)")
    jobs.add_argument("--http-timeout", type=float, default=30.0,
                      help="per-request timeout in seconds "
                           "(default: %(default)s)")
    jobs.add_argument("--http-retries", type=int, default=2,
                      help="retries for connection errors and "
                           "retryable 5xx answers "
                           "(default: %(default)s)")
    jobs_sub = jobs.add_subparsers(dest="jobs_command", required=True)
    jobs_submit = jobs_sub.add_parser(
        "submit", help="submit a sweep job")
    jobs_submit.add_argument("experiment_ids", nargs="*", metavar="id",
                             help="experiment ids (default: all)")
    jobs_submit.add_argument("--tenant", default="default",
                             help="tenant name (default: %(default)s)")
    jobs_submit.add_argument("--priority", choices=PRIORITIES,
                             default="normal",
                             help="priority class "
                                  "(default: %(default)s)")
    jobs_submit.add_argument("--timeout", type=float, default=120.0,
                             help="per-experiment timeout in seconds")
    jobs_submit.add_argument("--retries", type=int, default=0,
                             help="retries per failing experiment")
    jobs_submit.add_argument("--workers", type=int, default=1,
                             help="engine workers for this job")
    jobs_submit.add_argument("--no-cache", action="store_true",
                             help="bypass the shared result store")
    jobs_submit.add_argument("--deadline", type=float, default=None,
                             metavar="S",
                             help="whole-job wall-clock budget; the "
                                  "watchdog fails the job past it")
    jobs_submit.add_argument("--idempotency-key", default=None,
                             help="resubmitting the same key returns "
                                  "the original job, even across a "
                                  "daemon crash")
    jobs_submit.add_argument("--profile", action="store_true",
                             help="attach the daemon's sampling "
                                  "profiler to this job; fetch the "
                                  "collapsed stacks with "
                                  "'jobs profile <job-id>'")
    jobs_submit.add_argument("--wait", action="store_true",
                             help="poll until the job finishes and "
                                  "print the final state")
    jobs_submit.add_argument("--wait-timeout", type=float,
                             default=300.0,
                             help="--wait deadline in seconds "
                                  "(default: %(default)s)")
    jobs_list = jobs_sub.add_parser("list", help="list jobs")
    jobs_list.add_argument("--tenant", default=None,
                           help="only this tenant's jobs")
    for name, help_text in (("status", "one job's full state"),
                            ("results", "a finished job's results"),
                            ("cancel", "cancel a queued job")):
        sub = jobs_sub.add_parser(name, help=help_text)
        sub.add_argument("job_id", help="job id")
    jobs_events = jobs_sub.add_parser(
        "events", help="print a job's JSONL event stream")
    jobs_events.add_argument("job_id", help="job id")
    jobs_events.add_argument("--follow", action="store_true",
                             help="stream until the job finishes; "
                                  "reconnects through daemon restarts")
    jobs_events.add_argument("--since", type=int, default=0,
                             help="start from this event seq "
                                  "(default: %(default)s)")
    jobs_stats = jobs_sub.add_parser(
        "stats", help="service metrics registry")
    jobs_stats.add_argument("--format", choices=("json", "prom"),
                            default="json",
                            help="json (registry + queue summary) or "
                                 "prom (Prometheus text exposition)")
    jobs_profile = jobs_sub.add_parser(
        "profile", help="a profiled job's collapsed stacks")
    jobs_profile.add_argument("job_id", help="job id (submitted "
                                             "with --profile)")
    jobs_profile.add_argument("--out", default=None, metavar="PATH",
                              help="write the collapsed-stack file "
                                   "here instead of stdout")
    jobs_sub.add_parser("store", help="shared store stats")
    jobs_sub.add_parser("shutdown", help="gracefully stop the service")

    cache = subparsers.add_parser(
        "cache", help="inspect or prune the shared result store")
    cache.add_argument("--cache-dir", default=str(DEFAULT_CACHE_DIR),
                       help=f"store directory "
                            f"(default: {DEFAULT_CACHE_DIR})")
    cache_sub = cache.add_subparsers(dest="cache_command",
                                     required=True)
    cache_stats = cache_sub.add_parser(
        "stats", help="entry count, size, hit rate, quarantine")
    cache_stats.add_argument("--json", action="store_true",
                             help="emit stats as JSON")
    cache_prune = cache_sub.add_parser(
        "prune", help="evict LRU entries down to the given bounds")
    cache_prune.add_argument("--max-age", type=float, default=None,
                             metavar="S",
                             help="evict entries idle longer than S "
                                  "seconds")
    cache_prune.add_argument("--max-entries", type=int, default=None,
                             help="keep at most N entries")
    cache_prune.add_argument("--max-bytes", type=int, default=None,
                             help="keep at most N bytes")
    cache_prune.add_argument("--json", action="store_true",
                             help="emit the prune report as JSON")

    subparsers.add_parser("roadmap", help="print the ITRS roadmap")

    args = parser.parse_args(argv)
    if args.command == "list":
        return _cmd_list()
    if args.command == "run":
        return _cmd_run(args.experiment_id)
    if args.command == "run-all":
        return _cmd_run_all(args)
    if args.command == "chaos":
        return _cmd_chaos(args)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "stats":
        return _cmd_stats(args)
    if args.command == "bench":
        return _cmd_bench(args)
    if args.command == "top":
        return _cmd_top(args)
    if args.command == "profile":
        return _cmd_profile(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "jobs":
        return _cmd_jobs(args)
    if args.command == "cache":
        return _cmd_cache(args)
    return _cmd_roadmap()
