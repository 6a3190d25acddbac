"""The observability layer: spans, counters, traces, exports."""

import json
import pathlib
import sys
import threading
import time

import pytest

from repro.obs import (
    Counters,
    Trace,
    add_counter,
    current_trace,
    phase_breakdown,
    record_span,
    reset_tracing,
    span,
    to_chrome_events,
    tracing,
    tracing_enabled,
    validate_chrome_trace,
    wall_now,
    write_trace,
)


@pytest.fixture(autouse=True)
def _no_leaked_trace():
    """Every test starts and ends with tracing disabled."""
    reset_tracing()
    yield
    reset_tracing()


# -- clock ------------------------------------------------------------


def test_wall_now_tracks_real_time():
    first = wall_now()
    time.sleep(0.01)
    second = wall_now()
    assert second > first
    # anchored near the actual epoch (sanity: after 2020, before 2100)
    assert 1.6e9 < first < 4.1e9


# -- counters ---------------------------------------------------------


def test_counters_accumulate_and_merge():
    counters = Counters()
    counters.add("cache.hits")
    counters.add("cache.hits", 2)
    counters.add("solver.iterations", 17)
    assert counters.get("cache.hits") == 3
    assert counters.get("missing") == 0
    counters.merge({"cache.hits": 1, "engine.retries": 4})
    assert counters.as_dict() == {
        "cache.hits": 4, "engine.retries": 4, "solver.iterations": 17}
    assert len(counters) == 3


def test_counters_reject_negative_increments():
    with pytest.raises(ValueError):
        Counters().add("x", -1)


def test_counters_thread_safety():
    counters = Counters()

    def bump():
        for _ in range(1000):
            counters.add("n")

    threads = [threading.Thread(target=bump) for _ in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert counters.get("n") == 8000


# -- spans and nesting ------------------------------------------------


def test_span_nesting_records_depth_and_parent():
    with tracing(Trace("t")) as trace:
        with span("outer"):
            with span("inner", detail=1):
                pass
        with span("sibling"):
            pass
    by_name = {record.name: record for record in trace.spans}
    assert by_name["outer"].depth == 0
    assert by_name["outer"].parent is None
    assert by_name["inner"].depth == 1
    assert by_name["inner"].parent == "outer"
    assert by_name["inner"].attributes == {"detail": 1}
    assert by_name["sibling"].depth == 0
    # inner finishes before outer, so it is appended first
    names = [record.name for record in trace.spans]
    assert names.index("inner") < names.index("outer")


def test_span_durations_are_nonnegative_and_ordered():
    with tracing(Trace()) as trace:
        with span("work"):
            time.sleep(0.01)
    (record,) = trace.spans
    assert record.duration_s >= 0.01
    assert record.end_s == pytest.approx(
        record.start_s + record.duration_s)


def test_span_records_error_attribute_on_exception():
    with tracing(Trace()) as trace:
        with pytest.raises(RuntimeError):
            with span("boom"):
                raise RuntimeError("no")
    (record,) = trace.spans
    assert record.attributes["error"] == "RuntimeError"


def test_span_set_attaches_mid_span_attributes():
    with tracing(Trace()) as trace:
        with span("solve") as live:
            live.set(iterations=12)
    assert trace.spans[0].attributes == {"iterations": 12}


def test_record_span_appends_premeasured_interval():
    with tracing(Trace()) as trace:
        record_span("engine.run", 100.0, 0.5, experiment="E-T1")
    (record,) = trace.spans
    assert record.name == "engine.run"
    assert record.start_s == 100.0
    assert record.duration_s == 0.5
    assert record.attributes == {"experiment": "E-T1"}


# -- no-op (disabled) mode --------------------------------------------


def test_noop_mode_records_nothing():
    assert not tracing_enabled()
    assert current_trace() is None
    with span("ghost", x=1) as ghost:
        ghost.set(y=2)
    add_counter("ghost.count")
    record_span("ghost.interval", 0.0, 1.0)
    # still nothing active, nothing anywhere to have recorded into
    assert current_trace() is None


def test_noop_span_is_shared_singleton():
    first, second = span("a"), span("b")
    assert first is second  # one object, no per-call allocation


def test_disabled_tracing_overhead_is_small():
    """A disabled span costs well under a microsecond per use.

    The acceptance budget is <2% overhead on a real sweep, where each
    span guards at least tens of microseconds of work; bounding the
    absolute no-op cost at 1 us proves that budget with margin (a
    comparative bare-vs-instrumented timing would just measure body
    jitter at this scale).
    """

    def hot_loop(n):
        for _ in range(n):
            with span("hot"):
                pass

    hot_loop(1000)  # warm up
    best = float("inf")
    for _ in range(5):
        start = time.perf_counter()
        hot_loop(20000)
        best = min(best, time.perf_counter() - start)
    per_span_s = best / 20000
    assert per_span_s < 1e-6


def test_tracing_context_restores_previous_trace():
    outer = Trace("outer")
    with tracing(outer):
        with tracing(Trace("inner")):
            assert current_trace().name == "inner"
        assert current_trace() is outer
    assert current_trace() is None


# -- cross-thread and cross-process aggregation -----------------------


def test_threads_share_trace_with_independent_stacks():
    trace = Trace()
    errors = []

    def work(tag):
        try:
            with trace.span(f"outer.{tag}"):
                with trace.span(f"inner.{tag}"):
                    time.sleep(0.002)
        except Exception as exc:  # pragma: no cover
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(i,))
               for i in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors
    assert len(trace) == 8
    for record in trace.spans:
        if record.name.startswith("inner."):
            tag = record.name.split(".")[1]
            assert record.parent == f"outer.{tag}"


def test_payload_round_trip_merges_spans_and_counters():
    child = Trace("child")
    with child.span("worker.run", experiment="E-T1"):
        pass
    child.counters.add("solver.iterations", 5)
    payload = child.to_payload()
    # the payload must survive JSON (it crosses a process pipe)
    payload = json.loads(json.dumps(payload))

    parent = Trace("parent")
    parent.counters.add("solver.iterations", 2)
    parent.merge_payload(payload)
    assert [record.name for record in parent.spans] == ["worker.run"]
    assert parent.spans[0].attributes == {"experiment": "E-T1"}
    assert parent.counters.get("solver.iterations") == 7
    parent.merge_payload(None)  # tolerated
    parent.merge_payload({})


# -- exports ----------------------------------------------------------


def _sample_trace():
    trace = Trace("sample")
    with tracing(trace):
        with span("engine.sweep"):
            with span("engine.run", experiment="E-T1"):
                time.sleep(0.002)
            with span("engine.run", experiment="E-T2"):
                pass
        add_counter("cache.misses", 2)
    return trace


def test_chrome_trace_round_trip(tmp_path):
    trace = _sample_trace()
    path = write_trace(trace, tmp_path / "trace.json")
    payload = json.loads(path.read_text())
    assert validate_chrome_trace(payload) == []
    events = payload["traceEvents"]
    complete = [e for e in events if e["ph"] == "X"]
    meta = [e for e in events if e["ph"] == "M"]
    assert len(complete) == 3
    assert meta and meta[0]["name"] == "process_name"
    by_name = {}
    for event in complete:
        by_name.setdefault(event["name"], event)
    sweep, run = by_name["engine.sweep"], by_name["engine.run"]
    assert run["ts"] >= sweep["ts"] >= 0
    assert run["dur"] <= sweep["dur"]
    assert run["args"]["parent"] == "engine.sweep"
    assert isinstance(run["pid"], int) and isinstance(run["tid"], int)


def test_phase_breakdown_aggregates_and_sorts():
    trace = Trace()
    trace.record("slow", 0.0, 2.0)
    trace.record("fast", 0.0, 0.5)
    trace.record("fast", 2.0, 0.5)
    spans = [span.to_json_dict() for span in trace.spans]
    rows = phase_breakdown(spans)
    assert [row["name"] for row in rows] == ["slow", "fast"]
    fast = rows[1]
    assert fast["count"] == 2
    assert fast["total_s"] == pytest.approx(1.0)
    assert fast["mean_s"] == pytest.approx(0.5)
    assert fast["max_s"] == pytest.approx(0.5)
    # traced interval is 0.0 .. 2.5
    assert fast["share"] == pytest.approx(1.0 / 2.5)
    assert phase_breakdown(spans, top=1) == rows[:1]


def test_validate_chrome_trace_flags_malformed_payloads():
    assert validate_chrome_trace("nonsense")
    assert validate_chrome_trace({"no": "events"})
    assert validate_chrome_trace({"traceEvents": []})  # no X events
    bad_event = {"ph": "X", "name": "", "ts": -1, "dur": "x",
                 "pid": "p", "tid": 0}
    problems = validate_chrome_trace({"traceEvents": [bad_event]})
    assert len(problems) >= 4
    good = {"ph": "X", "name": "ok", "ts": 0, "dur": 1.5,
            "pid": 1, "tid": 2, "args": {}}
    assert validate_chrome_trace({"traceEvents": [good]}) == []
    assert validate_chrome_trace([good]) == []  # bare-array form


def _check_trace(argv):
    """Run ``scripts/check_trace.py`` in-process; its exit code."""
    scripts = pathlib.Path(__file__).resolve().parent.parent / "scripts"
    sys.path.insert(0, str(scripts))
    try:
        from check_trace import main as check_trace_main
    finally:
        sys.path.pop(0)
    return check_trace_main([str(arg) for arg in argv])


def test_check_trace_rejects_a_trace_with_no_complete_events(tmp_path,
                                                             capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"traceEvents": []}))
    assert _check_trace([path]) == 1
    assert "invalid Chrome trace" in capsys.readouterr().err


# -- exports of metric-rich traces ------------------------------------


def _metric_rich_trace():
    from repro.obs import observe, set_gauge

    trace = Trace("rich")
    with tracing(trace):
        with span("engine.run", experiment="E-T1"):
            observe("solver.residual", 1e-10, (1e-12, 1e-8, 1e-4))
            observe("engine.run_s", 0.25, (0.1, 1.0), family="table")
        set_gauge("resource.rss_peak_kb", 2048.0)
        add_counter("cache.misses", 2)
    return trace


def test_chrome_export_with_metrics_loads_through_validator(tmp_path):
    trace = _metric_rich_trace()
    path = write_trace(trace, tmp_path / "rich.json")
    payload = json.loads(path.read_text())
    assert validate_chrome_trace(payload) == []
    assert any(event.get("ph") == "X"
               for event in payload["traceEvents"])


def test_check_trace_validates_the_artifact_metrics(tmp_path, capsys):
    path = write_trace(_metric_rich_trace(), tmp_path / "rich.json")
    assert _check_trace([path]) == 0
    assert "1 gauge(s)" in capsys.readouterr().out
    payload = json.loads(path.read_text())
    payload["metrics"]["histograms"][0]["counts"].append(1)
    path.write_text(json.dumps(payload))
    assert _check_trace([path]) == 1
    assert "invalid metrics" in capsys.readouterr().err
    del payload["metrics"]
    path.write_text(json.dumps(payload))
    assert _check_trace([path]) == 1
    assert "invalid metrics" in capsys.readouterr().err
    with pytest.raises(SystemExit) as excinfo:
        _check_trace([path, "--kind", "json"])  # one trace kind only
    assert excinfo.value.code == 2


def test_json_export_round_trips_histograms_and_gauges(tmp_path):
    from repro.obs import MetricsRegistry, validate_metrics_payload

    trace = _metric_rich_trace()
    path = write_trace(trace, tmp_path / "rich.json")
    payload = json.loads(path.read_text())
    metrics = payload["metrics"]
    assert validate_metrics_payload(metrics) == []
    assert metrics["gauges"]["resource.rss_peak_kb"] == 2048
    assert metrics["counters"]["cache.misses"] == 2

    # the summary carries full histogram state: a fresh registry built
    # from it must agree with the original distributions
    rebuilt = MetricsRegistry()
    rebuilt.merge_payload(metrics)
    original = trace.metrics.histogram("engine.run_s", family="table")
    restored = rebuilt.histogram("engine.run_s", family="table")
    assert restored.bounds == original.bounds
    assert restored.counts == original.counts
    assert restored.count == original.count
    assert rebuilt.histogram("solver.residual").count == 1
    # span auto-histograms ride along too
    assert rebuilt.histogram("span.engine.run").count == 1
