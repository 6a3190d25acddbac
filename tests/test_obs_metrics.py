"""The metrics layer: histograms, gauges, resource telemetry, exports."""

import json
import re
import threading
import time

import pytest

from repro.obs import (
    COUNT_BUCKETS,
    DURATION_BUCKETS,
    Histogram,
    MetricsRegistry,
    RESIDUAL_BUCKETS,
    Trace,
    current_metrics,
    exponential_buckets,
    linear_buckets,
    observe,
    record_resource_delta,
    record_resource_metrics,
    registry_summary,
    reset_tracing,
    round_metric,
    sample_resources,
    set_gauge,
    span,
    to_prometheus,
    tracing,
    validate_metrics_payload,
)
from repro.obs.metrics import EXPORT_DECIMALS


@pytest.fixture(autouse=True)
def _no_leaked_trace():
    reset_tracing()
    yield
    reset_tracing()


# -- rounding and bucket helpers --------------------------------------


def test_round_metric_hides_merge_order_noise():
    assert round_metric(0.1 + 0.2) == round_metric(0.3)
    assert round_metric(1.0) == 1 and isinstance(round_metric(1.0), int)
    assert round_metric(2) == 2
    assert round_metric(0.123456789123) == round(0.123456789123,
                                                 EXPORT_DECIMALS)


def test_exponential_buckets_are_geometric():
    bounds = exponential_buckets(1e-6, 4.0, 3)
    assert bounds == (1e-6, 4e-6, 1.6e-5)
    with pytest.raises(ValueError):
        exponential_buckets(0.0, 4.0, 3)
    with pytest.raises(ValueError):
        exponential_buckets(1.0, 1.0, 3)
    with pytest.raises(ValueError):
        exponential_buckets(1.0, 2.0, 0)


def test_linear_buckets_are_evenly_spaced():
    assert linear_buckets(25.0, 25.0, 3) == (25.0, 50.0, 75.0)
    with pytest.raises(ValueError):
        linear_buckets(0.0, -1.0, 3)
    with pytest.raises(ValueError):
        linear_buckets(0.0, 1.0, 0)


def test_default_ladders_are_strictly_increasing():
    for ladder in (DURATION_BUCKETS, COUNT_BUCKETS, RESIDUAL_BUCKETS):
        assert all(b2 > b1 for b1, b2 in zip(ladder, ladder[1:]))


# -- histogram mechanics ----------------------------------------------


def test_histogram_le_bucket_placement():
    histogram = Histogram((1.0, 10.0, 100.0))
    for value in (0.5, 1.0, 5.0, 10.0, 99.0, 1000.0):
        histogram.observe(value)
    # le-semantics: a value equal to a bound lands in that bound's
    # bucket (1.0 -> le=1, 10.0 -> le=10); 1000 overflows into +Inf.
    assert histogram.counts == [2, 2, 1, 1]
    assert histogram.count == 6
    assert histogram.min == 0.5
    assert histogram.max == 1000.0
    assert histogram.sum == pytest.approx(1115.5)


def test_histogram_rejects_bad_bounds():
    with pytest.raises(ValueError):
        Histogram(())
    with pytest.raises(ValueError):
        Histogram((1.0, 1.0))
    with pytest.raises(ValueError):
        Histogram((2.0, 1.0))


def test_histogram_quantiles_interpolate_within_observed_range():
    histogram = Histogram((1.0, 2.0, 4.0))
    for value in (0.5, 1.5, 1.5, 3.0):
        histogram.observe(value)
    assert histogram.quantile(0.0) == pytest.approx(0.5)
    assert histogram.quantile(1.0) <= 3.0  # clamped by exact max
    p50 = histogram.quantile(0.5)
    assert 1.0 <= p50 <= 2.0
    with pytest.raises(ValueError):
        histogram.quantile(1.5)
    assert Histogram((1.0,)).quantile(0.5) is None


def test_histogram_merge_is_exact():
    left, right = Histogram((1.0, 2.0)), Histogram((1.0, 2.0))
    left.observe(0.5)
    right.observe(1.5)
    right.observe(9.0)
    left.merge(right)
    assert left.counts == [1, 1, 1]
    assert left.count == 3
    assert left.min == 0.5 and left.max == 9.0
    assert left.sum == pytest.approx(11.0)


def test_histogram_merge_rejects_mismatched_bounds():
    left, right = Histogram((1.0, 2.0)), Histogram((1.0, 3.0))
    with pytest.raises(ValueError):
        left.merge(right)


def test_histogram_payload_survives_json():
    histogram = Histogram((1.0, 2.0))
    histogram.observe(1.5)
    payload = json.loads(json.dumps(histogram.to_payload()))
    restored = Histogram.from_payload(payload)
    assert restored.bounds == histogram.bounds
    assert restored.counts == histogram.counts
    assert restored.count == 1
    assert restored.min == 1.5 and restored.max == 1.5
    with pytest.raises(ValueError):
        Histogram.from_payload({"bounds": [1.0], "counts": [0],
                                "count": 0, "sum": 0.0})


def test_empty_histogram_summary_is_all_none():
    summary = Histogram((1.0,)).summary()
    assert summary["count"] == 0
    assert summary["mean"] is None and summary["p99"] is None


# -- registry ---------------------------------------------------------


def test_registry_labels_make_distinct_series():
    registry = MetricsRegistry()
    registry.observe("run_s", 0.1, (1.0,), family="table")
    registry.observe("run_s", 0.2, (1.0,), family="figure")
    registry.observe("run_s", 0.3, (1.0,), family="table")
    assert registry.histogram("run_s", family="table").count == 2
    assert registry.histogram("run_s", family="figure").count == 1
    assert registry.histogram("run_s") is None
    series = registry.histograms()
    assert [(name, labels) for name, labels, _ in series] == [
        ("run_s", {"family": "figure"}), ("run_s", {"family": "table"})]


def test_registry_gauges_last_write_wins_locally():
    registry = MetricsRegistry()
    registry.set_gauge("rss", 100.0)
    registry.set_gauge("rss", 50.0)
    assert registry.gauge("rss") == 50.0
    assert registry.gauge("missing") is None


def test_registry_merge_adds_counters_maxes_gauges_merges_histograms():
    worker = MetricsRegistry()
    worker.inc("solver.iterations", 5)
    worker.set_gauge("resource.rss_peak_kb", 900.0)
    worker.observe("run_s", 0.25, (0.1, 1.0))

    parent = MetricsRegistry()
    parent.inc("solver.iterations", 2)
    parent.set_gauge("resource.rss_peak_kb", 400.0)
    parent.observe("run_s", 0.05, (0.1, 1.0))
    # the payload crosses a process pipe: must survive JSON
    parent.merge_payload(json.loads(json.dumps(worker.to_payload())))

    assert parent.counters.get("solver.iterations") == 7
    assert parent.gauge("resource.rss_peak_kb") == 900.0  # max, not last
    merged = parent.histogram("run_s")
    assert merged.count == 2
    assert merged.counts == [1, 1, 0]
    parent.merge_payload(None)
    parent.merge_payload({})


def test_registry_merge_order_is_deterministic_after_rounding():
    """Counter merges are float additions; export rounding must make
    A+B+C and C+B+A serialise identically (the drift regression)."""
    payloads = []
    for value in (0.1, 0.2, 0.3, 1e-9, 7.7):
        registry = MetricsRegistry()
        registry.inc("drift", value)
        registry.observe("lat", value, (1.0, 10.0))
        payloads.append(registry.to_payload())

    forward, backward = MetricsRegistry(), MetricsRegistry()
    for payload in payloads:
        forward.merge_payload(payload)
    for payload in reversed(payloads):
        backward.merge_payload(payload)

    assert registry_summary(forward) == registry_summary(backward)
    assert to_prometheus(forward) == to_prometheus(backward)


def test_registry_observe_is_thread_safe():
    registry = MetricsRegistry()

    def work():
        for i in range(1000):
            registry.observe("hot", float(i % 7), (2.0, 5.0))

    threads = [threading.Thread(target=work) for _ in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    histogram = registry.histogram("hot")
    assert histogram.count == 8000
    assert sum(histogram.counts) == 8000


# -- exports ----------------------------------------------------------


def _populated_registry():
    registry = MetricsRegistry()
    registry.inc("cache.hits", 3)
    registry.set_gauge("resource.rss_peak_kb", 1234.5)
    registry.observe("engine.run_s", 0.02, (0.01, 0.1, 1.0),
                     family="table")
    registry.observe("engine.run_s", 0.5, (0.01, 0.1, 1.0),
                     family="table")
    registry.observe("solver.residual", 1e-12, RESIDUAL_BUCKETS)
    return registry


def test_registry_summary_passes_its_own_validator():
    registry = _populated_registry()
    summary = registry_summary(registry)
    assert validate_metrics_payload(summary) == []
    assert validate_metrics_payload(registry.to_payload()) == []
    entry = next(e for e in summary["histograms"]
                 if e["name"] == "engine.run_s")
    assert entry["labels"] == {"family": "table"}
    assert entry["count"] == 2
    assert entry["p50"] is not None


#: Prometheus text exposition line grammar (value lines + TYPE lines).
_PROM_LINE = re.compile(
    r"^(?:# TYPE [a-zA-Z_:][a-zA-Z0-9_:]* (?:counter|gauge|histogram)"
    r"|[a-zA-Z_:][a-zA-Z0-9_:]*"
    r"(?:\{[a-zA-Z_][a-zA-Z0-9_]*=\"[^\"]*\""
    r"(?:,[a-zA-Z_][a-zA-Z0-9_]*=\"[^\"]*\")*\})?"
    r" -?(?:[0-9.eE+-]+|\+Inf|NaN))$")


def test_prometheus_export_matches_line_grammar():
    text = to_prometheus(_populated_registry())
    assert text.endswith("\n")
    for line in text.rstrip("\n").split("\n"):
        assert _PROM_LINE.match(line), f"bad exposition line: {line!r}"


def test_prometheus_histogram_buckets_are_cumulative():
    text = to_prometheus(_populated_registry())
    buckets = re.findall(
        r'repro_engine_run_s_bucket\{family="table",le="([^"]+)"\} (\d+)',
        text)
    assert buckets[-1][0] == "+Inf"
    counts = [int(count) for _le, count in buckets]
    assert counts == sorted(counts)
    assert counts[-1] == 2
    assert 'repro_engine_run_s_count{family="table"} 2' in text
    assert "# TYPE repro_cache_hits counter" in text
    assert "# TYPE repro_resource_rss_peak_kb gauge" in text


def test_prometheus_label_values_are_escaped():
    from repro.obs.metrics import _prom_label_value

    assert _prom_label_value('a"b') == 'a\\"b'
    assert _prom_label_value("a\\b") == "a\\\\b"
    assert _prom_label_value("a\nb") == "a\\nb"
    # Backslash escapes first, so a literal \n in the input stays a
    # backslash-n-escape, not a newline escape applied twice.
    assert _prom_label_value("a\\nb") == "a\\\\nb"

    registry = MetricsRegistry()
    registry.observe("run_s", 0.5, (1.0,),
                     family="ta\\ble\none")
    text = to_prometheus(registry)
    assert 'family="ta\\\\ble\\none"' in text
    # No raw newline may survive inside a label value: every line of
    # the exposition must still match the grammar.
    for line in text.rstrip("\n").split("\n"):
        assert _PROM_LINE.match(line), f"bad exposition line: {line!r}"


def test_validate_metrics_payload_flags_malformed_sections():
    assert validate_metrics_payload("nope")
    assert validate_metrics_payload({})
    assert validate_metrics_payload(
        {"counters": {"x": "NaN?"}, "gauges": {}, "histograms": []})
    bad_counts = {"counters": {}, "gauges": {},
                  "histograms": [{"name": "h", "bounds": [1.0, 2.0],
                                  "counts": [1], "count": 1}]}
    assert any("counts" in problem
               for problem in validate_metrics_payload(bad_counts))
    bad_total = {"counters": {}, "gauges": {},
                 "histograms": [{"name": "h", "bounds": [1.0],
                                 "counts": [1, 0], "count": 5,
                                 "min": 0.5, "max": 0.5}]}
    assert any("count" in problem
               for problem in validate_metrics_payload(bad_total))


# -- resource telemetry -----------------------------------------------


def test_sample_resources_reports_plausible_values():
    sample = sample_resources()
    assert sample.rss_peak_kb > 1000  # a python process is > 1 MB
    assert sample.cpu_s >= 0
    assert sample.gc_collections >= 0
    assert sample.cpu_user_s + sample.cpu_system_s == sample.cpu_s


def test_record_resource_metrics_absolute_shape():
    registry = MetricsRegistry()
    sample = record_resource_metrics(registry, scope="task")
    assert registry.gauge("resource.rss_peak_kb") == sample.rss_peak_kb
    assert registry.histogram("resource.cpu_s", scope="task").count == 1
    assert registry.histogram("resource.gc_collections",
                              scope="task").count == 1


def test_record_resource_delta_brackets_a_region():
    registry = MetricsRegistry()
    before = sample_resources()
    time.sleep(0.01)
    record_resource_delta(registry, before, scope="bench")
    wall = registry.histogram("resource.wall_s", scope="bench")
    assert wall.count == 1
    assert wall.sum >= 0.01
    assert registry.gauge("resource.rss_peak_kb") > 0


# -- trace integration ------------------------------------------------


def test_module_observe_is_noop_without_trace():
    assert current_metrics() is None
    observe("ghost", 1.0)
    set_gauge("ghost", 2.0)
    with tracing(Trace("t")) as trace:
        observe("real", 1.0, (2.0,))
        set_gauge("real", 3.0)
        assert current_metrics() is trace.metrics
    assert trace.metrics.histogram("real").count == 1
    assert trace.metrics.gauge("real") == 3.0
    assert trace.metrics.histogram("ghost") is None


def test_spans_feed_duration_histograms():
    with tracing(Trace("t")) as trace:
        with span("engine.run"):
            pass
        with span("engine.run"):
            pass
    histogram = trace.metrics.histogram("span.engine.run")
    assert histogram.count == 2
    assert histogram.sum >= 0


def test_merged_worker_spans_do_not_double_count_histograms():
    worker = Trace("worker")
    with worker.span("worker.run"):
        pass
    parent = Trace("parent")
    parent.merge_payload(json.loads(json.dumps(worker.to_payload())))
    # the worker already observed its span into the shipped histogram;
    # replaying the span on merge must not observe it again
    assert parent.metrics.histogram("span.worker.run").count == 1
    assert len(parent.spans) == 1


def test_disabled_observe_overhead_is_submicrosecond():
    """The no-op metrics path must stay off the profile, like span()."""

    def hot_loop(n):
        for i in range(n):
            observe("hot", float(i))

    hot_loop(1000)  # warm up
    best = float("inf")
    for _ in range(5):
        start = time.perf_counter()
        hot_loop(20000)
        best = min(best, time.perf_counter() - start)
    assert best / 20000 < 1e-6


# -- instrumented solvers (satellite: residuals of successful solves) --


def test_guarded_solve_records_residual_and_iterations():
    from repro.reliability.guard import guarded_solve

    with tracing(Trace("t")) as trace:
        result = guarded_solve(lambda x: x * x - 2.0, 0.0, 2.0,
                               name="sqrt2")
    assert result.root == pytest.approx(2.0 ** 0.5)
    residuals = trace.metrics.histogram(
        "solver.residual", kind="root", converged=True)
    assert residuals is not None and residuals.count == 1
    assert residuals.max <= 1e-6  # a converged root's final residual
    iterations = trace.metrics.histogram(
        "solver.iterations_per_solve", kind="root")
    assert iterations.count == 1 and iterations.sum >= 1
    fallback = trace.metrics.histogram("solver.fallback_depth",
                                       kind="root")
    assert fallback.count == 1 and fallback.max == 0  # primary strategy


def test_guarded_linear_solve_records_metrics():
    import numpy as np
    from scipy.sparse import identity

    from repro.reliability.guard import guarded_linear_solve

    with tracing(Trace("t")) as trace:
        solution = guarded_linear_solve(
            identity(4, format="csr"), np.ones(4), name="eye")
    assert solution.x == pytest.approx(np.ones(4))
    residuals = trace.metrics.histogram(
        "solver.residual", kind="linear", converged=True)
    assert residuals is not None and residuals.count == 1
