"""Lightweight hierarchical tracing, counters, and profiling export.

``repro.obs`` is the observability layer under every performance claim
this repository makes: the engine scheduler, the result cache, the
guarded numerical solvers, and STA all emit spans and counters through
it, and the ``repro trace`` CLI turns a sweep into a Chrome/Perfetto
trace plus a per-phase breakdown table.

Design points:

* **near-zero overhead when disabled** -- no trace is active by
  default; :func:`span` then returns a shared no-op context manager
  after a single global check, and :func:`add_counter` /
  :func:`record_span` return immediately;
* **monotonic durations only** -- spans measure ``time.monotonic()``
  differences; wall-clock placement comes from the
  :func:`~repro.obs.clock.wall_now` anchor, so traces and run records
  survive system clock adjustments (:mod:`repro.obs.clock`);
* **thread and process safe** -- threads share the active trace with
  per-thread span stacks; worker processes build their own trace and
  ship it back as a picklable payload the parent merges
  (:meth:`Trace.to_payload` / :meth:`Trace.merge_payload`);
* **one trace artifact** -- Chrome trace-event JSON (loads in
  ``chrome://tracing`` and Perfetto) that also carries the metrics
  registry summary under ``metrics``, so ``repro trace --in`` and
  ``repro stats --in`` both read it (:mod:`repro.obs.export`).

Typical use::

    from repro.obs import Trace, tracing, span, add_counter

    with tracing(Trace("my-sweep")) as trace:
        with span("phase.work", item=3):
            ...
        add_counter("work.items")
    write_trace(trace, "trace.json")  # open in Perfetto
"""

from repro.obs.clock import wall_now
from repro.obs.context import (
    CONTEXT_FIELDS,
    TraceContext,
    clear_trace_context,
    context_fields,
    current_trace_context,
    new_trace_id,
    set_trace_context,
    trace_context,
)
from repro.obs.counters import Counters
from repro.obs.log import (
    StructuredLogger,
    configure_logging,
    current_log_path,
    get_logger,
    logging_configured,
    reset_logging,
    validate_log_records,
)
from repro.obs.profiler import (
    SamplingProfiler,
    profile,
    validate_collapsed,
)
from repro.obs.timeseries import (
    HistorySampler,
    TimeSeriesBuffer,
)
from repro.obs.metrics import (
    COUNT_BUCKETS,
    DURATION_BUCKETS,
    Histogram,
    MetricsRegistry,
    RESIDUAL_BUCKETS,
    SIZE_BUCKETS,
    TEMPERATURE_BUCKETS,
    exponential_buckets,
    linear_buckets,
    registry_summary,
    round_metric,
    to_prometheus,
    validate_metrics_payload,
)
from repro.obs.resources import (
    ResourceSample,
    peak_rss_kb,
    record_resource_delta,
    record_resource_metrics,
    reset_peak_rss,
    sample_resources,
)
from repro.obs.export import (
    phase_breakdown,
    to_chrome_events,
    validate_chrome_trace,
    write_trace,
)
from repro.obs.trace import (
    SpanRecord,
    Trace,
    activate,
    add_counter,
    current_metrics,
    current_trace,
    deactivate,
    observe,
    record_span,
    reset_tracing,
    set_gauge,
    span,
    tracing,
    tracing_enabled,
)

__all__ = [
    "CONTEXT_FIELDS",
    "COUNT_BUCKETS",
    "Counters",
    "DURATION_BUCKETS",
    "Histogram",
    "HistorySampler",
    "MetricsRegistry",
    "RESIDUAL_BUCKETS",
    "ResourceSample",
    "SIZE_BUCKETS",
    "SamplingProfiler",
    "SpanRecord",
    "StructuredLogger",
    "TEMPERATURE_BUCKETS",
    "TimeSeriesBuffer",
    "Trace",
    "TraceContext",
    "activate",
    "add_counter",
    "clear_trace_context",
    "configure_logging",
    "context_fields",
    "current_log_path",
    "current_metrics",
    "current_trace",
    "current_trace_context",
    "deactivate",
    "exponential_buckets",
    "get_logger",
    "linear_buckets",
    "logging_configured",
    "new_trace_id",
    "observe",
    "peak_rss_kb",
    "phase_breakdown",
    "profile",
    "record_resource_delta",
    "record_resource_metrics",
    "record_span",
    "registry_summary",
    "reset_logging",
    "reset_peak_rss",
    "reset_tracing",
    "round_metric",
    "sample_resources",
    "set_gauge",
    "set_trace_context",
    "span",
    "to_chrome_events",
    "to_prometheus",
    "trace_context",
    "tracing",
    "tracing_enabled",
    "validate_chrome_trace",
    "validate_collapsed",
    "validate_log_records",
    "validate_metrics_payload",
    "wall_now",
    "write_trace",
]
