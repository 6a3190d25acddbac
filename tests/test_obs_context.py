"""Trace-context propagation: thread locals, engine runs, pool workers."""

import threading

import pytest

from repro.analysis.experiments import EXPERIMENTS, Experiment
from repro.engine import EngineConfig, run_experiments
from repro.obs import (
    CONTEXT_FIELDS,
    Trace,
    TraceContext,
    clear_trace_context,
    context_fields,
    current_trace_context,
    new_trace_id,
    set_trace_context,
    trace_context,
    tracing,
)


@pytest.fixture(autouse=True)
def _clean_context():
    clear_trace_context()
    yield
    clear_trace_context()


def test_new_trace_id_unique_and_valid():
    first, second = new_trace_id(), new_trace_id()
    assert first != second
    assert len(first) == 32
    assert all(c in "0123456789abcdef" for c in first)


def test_context_fields_empty_by_default():
    assert context_fields() == {}
    assert current_trace_context().as_fields() == {}


def test_set_and_clear():
    set_trace_context(trace_id="t-1", job_id="j-1", tenant="acme")
    assert context_fields() == {
        "trace_id": "t-1", "job_id": "j-1", "tenant": "acme"}
    clear_trace_context()
    assert context_fields() == {}


def test_partial_context_omits_unset_fields():
    set_trace_context(trace_id="t-only")
    fields = context_fields()
    assert fields == {"trace_id": "t-only"}
    assert set(fields) <= set(CONTEXT_FIELDS)


def test_unknown_fields_ignored():
    set_trace_context(trace_id="t-1", bogus="dropped")
    assert "bogus" not in context_fields()


def test_trace_context_manager_restores_previous():
    set_trace_context(trace_id="outer")
    with trace_context(trace_id="inner", job_id="j-9"):
        assert context_fields()["trace_id"] == "inner"
        assert context_fields()["job_id"] == "j-9"
    assert context_fields() == {"trace_id": "outer"}


def test_trace_context_restores_on_exception():
    with pytest.raises(RuntimeError):
        with trace_context(trace_id="doomed"):
            raise RuntimeError("boom")
    assert context_fields() == {}


def test_context_is_thread_local():
    set_trace_context(trace_id="main-thread")
    seen = {}

    def probe():
        seen["fields"] = context_fields()

    thread = threading.Thread(target=probe)
    thread.start()
    thread.join()
    assert seen["fields"] == {}
    assert context_fields()["trace_id"] == "main-thread"


def test_trace_context_dataclass_round_trip():
    ctx = TraceContext(trace_id="t", job_id="j", tenant="ten")
    assert ctx.as_fields() == {
        "trace_id": "t", "job_id": "j", "tenant": "ten"}


def test_spans_inherit_active_context():
    trace = Trace("ctx-test")
    with tracing(trace), trace_context(trace_id="span-tid",
                                       job_id="j-span"):
        from repro.obs import span
        with span("unit.work"):
            pass
    record = next(s for s in trace.spans if s.name == "unit.work")
    assert record.attributes["trace_id"] == "span-tid"
    assert record.attributes["job_id"] == "j-span"


def test_explicit_span_attributes_win_over_context():
    trace = Trace("ctx-test")
    with tracing(trace), trace_context(trace_id="ambient"):
        from repro.obs import span
        with span("unit.work", trace_id="explicit"):
            pass
    record = next(s for s in trace.spans if s.name == "unit.work")
    assert record.attributes["trace_id"] == "explicit"


def test_engine_config_context_reaches_inline_spans(tmp_path):
    trace = Trace("inline-ctx")
    config = EngineConfig(jobs=1, executor="inline",
                          cache_enabled=False,
                          cache_dir=tmp_path / "cache",
                          trace_context={"trace_id": "tid-inline",
                                         "job_id": "j-inline"})
    with tracing(trace):
        sweep = run_experiments(["E-T2"], config=config)
    assert sweep.metrics.all_ok
    sweep_span = next(s for s in trace.spans
                      if s.name == "engine.sweep")
    assert sweep_span.attributes["trace_id"] == "tid-inline"
    assert sweep_span.attributes["job_id"] == "j-inline"


def test_trace_id_survives_process_pool_workers(tmp_path):
    """The tentpole contract: spans from forked workers carry the
    submitting run's trace_id even though thread-locals do not
    survive a fork."""
    trace = Trace("pool-ctx")
    config = EngineConfig(jobs=2, executor="process",
                          cache_enabled=False,
                          cache_dir=tmp_path / "cache",
                          trace_context={"trace_id": "tid-pool"})
    with tracing(trace):
        sweep = run_experiments(["E-T1", "E-T2"], config=config)
    assert sweep.metrics.all_ok
    import os
    worker_spans = [s for s in trace.spans
                    if s.pid != os.getpid()]
    assert worker_spans, "no worker-process spans merged back"
    for record in worker_spans:
        assert record.attributes.get("trace_id") == "tid-pool", (
            f"worker span {record.name} lost the trace_id: "
            f"{record.attributes}")
    lanes = {s.pid for s in trace.spans
             if s.attributes.get("trace_id") == "tid-pool"}
    assert len(lanes) >= 2, "expected parent + worker lanes"


def test_ambient_context_used_when_config_has_none(tmp_path):
    trace = Trace("ambient-ctx")
    config = EngineConfig(jobs=1, executor="inline",
                          cache_enabled=False,
                          cache_dir=tmp_path / "cache")
    with tracing(trace), trace_context(trace_id="ambient-tid"):
        sweep = run_experiments(["E-T2"], config=config)
    assert sweep.metrics.all_ok
    sweep_span = next(s for s in trace.spans
                      if s.name == "engine.sweep")
    assert sweep_span.attributes["trace_id"] == "ambient-tid"
