"""Service telemetry: trace ids over HTTP, history, per-job profiles."""

import asyncio
import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.analysis.experiments import EXPERIMENTS, Experiment
from repro.obs import clear_trace_context, reset_logging, \
    validate_collapsed, validate_log_records
from repro.service import (
    ExperimentService,
    JobSpec,
    QueueConfig,
    ServiceClient,
    ServiceConfig,
    ServiceError,
    ServiceServer,
    TRACE_HEADER,
)
import repro.service.daemon as service_daemon
from repro.service.wal import JobWAL


class _DaemonHandle:
    def __init__(self, client, service, url, stop):
        self.client = client
        self.service = service
        self.url = url
        self.stop = stop


@pytest.fixture()
def daemon(tmp_path, monkeypatch):
    """Live daemon (inline executor) with telemetry defaults on."""
    monkeypatch.setattr(service_daemon, "HISTORY_INTERVAL_S", 0.05)
    monkeypatch.setattr(service_daemon, "PROFILE_INTERVAL_S", 0.002)
    config = ServiceConfig(
        port=0, cache_dir=tmp_path / "store", executor="inline",
        queue=QueueConfig(max_depth=8, max_per_tenant=8),
        trace_out=tmp_path / "service-trace.json")
    service = ExperimentService(config)
    server = ServiceServer(service)
    ready = threading.Event()

    async def _run():
        await server.start()
        ready.set()
        await server.serve_forever()

    thread = threading.Thread(target=lambda: asyncio.run(_run()),
                              daemon=True)
    thread.start()
    assert ready.wait(timeout=10.0), "daemon failed to start"
    url = f"http://127.0.0.1:{server.port}"
    client = ServiceClient(url, timeout_s=30.0)

    def stop():
        if thread.is_alive():
            try:
                client.shutdown()
            except ServiceError:
                pass
            thread.join(timeout=30.0)

    yield _DaemonHandle(client, service, url, stop)
    stop()
    reset_logging()
    clear_trace_context()


def _inject(monkeypatch, experiment_id, runner):
    monkeypatch.setitem(
        EXPERIMENTS, experiment_id,
        Experiment(experiment_id, "injected test experiment",
                   "(test)", runner))


def _raw_submit(url: str, spec: dict,
                headers: dict | None = None) -> dict:
    """POST /v1/jobs without the client's trace-minting sugar."""
    request = urllib.request.Request(
        url + "/v1/jobs", method="POST",
        data=json.dumps(spec).encode("utf-8"),
        headers={"Content-Type": "application/json",
                 **(headers or {})})
    with urllib.request.urlopen(request, timeout=30.0) as response:
        return json.loads(response.read().decode("utf-8"))


# -- trace propagation over HTTP -------------------------------------


def test_daemon_mints_trace_id_when_client_omits(daemon, monkeypatch):
    _inject(monkeypatch, "E-T1", lambda: 1)
    job = _raw_submit(daemon.url, {"experiments": ["E-T1"]})
    assert job["trace_id"], "daemon must mint a trace_id"


def test_header_trace_id_adopted(daemon, monkeypatch):
    _inject(monkeypatch, "E-T1", lambda: 1)
    job = _raw_submit(daemon.url, {"experiments": ["E-T1"]},
                      headers={TRACE_HEADER: "tid-from-header"})
    assert job["trace_id"] == "tid-from-header"


def test_spec_trace_id_wins_over_header(daemon, monkeypatch):
    _inject(monkeypatch, "E-T1", lambda: 1)
    job = _raw_submit(
        daemon.url,
        {"experiments": ["E-T1"], "trace_id": "tid-explicit"},
        headers={TRACE_HEADER: "tid-from-header"})
    assert job["trace_id"] == "tid-explicit"


def test_client_submit_mints_and_sends_trace_id(daemon, monkeypatch):
    _inject(monkeypatch, "E-T1", lambda: 1)
    job = daemon.client.submit(["E-T1"])
    assert job["trace_id"]
    assert len(job["trace_id"]) == 32


def test_events_carry_the_job_trace_id(daemon, monkeypatch):
    _inject(monkeypatch, "E-T1", lambda: {"v": 1})
    job = daemon.client.submit(["E-T1"], trace_id="tid-events")
    daemon.client.wait(job["id"], timeout_s=30.0)
    events = list(daemon.client.events(job["id"]))
    assert events, "expected a replayed event stream"
    assert all(event["trace_id"] == "tid-events" for event in events)


def test_followed_events_carry_the_trace_id(daemon, monkeypatch):
    _inject(monkeypatch, "E-T1", lambda: 1)
    job = daemon.client.submit(["E-T1"], trace_id="tid-follow")
    events = list(daemon.client.events(job["id"], follow=True))
    assert events[-1]["event"] == "done"
    assert all(event["trace_id"] == "tid-follow" for event in events)


def test_structured_log_correlates_to_the_job(daemon, monkeypatch,
                                              tmp_path):
    _inject(monkeypatch, "E-T1", lambda: 1)
    job = daemon.client.submit(["E-T1"], trace_id="tid-logged")
    daemon.client.wait(job["id"], timeout_s=30.0)
    log_path = tmp_path / "store" / "service" / "service.log.jsonl"
    assert log_path.is_file()
    text = log_path.read_text(encoding="utf-8")
    count, problems = validate_log_records(text)
    assert problems == []
    assert count >= 3  # service.start, job.submit, job.dispatch, ...
    correlated = [json.loads(line) for line in text.splitlines()
                  if line.strip()
                  and json.loads(line).get("trace_id") == "tid-logged"]
    assert correlated, "no log record carries the job trace_id"
    assert {"job.submit", "job.dispatch"} <= {
        record["event"] for record in correlated}


def test_wal_round_trips_trace_id_and_profile_flag(tmp_path):
    wal = JobWAL(tmp_path / "jobs.wal")
    spec = JobSpec(experiment_ids=("E-T1",), trace_id="tid-wal",
                   profile=True)
    assert wal.log_submit("j-1", spec)
    report = wal.replay()
    entry = report.entries["j-1"]
    assert entry.spec.trace_id == "tid-wal"
    assert entry.spec.profile is True


# -- /metrics/history -------------------------------------------------


def test_metrics_history_serves_samples(daemon, monkeypatch):
    _inject(monkeypatch, "E-T1", lambda: 1)
    job = daemon.client.submit(["E-T1"])
    daemon.client.wait(job["id"], timeout_s=30.0)
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline:
        history = daemon.client.history()
        if history["samples"]:
            break
        time.sleep(0.05)
    samples = history["samples"]
    assert samples, "history never produced a sample"
    latest = samples[-1]
    assert "jobs_done" in latest
    assert "rss_peak_kb" in latest
    assert history["next_seq"] >= len(samples)
    assert history["interval_s"] == pytest.approx(0.05)


def test_metrics_history_since_and_limit(daemon):
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline:
        history = daemon.client.history()
        if len(history["samples"]) >= 2:
            break
        time.sleep(0.05)
    samples = history["samples"]
    assert len(samples) >= 2
    tail = daemon.client.history(since=samples[-1]["seq"])
    assert [s["seq"] for s in tail["samples"]] \
        == [s["seq"] for s in samples if s["seq"] >= samples[-1]["seq"]]
    window = daemon.client.history(limit=1)
    assert len(window["samples"]) == 1
    assert window["samples"][0]["seq"] \
        == window["next_seq"] - 1


def test_metrics_history_rejects_bad_params(daemon):
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        urllib.request.urlopen(
            daemon.url + "/metrics/history?since=abc", timeout=10.0)
    with excinfo.value:  # the error holds the open response
        assert excinfo.value.code == 400


# -- per-job profiles -------------------------------------------------


def test_profile_route_404_without_profile(daemon, monkeypatch):
    _inject(monkeypatch, "E-T1", lambda: 1)
    job = daemon.client.submit(["E-T1"])
    daemon.client.wait(job["id"], timeout_s=30.0)
    with pytest.raises(ServiceError):
        daemon.client.profile(job["id"])


def test_profiled_job_serves_collapsed_stacks(daemon, monkeypatch,
                                              tmp_path):
    def busy():
        until = time.monotonic() + 0.2
        total = 0
        while time.monotonic() < until:
            total += sum(range(500))
        return {"total": total}

    _inject(monkeypatch, "E-PROF", busy)
    job = daemon.client.submit(["E-PROF"], profile=True,
                               use_cache=False)
    final = daemon.client.wait(job["id"], timeout_s=30.0)
    assert final["state"] == "done"
    text = daemon.client.profile(job["id"])
    stacks, problems = validate_collapsed(text)
    assert problems == []
    assert stacks >= 1
    # The artifact is also persisted next to the WAL for post-mortems.
    on_disk = (tmp_path / "store" / "service"
               / f"{job['id']}.profile.txt")
    assert on_disk.is_file()
    assert on_disk.read_text(encoding="utf-8") == text
