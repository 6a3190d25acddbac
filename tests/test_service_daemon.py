"""The service daemon: HTTP job API, backpressure, shutdown."""

import asyncio
import json
import socket
import threading
import time

import pytest

from repro.analysis.experiments import EXPERIMENTS, Experiment
from repro.errors import ReproError
from repro.service import (
    BackpressureError,
    ExperimentService,
    JobSpec,
    QueueConfig,
    QueueFullError,
    ServiceClient,
    ServiceConfig,
    ServiceError,
    ServiceServer,
)


class _DaemonHandle:
    def __init__(self, client, service, stop):
        self.client = client
        self.service = service
        self.stop = stop


@pytest.fixture()
def daemon(tmp_path):
    """A live daemon on an ephemeral port, torn down after the test.

    The inline executor keeps injected (monkeypatched) experiments
    visible to job sweeps: they run on the dispatcher thread in this
    process, no fork required.
    """
    config = ServiceConfig(
        port=0, cache_dir=tmp_path / "store", executor="inline",
        queue=QueueConfig(max_depth=3, max_per_tenant=2),
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
    client = ServiceClient(f"http://127.0.0.1:{server.port}",
                           timeout_s=30.0)

    def stop():
        if thread.is_alive():
            try:
                client.shutdown()
            except ServiceError:
                pass
            thread.join(timeout=30.0)

    yield _DaemonHandle(client, service, stop)
    stop()


def _inject(monkeypatch, experiment_id, runner):
    monkeypatch.setitem(
        EXPERIMENTS, experiment_id,
        Experiment(experiment_id, "injected test experiment",
                   "(test)", runner))


def test_healthz(daemon):
    health = daemon.client.health()
    assert health["ok"] is True
    assert health["queued"] == 0


def test_submit_wait_result_round_trip(daemon, monkeypatch):
    _inject(monkeypatch, "E-T1", lambda: {"answer": 42})
    job = daemon.client.submit(["E-T1"], tenant="alice")
    assert job["state"] == "queued"
    final = daemon.client.wait(job["id"], timeout_s=30.0)
    assert final["state"] == "done"
    assert final["records"][0]["status"] == "ok"
    payload = daemon.client.result(job["id"])
    assert payload["results"]["E-T1"] == {"answer": 42}
    assert payload["metrics"]["ok"] == 1


def test_resubmission_served_from_shared_store(daemon, monkeypatch):
    calls = []

    def runner():
        calls.append(1)
        return {"value": 7}

    _inject(monkeypatch, "E-T1", runner)
    first = daemon.client.submit(["E-T1"], tenant="alice")
    daemon.client.wait(first["id"], timeout_s=30.0)
    second = daemon.client.submit(["E-T1"], tenant="bob")
    final = daemon.client.wait(second["id"], timeout_s=30.0)
    assert len(calls) == 1  # the second job never recomputed
    assert final["records"][0]["cache_hit"] is True
    store = daemon.client.store()
    assert store["journal_hits"] == 1


def test_event_stream_replays_job_lifecycle(daemon, monkeypatch):
    _inject(monkeypatch, "E-T1", lambda: 1)
    job = daemon.client.submit(["E-T1"])
    daemon.client.wait(job["id"], timeout_s=30.0)
    events = list(daemon.client.events(job["id"]))
    kinds = [event["event"] for event in events]
    assert kinds[0] == "queued"
    assert "running" in kinds
    assert "record" in kinds
    assert kinds[-1] == "done"
    assert [event["seq"] for event in events] \
        == list(range(len(events)))


def test_follow_streams_until_terminal(daemon, monkeypatch):
    release = threading.Event()

    def runner():
        release.wait(timeout=10.0)
        return 1

    _inject(monkeypatch, "E-T1", runner)
    job = daemon.client.submit(["E-T1"])
    collected = []

    def consume():
        collected.extend(
            daemon.client.events(job["id"], follow=True))

    consumer = threading.Thread(target=consume)
    consumer.start()
    release.set()
    consumer.join(timeout=30.0)
    assert not consumer.is_alive()
    assert [e["event"] for e in collected][-1] in ("done", "failed")


def test_terminal_state_waits_for_its_journal_record(daemon, monkeypatch):
    """A transition is journalled before any client sees it, and its
    state and event appear together: while the WAL's ``done`` write is
    held, the job still reads ``running``, and a follower that polls
    meanwhile ends its stream on ``done``."""
    _inject(monkeypatch, "E-T1", lambda: 1)
    wal = daemon.service.wal
    log_state = wal.log_state
    held, release = threading.Event(), threading.Event()

    def held_log_state(job_id, state, **fields):
        if state == "done":
            held.set()
            release.wait(timeout=30.0)
        return log_state(job_id, state, **fields)

    monkeypatch.setattr(wal, "log_state", held_log_state)
    job = daemon.client.submit(["E-T1"])
    collected = []
    follower = threading.Thread(target=lambda: collected.extend(
        daemon.client.events(job["id"], follow=True)))
    try:
        assert held.wait(timeout=30.0)
        assert daemon.client.job(job["id"])["state"] == "running"
        follower.start()
        time.sleep(0.2)  # several 50 ms polls inside the held write
    finally:
        release.set()
    follower.join(timeout=30.0)
    assert not follower.is_alive()
    assert collected[-1]["event"] == "done"
    assert daemon.client.job(job["id"])["state"] == "done"


def test_backpressure_returns_429(daemon, monkeypatch):
    block = threading.Event()

    def slow_runner():
        block.wait(timeout=30.0)
        return 1

    _inject(monkeypatch, "E-T1", slow_runner)
    try:
        running = daemon.client.submit(["E-T1"], tenant="hog")
        # queue depth is 3: fill it while the dispatcher is blocked
        for index in range(3):
            daemon.client.submit(["E-T1"], tenant=f"t{index}")
        with pytest.raises(BackpressureError) as excinfo:
            daemon.client.submit(["E-T1"], tenant="late")
        assert excinfo.value.status == 429
        assert excinfo.value.payload["reason"] == "queue_depth"
        assert excinfo.value.retry_after_s > 0
    finally:
        block.set()
    daemon.client.wait(running["id"], timeout_s=30.0)


def test_per_tenant_backpressure(daemon, monkeypatch):
    block = threading.Event()
    _inject(monkeypatch, "E-T1",
            lambda: block.wait(timeout=30.0) and 1)
    try:
        daemon.client.submit(["E-T1"], tenant="noisy")  # running
        daemon.client.submit(["E-T1"], tenant="noisy")  # queued x2
        daemon.client.submit(["E-T1"], tenant="noisy")
        with pytest.raises(BackpressureError) as excinfo:
            daemon.client.submit(["E-T1"], tenant="noisy")
        assert excinfo.value.payload["reason"] == "tenant_depth"
    finally:
        block.set()


def test_cancel_queued_job_but_not_running(daemon, monkeypatch):
    started = threading.Event()
    block = threading.Event()

    def slow_runner():
        started.set()
        block.wait(timeout=30.0)
        return 1

    _inject(monkeypatch, "E-T1", slow_runner)
    try:
        running = daemon.client.submit(["E-T1"], tenant="a")
        queued = daemon.client.submit(["E-T1"], tenant="b")
        assert started.wait(timeout=10.0)
        cancelled = daemon.client.cancel(queued["id"])
        assert cancelled["cancelled"] is True
        with pytest.raises(ServiceError) as excinfo:
            daemon.client.cancel(running["id"])
        assert excinfo.value.status == 409
    finally:
        block.set()
    assert daemon.client.wait(queued["id"],
                              timeout_s=5.0)["state"] == "cancelled"


def test_job_priority_orders_dispatch(daemon, monkeypatch):
    order = []
    block = threading.Event()

    def make_runner(tag):
        def runner():
            if tag == "blocker":
                block.wait(timeout=30.0)
            else:
                order.append(tag)
            return tag
        return runner

    _inject(monkeypatch, "E-T1", make_runner("blocker"))
    _inject(monkeypatch, "E-T2", make_runner("low"))
    _inject(monkeypatch, "E-F1", make_runner("high"))
    try:
        blocker = daemon.client.submit(["E-T1"])
        low = daemon.client.submit(["E-T2"], priority="low",
                                   tenant="a")
        high = daemon.client.submit(["E-F1"], priority="high",
                                    tenant="b")
    finally:
        block.set()
    for job in (blocker, low, high):
        daemon.client.wait(job["id"], timeout_s=30.0)
    assert order == ["high", "low"]


def test_failed_experiment_marks_job_failed(daemon, monkeypatch):
    def exploding():
        raise RuntimeError("model blew up")

    _inject(monkeypatch, "E-T1", exploding)
    job = daemon.client.submit(["E-T1"], retries=0)
    final = daemon.client.wait(job["id"], timeout_s=30.0)
    assert final["state"] == "failed"
    assert "not ok" in final["error"]
    # results of a failed job are still readable (state included)
    payload = daemon.client.result(job["id"])
    assert payload["state"] == "failed"


def test_unknown_routes_and_jobs(daemon):
    with pytest.raises(ServiceError) as excinfo:
        daemon.client.job("j-nope")
    assert excinfo.value.status == 404
    with pytest.raises(ServiceError) as excinfo:
        daemon.client._request("GET", "/v1/nothing-here")
    assert excinfo.value.status == 404


def test_malformed_spec_rejected_400(daemon):
    with pytest.raises(ServiceError) as excinfo:
        daemon.client._request("POST", "/v1/jobs",
                               {"priority": "urgent"})
    assert excinfo.value.status == 400
    with pytest.raises(ServiceError) as excinfo:
        daemon.client._request("POST", "/v1/jobs",
                               {"bogus": True})
    assert excinfo.value.status == 400


@pytest.mark.parametrize("length", ["abc", "-5"])
def test_malformed_content_length_rejected_400(daemon, length):
    port = int(daemon.client.base_url.rsplit(":", 1)[1])
    with socket.create_connection(("127.0.0.1", port),
                                  timeout=10.0) as conn:
        conn.sendall(("POST /v1/jobs HTTP/1.1\r\nHost: test\r\n"
                      f"Content-Length: {length}\r\n\r\n").encode())
        raw = b""
        while chunk := conn.recv(4096):
            raw += chunk
    head, _, body = raw.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 400")
    assert "Content-Length" in json.loads(body)["error"]


def _wait_terminal(job, timeout_s=30.0):
    deadline = time.monotonic() + timeout_s
    while not job.terminal and time.monotonic() < deadline:
        time.sleep(0.01)
    assert job.terminal, f"{job.id} still {job.state}"


def test_queued_event_precedes_dispatch(tmp_path, monkeypatch):
    """The ``queued`` event exists before a dispatcher can pop the job,
    however late the submitting thread resumes after admission."""
    _inject(monkeypatch, "E-T1", lambda: 1)
    service = ExperimentService(ServiceConfig(
        port=0, cache_dir=tmp_path / "store", executor="inline"))
    admit = service.queue.submit

    def slow_admission(job, **kwargs):
        admit(job, **kwargs)
        time.sleep(0.3)  # the dispatcher pops and runs the job now

    monkeypatch.setattr(service.queue, "submit", slow_admission)
    service.start()
    try:
        jobs = [service.submit(JobSpec(experiment_ids=("E-T1",)))[0]
                for _ in range(3)]
        for job in jobs:
            _wait_terminal(job)
    finally:
        service.stop()
    for job in jobs:
        kinds = [event["event"] for event in job.events]
        assert kinds[0] == "queued" and kinds[-1] == "done", kinds
        logged, _ = job.event_log.replay()
        assert [event["event"] for event in logged] == kinds


def test_rejected_submission_leaves_no_event_file(tmp_path):
    service = ExperimentService(ServiceConfig(
        port=0, cache_dir=tmp_path / "store", executor="inline",
        queue=QueueConfig(max_depth=1, max_per_tenant=1)))
    admitted, _ = service.submit(JobSpec())
    with pytest.raises(QueueFullError):
        service.submit(JobSpec())
    assert [path.name for path
            in (tmp_path / "store" / "service").glob("*.events.jsonl")] \
        == [f"{admitted.id}.events.jsonl"]


def test_list_jobs_filters_by_tenant(daemon, monkeypatch):
    _inject(monkeypatch, "E-T1", lambda: 1)
    a = daemon.client.submit(["E-T1"], tenant="alice")
    b = daemon.client.submit(["E-T1"], tenant="bob")
    for job in (a, b):
        daemon.client.wait(job["id"], timeout_s=30.0)
    assert {j["tenant"] for j in daemon.client.jobs()} \
        == {"alice", "bob"}
    only = daemon.client.jobs(tenant="alice")
    assert len(only) == 1 and only[0]["id"] == a["id"]


def test_stats_routes(daemon, monkeypatch):
    _inject(monkeypatch, "E-T1", lambda: 1)
    job = daemon.client.submit(["E-T1"], tenant="alice")
    daemon.client.wait(job["id"], timeout_s=30.0)
    stats = daemon.client.stats()
    assert stats["counters"]["service.jobs_done"] == 1
    assert stats["queue"]["admitted"] == 1
    exposition = daemon.client.stats_prometheus()
    assert "service_job_wall_s" in exposition or "service" in exposition
    store = daemon.client.store()
    assert store["entries"] == 1


def test_store_prune_route(daemon, monkeypatch):
    _inject(monkeypatch, "E-T1", lambda: 1)
    job = daemon.client.submit(["E-T1"])
    daemon.client.wait(job["id"], timeout_s=30.0)
    report = daemon.client.prune_store()
    # the daemon has no store bounds configured: nothing to evict
    assert report["evicted"] == 0
    assert report["kept"] == 1


def test_shutdown_drains_and_writes_trace(daemon, tmp_path,
                                          monkeypatch):
    _inject(monkeypatch, "E-T1", lambda: 1)
    job = daemon.client.submit(["E-T1"])
    daemon.client.wait(job["id"], timeout_s=30.0)
    daemon.stop()
    assert daemon.service.draining
    assert not daemon.service.signalled  # HTTP stop, not a signal
    trace_path = daemon.service.config.trace_out
    assert trace_path.exists()
    # submissions after drain are refused
    with pytest.raises(ReproError):
        daemon.service.submit(JobSpec())


def test_queued_jobs_cancelled_on_shutdown(daemon, monkeypatch):
    block = threading.Event()

    def slow_runner():
        block.wait(timeout=30.0)
        return 1

    _inject(monkeypatch, "E-T1", slow_runner)
    running = daemon.client.submit(["E-T1"], tenant="a")
    queued = daemon.client.submit(["E-T1"], tenant="b")
    stopper = threading.Thread(target=daemon.stop)
    stopper.start()
    block.set()
    stopper.join(timeout=30.0)
    assert daemon.service.job(queued["id"]).state == "cancelled"
    assert daemon.service.job(running["id"]).state == "done"
