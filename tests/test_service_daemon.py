"""The service daemon: HTTP job API, backpressure, shutdown."""

import asyncio
import json
import queue
import re
import socket
import threading
import time

import pytest

import repro.service.daemon as service_daemon
from repro.analysis.experiments import EXPERIMENTS, Experiment
from repro.errors import ReproError
from repro.service import (
    BackpressureError,
    ExperimentService,
    Job,
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
    held, the job still reads ``running``, and a follower that starts
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
        time.sleep(0.2)  # the follower reads inside the held write
    finally:
        release.set()
    follower.join(timeout=30.0)
    assert not follower.is_alive()
    assert collected[-1]["event"] == "done"
    assert daemon.client.job(job["id"])["state"] == "done"


class _CountingLock:
    """``job.lock`` stand-in that counts the holds other threads take."""

    def __init__(self, lock):
        self._lock = lock
        self._owner = threading.get_ident()
        self.holds = 0

    def __enter__(self):
        self._lock.acquire()
        if threading.get_ident() != self._owner:
            self.holds += 1
        return self

    def __exit__(self, *exc_info):
        self._lock.release()


def _blocked_job(daemon, monkeypatch):
    """Submit an E-T1 job whose run waits on the returned event."""
    started, release = threading.Event(), threading.Event()

    def runner():
        started.set()
        release.wait(timeout=30.0)
        return 1

    _inject(monkeypatch, "E-T1", runner)
    job_id = daemon.client.submit(["E-T1"])["id"]
    assert started.wait(timeout=10.0)
    return daemon.service.job(job_id), release


def test_parked_follower_wakes_on_each_append_without_polling(
        daemon, monkeypatch):
    """A follower parked on a running job takes no snapshot while the
    job is silent, and each event appended from another thread reaches
    it: the append wakes it, no timed poll does."""
    monkeypatch.setattr(service_daemon, "FOLLOW_KEEPALIVE_S", 60.0)
    job, release = _blocked_job(daemon, monkeypatch)
    lock = _CountingLock(job.lock)
    job.lock = lock
    received = queue.Queue()
    follower = threading.Thread(target=lambda: [
        received.put(event)
        for event in daemon.client.events(job.id, follow=True)])
    follower.start()
    try:
        assert [received.get(timeout=10.0)["event"]
                for _ in range(2)] == ["queued", "running"]
        parked = lock.holds
        time.sleep(0.5)  # ten of the old 50 ms polls
        assert lock.holds == parked
        for index in range(20):
            job.add_event("probe", index=index)
            event = received.get(timeout=10.0)
            assert (event["event"], event["index"]) == ("probe", index)
    finally:
        release.set()
        follower.join(timeout=30.0)
    assert not follower.is_alive()
    assert [received.get_nowait()["event"]
            for _ in range(received.qsize())][-1] == "done"
    assert job.followers == []


def test_keepalive_holds_a_silent_follow_past_the_client_timeout(
        daemon, monkeypatch):
    """A job that stays silent for longer than the client's read
    timeout keeps its follow stream: the daemon writes a blank line
    whenever it has sent nothing for the keepalive period."""
    monkeypatch.setattr(service_daemon, "FOLLOW_KEEPALIVE_S", 0.2)
    _inject(monkeypatch, "E-T1", lambda: time.sleep(2.5) or 1)
    job_id = daemon.client.submit(["E-T1"])["id"]
    impatient = ServiceClient(daemon.client.base_url, timeout_s=1.0,
                              retries=0)
    events = list(impatient.events(job_id, follow=True))
    assert events[-1]["event"] == "done"
    assert [event["seq"] for event in events] \
        == list(range(len(events)))


def test_keepalive_notices_a_follower_that_has_gone(daemon, monkeypatch):
    monkeypatch.setattr(service_daemon, "FOLLOW_KEEPALIVE_S", 0.05)
    job, release = _blocked_job(daemon, monkeypatch)
    port = int(daemon.client.base_url.rsplit(":", 1)[1])
    try:
        with socket.create_connection(("127.0.0.1", port),
                                      timeout=10.0) as conn:
            conn.sendall((f"GET /v1/jobs/{job.id}/events?follow=1 "
                          "HTTP/1.1\r\nHost: test\r\n\r\n").encode())
            assert conn.recv(1)  # the stream has begun
            assert len(job.followers) == 1
        deadline = time.monotonic() + 10.0
        while job.followers and time.monotonic() < deadline:
            time.sleep(0.01)
        assert job.followers == []
        assert not job.terminal
    finally:
        release.set()


def test_waking_a_follower_after_its_loop_closed_raises_nothing(
        tmp_path):
    server = ServiceServer(ExperimentService(ServiceConfig(
        cache_dir=tmp_path / "store")))
    job = Job(id="j-1", spec=JobSpec())
    job.add_event("queued")

    class _Writer:
        def write(self, data):
            pass

        async def drain(self):
            pass

    loop = asyncio.new_event_loop()
    loop.create_task(server._stream_events(job, _Writer(), follow=True))
    loop.run_until_complete(asyncio.sleep(0.05))
    assert len(job.followers) == 1  # parked on the job
    loop.close()
    job.add_event("record")  # a dispatcher appending after the loop died
    job.transition("done")
    assert job.terminal


def test_wait_rides_the_follow_stream(daemon, monkeypatch):
    """``wait`` follows the events, then fetches the job once: two
    requests however long the job runs, and a job silent for longer
    than the client's read timeout is outlasted on keepalives."""
    monkeypatch.setattr(service_daemon, "FOLLOW_KEEPALIVE_S", 0.2)
    _inject(monkeypatch, "E-T1", lambda: time.sleep(1.5) or 1)
    job_id = daemon.client.submit(["E-T1"])["id"]
    counters = daemon.service.trace.counters
    before = counters.as_dict()["service.requests"]
    impatient = ServiceClient(daemon.client.base_url, timeout_s=1.0,
                              retries=0)
    final = impatient.wait(job_id, timeout_s=30.0)
    assert final["state"] == "done"
    assert final["records"][0]["status"] == "ok"
    assert counters.as_dict()["service.requests"] - before == 2


def test_wait_raises_at_its_deadline(daemon, monkeypatch):
    """A job still live at the deadline raises ``ServiceError`` then,
    not at the next keepalive (5 s away)."""
    job, release = _blocked_job(daemon, monkeypatch)
    start = time.monotonic()
    try:
        with pytest.raises(ServiceError, match="still running"):
            daemon.client.wait(job.id, timeout_s=0.5)
        assert time.monotonic() - start < 3.0
    finally:
        release.set()


def test_a_blocked_submit_leaves_the_event_loop_free(daemon,
                                                     monkeypatch):
    """A submission waiting on the WAL (its fsync, or a live compaction
    holding the lock) runs off the event loop: ``/healthz`` answers
    meanwhile."""
    _inject(monkeypatch, "E-T1", lambda: 1)
    service = daemon.service
    submitted = []
    with service.wal._lock:
        poster = threading.Thread(target=lambda: submitted.append(
            daemon.client.submit(["E-T1"])))
        poster.start()
        deadline = time.monotonic() + 5.0
        while not service.queue.depth() and time.monotonic() < deadline:
            time.sleep(0.01)  # admitted, now waiting on the WAL
        start = time.monotonic()
        health = ServiceClient(daemon.client.base_url, timeout_s=1.0,
                               retries=0).health()
        assert time.monotonic() - start < 1.0
        assert health["ok"] is True
        assert poster.is_alive()
    poster.join(timeout=30.0)
    assert not poster.is_alive()
    assert daemon.client.wait(submitted[0]["id"],
                              timeout_s=30.0)["state"] == "done"


def test_a_blocked_cancel_leaves_the_event_loop_free(daemon, monkeypatch):
    """A cancel waits on the WAL for its state record as a submit does
    for its ``submit`` record, and runs off the event loop too."""
    started = threading.Event()
    block = threading.Event()

    def slow_runner():
        started.set()
        block.wait(timeout=30.0)
        return 1

    _inject(monkeypatch, "E-T1", slow_runner)
    service = daemon.service
    try:
        daemon.client.submit(["E-T1"], tenant="a")
        queued = daemon.client.submit(["E-T1"], tenant="b")
        assert started.wait(timeout=10.0)
        answers = []
        with service.wal._lock:
            canceller = threading.Thread(target=lambda: answers.append(
                daemon.client.cancel(queued["id"])))
            canceller.start()
            deadline = time.monotonic() + 5.0
            while service.queue.depth() and time.monotonic() < deadline:
                time.sleep(0.01)  # dequeued, now waiting on the WAL
            start = time.monotonic()
            health = ServiceClient(daemon.client.base_url, timeout_s=1.0,
                                   retries=0).health()
            assert time.monotonic() - start < 1.0
            assert health["ok"] is True
            assert canceller.is_alive()
        canceller.join(timeout=30.0)
        assert not canceller.is_alive()
        assert answers[0]["cancelled"] is True
    finally:
        block.set()
    assert daemon.client.wait(queued["id"],
                              timeout_s=5.0)["state"] == "cancelled"


def test_jobs_prune_the_store_only_when_a_bound_is_set(tmp_path,
                                                       monkeypatch):
    """Shutdown prunes once either way; a finished job prunes only
    under a store bound, since a pass with none evicts nothing."""
    _inject(monkeypatch, "E-T1", lambda: 1)
    for bounds, per_job in (({}, 0), ({"store_max_entries": 100}, 1)):
        service = ExperimentService(ServiceConfig(
            port=0, cache_dir=tmp_path / f"store-{per_job}",
            executor="inline", **bounds))
        prunes = []
        prune = service.store.prune
        monkeypatch.setattr(service.store, "prune",
                            lambda **kw: prunes.append(kw) or prune(**kw))
        service.start()
        try:
            job, _ = service.submit(JobSpec(experiment_ids=("E-T1",)))
            _wait_terminal(job)
        finally:
            service.stop()
        assert len(prunes) == per_job + 1


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
                                          monkeypatch, capsys):
    from repro.cli import main
    from repro.obs import validate_chrome_trace

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
    # the one trace artifact: Perfetto-valid events, whose job spans
    # and metrics the offline readers render
    assert validate_chrome_trace(
        json.loads(trace_path.read_text(encoding="utf-8"))) == []
    capsys.readouterr()
    assert main(["trace", "--in", str(trace_path),
                 "--job", job["id"]]) == 0
    out = capsys.readouterr().out
    assert int(re.search(r"(\d+) of \d+ spans from", out).group(1)) > 0
    assert main(["stats", "--in", str(trace_path)]) == 0
    out = capsys.readouterr().out
    assert "histograms:" in out and "service.job_wall_s" in out


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
    # release the running job only once the drain has settled the
    # queued one: released earlier, the dispatcher may pop and finish
    # the queued job before the shutdown request reaches the service
    _wait_terminal(daemon.service.job(queued["id"]))
    block.set()
    stopper.join(timeout=30.0)
    assert daemon.service.job(queued["id"]).state == "cancelled"
    assert daemon.service.job(running["id"]).state == "done"
