"""The service job model and the multi-tenant admission queue."""

import json
import threading

import pytest

from repro.errors import ReproError
from repro.service import (
    AdmissionQueue,
    Job,
    JobEventLog,
    JobSpec,
    QueueConfig,
    QueueFullError,
    json_safe,
    next_job_id,
)


def _job(tenant="default", priority="normal", ids=("E-T1",)):
    return Job(id=next_job_id(),
               spec=JobSpec(experiment_ids=tuple(ids), tenant=tenant,
                            priority=priority))


# -- JobSpec ----------------------------------------------------------


def test_spec_defaults_and_round_trip():
    spec = JobSpec.from_json_dict({"experiments": ["E-T1", "E-T2"]})
    assert spec.tenant == "default"
    assert spec.priority == "normal"
    assert spec.use_cache is True
    again = JobSpec.from_json_dict(spec.to_json_dict())
    assert again == spec


def test_spec_dedupes_experiments_preserving_order():
    spec = JobSpec.from_json_dict(
        {"experiments": ["E-T2", "E-T1", "E-T2"]})
    assert spec.experiment_ids == ("E-T2", "E-T1")


@pytest.mark.parametrize("payload", [
    "not a dict",
    {"experiments": "E-T1"},
    {"experiments": [1, 2]},
    {"priority": "urgent"},
    {"tenant": ""},
    {"tenant": "no spaces allowed"},
    {"tenant": "x" * 65},
    {"timeout_s": 0},
    {"timeout_s": "soon"},
    {"retries": -1},
    {"workers": 0},
    {"bogus_key": 1},
])
def test_spec_rejects_malformed_payloads(payload):
    with pytest.raises(ReproError):
        JobSpec.from_json_dict(payload)


def test_json_safe_handles_numpy_and_foreign_types():
    numpy = pytest.importorskip("numpy")
    payload = json_safe({
        "scalar": numpy.float64(1.5),
        "array": numpy.arange(3),
        "nested": {"ok": True, "ids": ("a", "b")},
        "weird": object(),
    })
    # must round-trip through the JSON encoder without error
    text = json.dumps(payload)
    decoded = json.loads(text)
    assert decoded["scalar"] == 1.5
    assert decoded["array"] == [0, 1, 2]
    assert decoded["nested"]["ids"] == ["a", "b"]
    assert isinstance(decoded["weird"], str)


# -- Job lifecycle ----------------------------------------------------


def test_job_transitions_stamp_times_and_events():
    job = _job()
    assert job.state == "queued"
    assert not job.terminal
    job.transition("running")
    assert job.started_at is not None
    job.transition("done", ok=1)
    assert job.terminal
    assert job.finished_at >= job.started_at
    assert [event["event"] for event in job.events] \
        == ["running", "done"]
    assert job.events[0]["seq"] == 0
    assert job.queue_wait_s() is not None
    assert job.wall_s() is not None


def test_job_results_round_trip_through_compact_storage():
    numpy = pytest.importorskip("numpy")
    results = {"E-T1": {"rows": [(1, 2.5)], "x": numpy.float64(0.1),
                        "nan": float("nan")},
               "E-T2": [0.1 + 0.2, 1e-300]}
    job = _job()
    assert job.results() is None
    job.store_results(results)
    # decoded payload equals what the results endpoint used to encode
    expected = json.dumps(json_safe(results), sort_keys=True)
    assert json.dumps(job.results(), sort_keys=True) == expected


def test_job_rejects_unknown_state():
    with pytest.raises(ReproError):
        _job().transition("exploded")


def test_job_event_log_appends_jsonl(tmp_path):
    path = tmp_path / "events.jsonl"
    job = Job(id="j-1", spec=JobSpec(), event_log=JobEventLog(path))
    job.add_event("queued", tenant="default")
    job.transition("running")
    lines = path.read_text().splitlines()
    assert len(lines) == 2
    assert json.loads(lines[0])["event"] == "queued"
    assert json.loads(lines[1])["job"] == "j-1"


def test_job_ids_are_unique_and_sortable():
    ids = [next_job_id() for _ in range(5)]
    assert len(set(ids)) == 5
    assert ids == sorted(ids)


# -- AdmissionQueue ---------------------------------------------------


def test_queue_priority_order_fifo_within_class():
    queue = AdmissionQueue()
    low = _job(priority="low")
    first_normal = _job(priority="normal")
    second_normal = _job(priority="normal")
    high = _job(priority="high")
    for job in (low, first_normal, second_normal, high):
        queue.submit(job)
    assert [queue.pop() for _ in range(4)] \
        == [high, first_normal, second_normal, low]
    assert queue.pop() is None


def test_queue_global_depth_rejection():
    queue = AdmissionQueue(QueueConfig(max_depth=2, max_per_tenant=2))
    queue.submit(_job(tenant="a"))
    queue.submit(_job(tenant="b"))
    with pytest.raises(QueueFullError) as excinfo:
        queue.submit(_job(tenant="c"))
    assert excinfo.value.reason == "queue_depth"
    assert excinfo.value.retry_after_s > 0
    assert queue.rejected == 1
    assert queue.depth() == 2


def test_queue_fills_to_both_caps_and_drains():
    # 4 tenants x 64 jobs meet the per-tenant and the global cap at
    # once: every job is admitted, and the queue drains to empty.
    queue = AdmissionQueue(QueueConfig(max_depth=256, max_per_tenant=64))
    for index in range(256):
        queue.submit(_job(tenant=f"t{index % 4}"))
    while queue.pop() is not None:
        pass
    assert queue.admitted == 256
    assert queue.depth() == 0


def test_queue_per_tenant_rejection_leaves_room_for_others():
    queue = AdmissionQueue(QueueConfig(max_depth=8, max_per_tenant=1))
    queue.submit(_job(tenant="noisy"))
    with pytest.raises(QueueFullError) as excinfo:
        queue.submit(_job(tenant="noisy"))
    assert excinfo.value.reason == "tenant_depth"
    # the other tenant still gets in
    queue.submit(_job(tenant="quiet"))
    assert queue.tenant_depth("noisy") == 1
    assert queue.tenant_depth("quiet") == 1


def test_queue_cancel_removes_only_queued_jobs():
    queue = AdmissionQueue()
    job = _job()
    queue.submit(job)
    cancelled = queue.cancel(job.id)
    assert cancelled is job
    assert job.state == "cancelled"
    assert queue.depth() == 0
    assert queue.cancel("j-nope") is None


def test_queue_pending_lists_dispatch_order():
    queue = AdmissionQueue()
    normal = _job(priority="normal")
    high = _job(priority="high")
    queue.submit(normal)
    queue.submit(high)
    assert queue.pending() == [high, normal]


def test_queue_config_validation():
    with pytest.raises(ValueError):
        QueueConfig(max_depth=0)
    with pytest.raises(ValueError):
        QueueConfig(max_per_tenant=0)


def test_queue_concurrent_submissions_respect_bound():
    """A burst of racing submitters cannot overshoot the depth cap."""
    queue = AdmissionQueue(QueueConfig(max_depth=5, max_per_tenant=5))
    outcomes = []
    barrier = threading.Barrier(8)

    def submitter(index):
        barrier.wait()
        try:
            queue.submit(_job(tenant=f"t{index}"))
            outcomes.append("ok")
        except QueueFullError:
            outcomes.append("rejected")

    threads = [threading.Thread(target=submitter, args=(index,))
               for index in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert outcomes.count("ok") == 5
    assert outcomes.count("rejected") == 3
    assert queue.depth() == 5
