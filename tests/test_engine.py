"""The execution engine: scheduler, cache, records, metrics."""

import io
import itertools
import json
import os
import threading
import time
from pathlib import Path

import pytest

from repro.analysis.experiments import EXPERIMENTS, Experiment
from repro.engine import (
    EngineConfig,
    EngineMetrics,
    ExecutionEngine,
    ResultCache,
    RunJournal,
    RunRecord,
    run_experiments,
    runner_fingerprint,
)
import repro.engine.cache as engine_cache
from repro.engine.cache import ensure_dir
from repro.engine.cpus import cap_blas_threads, openblas_pools, usable_cpus
import repro.engine.scheduler as scheduler
from repro.engine.scheduler import WAIT_PHASES
from repro.errors import ReproError
from repro.obs import (
    Trace,
    configure_logging,
    current_trace,
    reset_logging,
    tracing,
)
from repro.reliability import (
    NO_BACKOFF,
    BackoffPolicy,
    FaultPlan,
    FaultSpec,
    tear_cache_entry,
)


def _inject(monkeypatch, experiment_id, runner):
    monkeypatch.setitem(
        EXPERIMENTS, experiment_id,
        Experiment(experiment_id, "injected test experiment",
                   "(test)", runner))


def _config(tmp_path, **overrides):
    defaults = dict(jobs=2, cache_dir=tmp_path / "cache",
                    timeout_s=30.0)
    defaults.update(overrides)
    return EngineConfig(**defaults)


def _inject_noops(monkeypatch, count, prefix="E-NOOP"):
    """Register ``count`` trivial experiments; returns their ids.

    Padding a sweep's backlog is how tests reach batched dispatch: at
    ``jobs=1``, 16 pending tasks give batches of 4 and 8 give 2.
    """
    ids = [f"{prefix}{index}" for index in range(count)]
    for index, experiment_id in enumerate(ids):
        _inject(monkeypatch, experiment_id,
                lambda index=index: {"value": index})
    return ids


# -- records ----------------------------------------------------------


def test_run_record_rejects_unknown_status():
    with pytest.raises(ValueError):
        RunRecord("E-T1", "exploded", 0.1, False, 1)


def test_journal_round_trip(tmp_path):
    journal = RunJournal(tmp_path / "journal.jsonl")
    records = [
        RunRecord("E-T1", "ok", 0.25, True, 0, started_at=123.0),
        RunRecord("E-T2", "failed", 1.5, False, 2,
                  error="ValueError('boom')"),
    ]
    journal.append_many(records)
    assert RunJournal.recover(journal.path) == (records, 0)
    # every line is standalone JSON
    lines = journal.path.read_text().splitlines()
    assert all(json.loads(line)["experiment_id"] for line in lines)


def test_journal_recovery_skips_truncated_tail(tmp_path):
    """A writer that died mid-append costs one line, not the journal."""
    journal = RunJournal(tmp_path / "journal.jsonl")
    good = [RunRecord("E-T1", "ok", 0.1, False, 1),
            RunRecord("E-T2", "ok", 0.2, True, 0)]
    journal.append_many(good)
    with journal.path.open("a") as stream:
        stream.write('{"experiment_id": "E-F1", "status": "ok", "wal')
    records, skipped = RunJournal.recover(journal.path)
    assert records == good
    assert skipped == 1


def test_journal_recovery_skips_interleaved_writers(tmp_path):
    """Two writers whose bytes interleaved mangle only their own lines."""
    journal = RunJournal(tmp_path / "journal.jsonl")
    journal.append(RunRecord("E-T1", "ok", 0.1, False, 1))
    with journal.path.open("a") as stream:
        # bytes of two concurrent appends shuffled together
        stream.write('{"experiment_id": "E-T2", "st{"experiment_id":'
                     ' "E-F1", "status": "ok"}\n')
    journal.append(RunRecord("E-C1", "ok", 0.3, False, 1))
    records, skipped = RunJournal.recover(journal.path)
    assert [r.experiment_id for r in records] == ["E-T1", "E-C1"]
    assert skipped == 1


def test_journal_appends_survive_further_sweeps(tmp_path):
    """New appends after a torn line still parse (append, not rewrite)."""
    journal = RunJournal(tmp_path / "journal.jsonl")
    journal.path.parent.mkdir(parents=True, exist_ok=True)
    journal.path.write_text('not json at all\n')
    journal.append(RunRecord("E-T1", "ok", 0.1, False, 1))
    records, skipped = RunJournal.recover(journal.path)
    assert [r.experiment_id for r in records] == ["E-T1"]
    assert skipped == 1


# -- cache ------------------------------------------------------------


def test_fingerprint_distinct_per_experiment():
    fp1 = runner_fingerprint("E-T1", EXPERIMENTS["E-T1"].runner)
    fp2 = runner_fingerprint("E-T2", EXPERIMENTS["E-T2"].runner)
    assert fp1 != fp2
    assert fp1 == runner_fingerprint("E-T1", EXPERIMENTS["E-T1"].runner)


def test_fingerprint_tracks_source_changes(tmp_path):
    module_path = tmp_path / "scratch_runner_mod.py"
    module_path.write_text("def runner():\n    return 1\n")
    import importlib.util
    spec = importlib.util.spec_from_file_location(
        "scratch_runner_mod", module_path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)

    before = runner_fingerprint("E-ZZ", module.runner)
    module_path.write_text("def runner():\n    return 2  # changed\n")
    after = runner_fingerprint("E-ZZ", module.runner)
    assert before != after


def test_fingerprint_follows_edits_and_deletion_of_imported_module(
        tmp_path, monkeypatch):
    # Each file's resolved imports are cached per file version; an edit
    # to, or the deletion of, a module it imports must still change the
    # fingerprint, and a deleted target must not raise.
    import importlib.util

    import repro

    package_dir = tmp_path / "extra"
    package_dir.mkdir()
    target = package_dir / "fp_probe_target.py"
    target.write_text("VALUE = 1\n")
    monkeypatch.setattr(repro, "__path__",
                        [*repro.__path__, str(package_dir)])
    importlib.invalidate_caches()
    runner_path = tmp_path / "fp_probe_runner.py"
    runner_path.write_text(
        "def runner():\n"
        "    import repro.fp_probe_target\n"
        "    return repro.fp_probe_target.VALUE\n")
    spec = importlib.util.spec_from_file_location(
        "fp_probe_runner", runner_path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)

    first = runner_fingerprint("E-ZZ", module.runner)
    target.write_text("VALUE = 2  # edited\n")
    edited = runner_fingerprint("E-ZZ", module.runner)
    target.unlink()
    deleted = runner_fingerprint("E-ZZ", module.runner)
    assert len({first, edited, deleted}) == 3


def test_fingerprint_covers_transitive_imports():
    # reproduce_table1 lives in repro.analysis.table1, which pulls in
    # repro.devices.*; the fingerprint must not be just the one file.
    fp = runner_fingerprint("E-T1", EXPERIMENTS["E-T1"].runner)
    assert len(fp) == 64
    from repro.engine.cache import _imported_names
    import inspect
    source = inspect.getsource(
        inspect.getmodule(EXPERIMENTS["E-T1"].runner))
    assert any(name.startswith("repro.devices")
               for name in _imported_names(source, "repro.analysis"))


def test_cache_put_get_and_eviction(tmp_path):
    cache = ResultCache(tmp_path)
    assert cache.get("E-T1", "f" * 64) == (False, None)
    payload = {"summary": {"x": 1.5}, "pair": (1, 2)}
    assert cache.put("E-T1", "f" * 64, payload)
    hit, result = cache.get("E-T1", "f" * 64)
    assert hit and result == payload
    assert result["pair"] == (1, 2)  # exact round-trip, tuples intact
    assert len(cache) == 1

    # corrupt entries are evicted as misses
    cache.path_for("E-T1", "f" * 64).write_bytes(b"not a pickle")
    assert cache.get("E-T1", "f" * 64) == (False, None)
    assert len(cache) == 0


def test_cache_unpicklable_result_is_skipped(tmp_path):
    cache = ResultCache(tmp_path)
    assert not cache.put("E-T1", "a" * 64, lambda: None)
    assert len(cache) == 0


def test_cache_torn_write_is_quarantined_not_wrong(tmp_path):
    cache = ResultCache(tmp_path)
    cache.put("E-T1", "b" * 64, {"value": 1})
    path = cache.path_for("E-T1", "b" * 64)
    assert tear_cache_entry(path)  # truncate mid-payload
    assert cache.get("E-T1", "b" * 64) == (False, None)
    assert not path.exists()
    assert list(cache.quarantine_dir.iterdir())  # kept for autopsy
    assert cache.stats.quarantined == 1
    # a fresh store over the quarantined key works normally
    cache.put("E-T1", "b" * 64, {"value": 2})
    assert cache.get("E-T1", "b" * 64) == (True, {"value": 2})


def test_cache_checksum_catches_bit_rot(tmp_path):
    cache = ResultCache(tmp_path)
    cache.put("E-T1", "c" * 64, {"value": 1})
    path = cache.path_for("E-T1", "c" * 64)
    blob = bytearray(path.read_bytes())
    blob[-1] ^= 0xFF  # flip one payload bit
    path.write_bytes(bytes(blob))
    assert cache.get("E-T1", "c" * 64) == (False, None)
    assert cache.stats.quarantined == 1


def test_cache_ignores_foreign_and_unreadable_files(tmp_path):
    cache = ResultCache(tmp_path)
    cache.put("E-T1", "d" * 64, {"value": 1})
    ensure_dir(cache.objects_dir)
    (cache.objects_dir / "README.txt").write_text("not a cache entry")
    (cache.objects_dir / ".tmp-stale-123-456").write_bytes(b"abandoned")
    assert len(cache) == 1  # only .rpc entries counted
    assert cache.get("E-T1", "d" * 64) == (True, {"value": 1})


def test_ensure_dir_rejects_file_squatting_on_path(tmp_path):
    squatter = tmp_path / "cache"
    squatter.write_text("surprise, a file")
    with pytest.raises(ReproError, match="not a directory"):
        ensure_dir(squatter)
    with pytest.raises(ReproError, match="regular file"):
        ensure_dir(squatter / "objects")


# -- metrics ----------------------------------------------------------


def test_metrics_aggregation():
    records = [
        RunRecord("E-T1", "ok", 0.5, True, 0),
        RunRecord("E-T2", "ok", 1.0, False, 1),
        RunRecord("E-F1", "failed", 2.0, False, 3,
                  error="RuntimeError('x')"),
        RunRecord("E-F2", "timeout", 4.0, False, 1, error="timeout"),
    ]
    metrics = EngineMetrics.from_records(records, sweep_wall_s=3.75)
    assert (metrics.total, metrics.ok, metrics.failed,
            metrics.timed_out) == (4, 2, 1, 1)
    assert (metrics.cache_hits, metrics.cache_misses) == (1, 3)
    assert metrics.attempts == 5
    assert metrics.runner_wall_s == pytest.approx(7.5)
    assert metrics.speedup == pytest.approx(2.0)
    assert metrics.slowest_id == "E-F2"
    assert not metrics.all_ok
    text = metrics.render()
    assert "1 failed" in text and "1 hits" in text


# -- scheduler: caching -----------------------------------------------


def test_warm_sweep_hits_cache_without_rerunning(tmp_path, monkeypatch):
    """Second sweep: all cache hits, sentinel runner never re-executes."""
    sentinel = tmp_path / "executions.log"

    def counting_runner():
        with sentinel.open("a") as stream:
            stream.write("ran\n")
        return {"summary": {"value": 42.0}}

    _inject(monkeypatch, "E-SENTINEL", counting_runner)
    ids = list(EXPERIMENTS)
    config = _config(tmp_path)

    cold = run_experiments(ids, config=config)
    assert cold.metrics.ok == len(ids)
    assert cold.metrics.cache_hits == 0
    assert sentinel.read_text().count("ran") == 1

    warm = run_experiments(ids, config=config)
    assert warm.metrics.ok == len(ids)
    assert warm.metrics.cache_hits == len(ids)
    assert warm.metrics.attempts == 0
    # the sentinel runner was not executed again
    assert sentinel.read_text().count("ran") == 1
    assert warm.results["E-SENTINEL"] == {"summary": {"value": 42.0}}
    assert all(record.cache_hit for record in warm.records)


def test_no_cache_always_executes(tmp_path, monkeypatch):
    sentinel = tmp_path / "executions.log"

    def counting_runner():
        with sentinel.open("a") as stream:
            stream.write("ran\n")
        return {"value": 1}

    _inject(monkeypatch, "E-SENTINEL", counting_runner)
    config = _config(tmp_path, cache_enabled=False)
    for _ in range(2):
        sweep = run_experiments(["E-SENTINEL"], config=config)
        assert sweep.metrics.ok == 1
    assert sentinel.read_text().count("ran") == 2


# -- scheduler: failure isolation -------------------------------------


def test_failing_experiment_is_isolated(tmp_path, monkeypatch):
    def bad_runner():
        raise ValueError("deliberate failure")

    _inject(monkeypatch, "E-BAD", bad_runner)
    ids = ["E-T1", "E-BAD", "E-T2", "E-F1"]
    sweep = run_experiments(ids, config=_config(tmp_path))

    by_id = {record.experiment_id: record for record in sweep.records}
    assert by_id["E-BAD"].status == "failed"
    assert "deliberate failure" in by_id["E-BAD"].error
    assert "E-BAD" not in sweep.results
    for ok_id in ("E-T1", "E-T2", "E-F1"):
        assert by_id[ok_id].status == "ok"
        assert ok_id in sweep.results
    assert not sweep.all_ok
    assert sweep.metrics.failed == 1 and sweep.metrics.ok == 3


def test_dead_worker_is_isolated(tmp_path, monkeypatch):
    def dying_runner():
        os._exit(7)

    _inject(monkeypatch, "E-DEAD", dying_runner)
    sweep = run_experiments(["E-DEAD", "E-T1"],
                            config=_config(tmp_path))
    by_id = {record.experiment_id: record for record in sweep.records}
    assert by_id["E-DEAD"].status == "failed"
    assert "exit code" in by_id["E-DEAD"].error
    assert by_id["E-T1"].status == "ok"


def test_timeout_kills_runner(tmp_path, monkeypatch):
    def sleepy_runner():
        time.sleep(60)

    _inject(monkeypatch, "E-SLOW", sleepy_runner)
    start = time.monotonic()
    sweep = run_experiments(
        ["E-SLOW", "E-T1"],
        config=_config(tmp_path, timeout_s=0.5))
    assert time.monotonic() - start < 30
    by_id = {record.experiment_id: record for record in sweep.records}
    assert by_id["E-SLOW"].status == "timeout"
    assert "timeout" in by_id["E-SLOW"].error
    assert by_id["E-T1"].status == "ok"
    assert sweep.metrics.timed_out == 1


def test_bounded_retries_recover_flaky_runner(tmp_path, monkeypatch):
    flag = tmp_path / "attempts.log"

    def flaky_runner():
        with flag.open("a") as stream:
            stream.write("x")
        if len(flag.read_text()) < 2:
            raise RuntimeError("first attempt fails")
        return {"value": "recovered"}

    _inject(monkeypatch, "E-FLAKY", flaky_runner)
    sweep = run_experiments(["E-FLAKY"],
                            config=_config(tmp_path, retries=1))
    record = sweep.records[0]
    assert record.status == "ok"
    assert record.attempts == 2
    assert sweep.results["E-FLAKY"] == {"value": "recovered"}


# -- scheduler: worker configuration and chunking ---------------------


def test_default_jobs_honours_repro_workers(monkeypatch):
    from repro.engine import default_jobs

    monkeypatch.setenv("REPRO_WORKERS", "9")
    assert default_jobs() == 9
    monkeypatch.setenv("REPRO_WORKERS", "many")
    with pytest.raises(ReproError, match="REPRO_WORKERS"):
        default_jobs()
    monkeypatch.setenv("REPRO_WORKERS", "0")
    with pytest.raises(ReproError, match=">= 1"):
        default_jobs()
    monkeypatch.delenv("REPRO_WORKERS")
    assert 1 <= default_jobs() <= 4  # capped default for CI machines
    # Only the CPUs in the affinity mask count (``taskset -c 0``).
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                        raising=False)
    assert usable_cpus() == 1
    assert default_jobs() == 1


def _blas_pools():
    """Thread count of each OpenBLAS build mapped into this process."""
    return {name: size.value for name, size in openblas_pools()}


needs_openblas = pytest.mark.skipif(
    not openblas_pools(),
    reason="no OpenBLAS build is mapped into this process")


def _blas_probe():
    """Runner: one long dot product, then the worker's BLAS state."""
    import numpy as np

    vector = np.ones(10 ** 6)
    float(np.dot(vector, vector))
    return {"pools": _blas_pools(),
            "threads": len(os.listdir("/proc/self/task"))}


@needs_openblas
def test_forked_worker_blas_pools_capped_at_cpu_share(tmp_path,
                                                      monkeypatch):
    """At ``jobs = usable CPUs`` each worker's share is one thread: its
    pools read 1 and the dot product starts no BLAS thread."""
    _inject(monkeypatch, "E-BLAS", _blas_probe)
    sweep = run_experiments(["E-BLAS"], config=_config(
        tmp_path, jobs=usable_cpus(), cache_enabled=False))
    assert sweep.all_ok
    probe = sweep.results["E-BLAS"]
    assert probe["pools"] == {name: 1 for name in _blas_pools()}
    assert probe["threads"] == 1


def test_concurrent_forked_sweeps_split_the_blas_budget(tmp_path,
                                                        monkeypatch):
    """Sweeps running at once share the CPUs: a worker launched while
    another process-executor sweep runs gets usable // (jobs x 2)
    threads, and a lone sweep keeps usable // jobs."""
    budgets = []  # in each worker: the budget its pools were capped at
    monkeypatch.setattr(scheduler, "usable_cpus", lambda: 8)
    monkeypatch.setattr(scheduler, "cap_blas_threads",
                        lambda pools, threads: budgets.append(threads)
                        or {})
    started, release = tmp_path / "started", tmp_path / "release"

    def held():
        started.touch()
        deadline = time.monotonic() + 30.0
        while not release.exists() and time.monotonic() < deadline:
            time.sleep(0.01)
        return {"budget": budgets[-1]}

    _inject(monkeypatch, "E-HELD", held)
    _inject(monkeypatch, "E-PROBE", lambda: {"budget": budgets[-1]})

    def budget_of(experiment_id, where):
        sweep = run_experiments([experiment_id], config=_config(
            tmp_path / where, jobs=2, cache_enabled=False))
        return sweep.results[experiment_id]["budget"]

    assert budget_of("E-PROBE", "alone") == 4
    held_budget = []
    holder = threading.Thread(
        target=lambda: held_budget.append(budget_of("E-HELD", "held")))
    holder.start()
    try:
        deadline = time.monotonic() + 30.0
        while not started.exists() and time.monotonic() < deadline:
            time.sleep(0.01)
        assert started.exists()
        assert budget_of("E-PROBE", "beside") == 2
    finally:
        release.touch()
        holder.join(timeout=60.0)
    assert not holder.is_alive()
    assert held_budget == [4]  # launched while it ran alone
    assert budget_of("E-PROBE", "after") == 4


def test_a_sweep_served_from_the_cache_leaves_the_budget_alone(
        tmp_path, monkeypatch):
    """Only a sweep with tasks to launch counts against the others'
    BLAS budgets: a warm sweep forks nothing."""
    launching = []  # (tasks to launch, sweeps counted) per dispatch
    dispatch = ExecutionEngine._dispatch

    def spy(self, pending, records, results):
        launching.append((len(pending), scheduler._launching_sweeps))
        return dispatch(self, pending, records, results)

    monkeypatch.setattr(ExecutionEngine, "_dispatch", spy)
    config = _config(tmp_path)
    assert run_experiments(["E-T1"], config=config).all_ok  # cold
    assert run_experiments(["E-T1"], config=config).all_ok  # warm
    assert launching == [(1, 1), (0, 0)]
    assert scheduler._launching_sweeps == 0


@needs_openblas
def test_blas_pools_untouched_without_a_cpu_share_to_give(tmp_path,
                                                          monkeypatch):
    """One worker keeps the parent's pools; the inline executor never
    touches this process's pools; a cap above a pool is a no-op."""
    _inject(monkeypatch, "E-BLAS", _blas_probe)
    parent = _blas_pools()
    single = run_experiments(["E-BLAS"], config=_config(
        tmp_path, jobs=1, cache_enabled=False))
    assert single.results["E-BLAS"]["pools"] == parent
    inline = run_experiments(["E-BLAS"], config=_config(
        tmp_path, jobs=usable_cpus(), cache_enabled=False,
        executor="inline"))
    assert inline.results["E-BLAS"]["pools"] == parent
    assert cap_blas_threads(openblas_pools(),
                            max(parent.values()) + 1) == parent
    assert _blas_pools() == parent


def test_chunk_target_policy(tmp_path):
    engine = ExecutionEngine(_config(tmp_path, jobs=2))
    # Small sweeps never chunk: each worker would get <= 4 tasks.
    assert engine._chunk_target(8) == 1
    # Large backlogs amortise process start-up, capped at 8.
    assert engine._chunk_target(40) == 5
    assert engine._chunk_target(1000) == 8
    # Fault plans need per-task process isolation.
    plan = FaultPlan("t", (FaultSpec("transient", "E-T1"),))
    faulty = ExecutionEngine(_config(tmp_path, jobs=2, fault_plan=plan))
    assert faulty._chunk_target(1000) == 1


def test_chunked_sweep_returns_every_result(tmp_path, monkeypatch):
    ids = _inject_noops(monkeypatch, 16, prefix="E-CHUNK")
    with tracing(Trace("chunked")) as trace:
        sweep = run_experiments(ids, config=_config(tmp_path, jobs=1))
    assert trace.counters.get("engine.chunks") > 0
    assert sweep.all_ok
    assert sweep.results == {f"E-CHUNK{i}": {"value": i}
                             for i in range(16)}
    assert all(record.attempts == 1 for record in sweep.records)


def test_chunk_isolates_failing_member(tmp_path, monkeypatch):
    def bad_runner():
        raise ValueError("chunk member fails")

    _inject(monkeypatch, "E-BAD", bad_runner)
    # 16 pending at jobs=1: the first batch is exactly these four
    ids = ["E-T1", "E-BAD", "E-T2", "E-F1"] + _inject_noops(monkeypatch,
                                                            12)
    with tracing(Trace("chunked")) as trace:
        sweep = run_experiments(ids, config=_config(tmp_path, jobs=1))
    assert trace.counters.get("engine.chunks") > 0
    by_id = {record.experiment_id: record for record in sweep.records}
    assert by_id["E-BAD"].status == "failed"
    assert "chunk member fails" in by_id["E-BAD"].error
    for ok_id in ("E-T1", "E-T2", "E-F1"):
        assert by_id[ok_id].status == "ok"
        assert ok_id in sweep.results


def test_chunk_crash_retries_unfinished_singly(tmp_path, monkeypatch):
    # A worker dying mid-chunk must not lose its chunk-mates: every
    # unreported task is retried individually (attempts > 0 tasks are
    # never re-chunked).
    marker = tmp_path / "died.log"

    def dying_once_runner():
        if not marker.exists():
            marker.write_text("x")
            os._exit(9)
        return {"value": "recovered"}

    def ok_runner():
        return {"value": "fine"}

    _inject(monkeypatch, "E-DIE", dying_once_runner)
    _inject(monkeypatch, "E-AFTER", ok_runner)
    # 8 pending at jobs=1: the first batch is E-DIE and E-AFTER
    ids = ["E-DIE", "E-AFTER"] + _inject_noops(monkeypatch, 6)
    with tracing(Trace("chunked")) as trace:
        sweep = run_experiments(
            ids, config=_config(tmp_path, jobs=1, retries=1))
    assert trace.counters.get("engine.chunks") > 0
    by_id = {record.experiment_id: record for record in sweep.records}
    assert by_id["E-DIE"].status == "ok"
    assert by_id["E-DIE"].attempts == 2
    assert by_id["E-AFTER"].status == "ok"
    assert by_id["E-AFTER"].attempts == 2  # its chunk-mate's crash
    assert sweep.results["E-DIE"] == {"value": "recovered"}


@pytest.mark.parametrize("padding", [0, 15], ids=["single", "chunked"])
def test_large_result_drains_through_the_pipe(tmp_path, monkeypatch,
                                              padding):
    """An outcome beyond the OS pipe buffer must not block the worker
    in send until its deadline: the parent reads while it runs."""
    big = "x" * (1 << 20)
    _inject(monkeypatch, "E-BIG", lambda: big)
    ids = ["E-BIG"] + _inject_noops(monkeypatch, padding)
    with tracing(Trace("big")) as trace:
        sweep = run_experiments(
            ids, config=_config(tmp_path, jobs=1, timeout_s=3.0))
    assert bool(trace.counters.get("engine.chunks")) == (padding > 0)
    assert sweep.records[0].status == "ok"
    assert sweep.results["E-BIG"] == big
    assert sweep.all_ok


def test_timeout_kills_worker_despite_parent_signal_state(
        tmp_path, monkeypatch):
    """A forked worker must drop the SIGTERM handler and wakeup fd it
    inherits (armed here the way ``loop.add_signal_handler`` arms them
    under ``repro serve``): otherwise ``terminate()`` is swallowed until
    the SIGKILL fallback, and the signal reaches the parent's loop."""
    import signal
    import socket
    import threading

    def hanging_runner():
        time.sleep(60)

    _inject(monkeypatch, "E-HANG", hanging_runner)
    reader, writer = socket.socketpair()
    reader.setblocking(False)
    writer.setblocking(False)
    previous_fd = signal.set_wakeup_fd(writer.fileno())
    previous_handler = signal.signal(signal.SIGTERM,
                                     lambda signum, frame: None)
    swept = []
    try:
        # Off the main thread, as ``repro serve`` runs sweeps: the
        # engine leaves the parent's signal state alone there.
        sweeper = threading.Thread(target=lambda: swept.append(
            run_experiments(["E-HANG"],
                            config=_config(tmp_path, timeout_s=0.5))))
        start = time.monotonic()
        sweeper.start()
        sweeper.join(timeout=30.0)
        elapsed = time.monotonic() - start
        assert not sweeper.is_alive()
        sweep = swept[0]
        with pytest.raises(BlockingIOError):
            reader.recv(1)  # no signal byte reached the socket
    finally:
        signal.set_wakeup_fd(previous_fd)
        signal.signal(signal.SIGTERM, previous_handler)
        reader.close()
        writer.close()
    assert sweep.records[0].status == "timeout"
    assert elapsed < 3.0


# -- scheduler: API surface -------------------------------------------


def test_unknown_ids_rejected(tmp_path):
    with pytest.raises(ReproError, match="E-NOPE"):
        run_experiments(["E-T1", "E-NOPE"], config=_config(tmp_path))


def test_duplicate_ids_deduplicated(tmp_path):
    sweep = run_experiments(["E-T1", "E-T1"], config=_config(tmp_path))
    assert [record.experiment_id for record in sweep.records] == ["E-T1"]


@pytest.mark.parametrize("executor, jobs, chunked", [
    ("inline", 1, False),
    ("process", 4, False),  # 15 pending // (4 * 4) -> single tasks
    ("process", 1, True),   # 15 pending // 4 -> batches of 3
], ids=["inline", "process", "process-chunked"])
def test_inline_executor_matches_process_results(tmp_path, monkeypatch,
                                                 executor, jobs, chunked):
    """Every executor settles the same cases identically: a raising
    member, one that fails once under ``retries=1``, a pre-stored cache
    hit, and plain successes."""
    marker = tmp_path / "flaky.log"

    def raising_runner():
        raise ValueError("always fails")

    def flaky_runner():
        if not marker.exists():
            marker.write_text("x")
            raise RuntimeError("first attempt fails")
        return {"value": "recovered"}

    def stored_runner():  # pragma: no cover - served from the cache
        raise AssertionError("cache hit recomputed")

    _inject(monkeypatch, "E-EQ-RAISE", raising_runner)
    _inject(monkeypatch, "E-EQ-FLAKY", flaky_runner)
    _inject(monkeypatch, "E-EQ-STORED", stored_runner)
    noops = _inject_noops(monkeypatch, 13)
    monkeypatch.setattr(scheduler, "RETRY_BACKOFF", NO_BACKOFF)
    config = _config(tmp_path, executor=executor, jobs=jobs, retries=1)
    ResultCache(config.cache_dir).put(
        "E-EQ-STORED", runner_fingerprint("E-EQ-STORED", stored_runner),
        {"value": "stored"})
    with tracing(Trace("equivalence")) as trace:
        sweep = run_experiments(
            ["E-EQ-RAISE", "E-EQ-FLAKY", "E-EQ-STORED", *noops],
            config=config)
    assert bool(trace.counters.get("engine.chunks")) is chunked
    outcomes = {record.experiment_id: (record.status, record.attempts,
                                       record.error, record.cache_hit)
                for record in sweep.records}
    assert outcomes == {
        "E-EQ-RAISE": ("failed", 2, "ValueError('always fails')", False),
        "E-EQ-FLAKY": ("ok", 2, None, False),
        "E-EQ-STORED": ("ok", 0, None, True),
        **{noop: ("ok", 1, None, False) for noop in noops},
    }
    assert sweep.results == {
        "E-EQ-FLAKY": {"value": "recovered"},
        "E-EQ-STORED": {"value": "stored"},
        **{noop: {"value": index} for index, noop in enumerate(noops)},
    }


def test_engine_writes_journal(tmp_path, monkeypatch):
    def bad_runner():
        raise RuntimeError("journalled failure")

    _inject(monkeypatch, "E-BAD", bad_runner)
    config = _config(tmp_path)
    run_experiments(["E-T1", "E-BAD"], config=config)
    records, _ = RunJournal.recover(config.effective_journal_path)
    by_id = {record.experiment_id: record for record in records}
    assert by_id["E-T1"].status == "ok"
    assert "journalled failure" in by_id["E-BAD"].error


def test_run_experiments_kwarg_overrides(tmp_path):
    sweep = run_experiments(["E-T1"], cache_enabled=False,
                            executor="inline")
    assert sweep.metrics.cache_misses == 1
    assert (tmp_path / "cache").exists() is False


def test_config_validation():
    with pytest.raises(ValueError):
        EngineConfig(jobs=0)
    with pytest.raises(ValueError):
        EngineConfig(retries=-1)
    with pytest.raises(ValueError):
        EngineConfig(executor="threads")


def test_engine_full_registry_inline(tmp_path):
    engine = ExecutionEngine(_config(tmp_path, executor="inline"))
    sweep = engine.run()
    assert sweep.metrics.total == len(EXPERIMENTS)
    assert sweep.all_ok
    assert set(sweep.results) == set(EXPERIMENTS)


# -- scheduler: fault injection and backoff ---------------------------


def test_injected_transient_fault_absorbed_by_retry(tmp_path):
    plan = FaultPlan("t", (FaultSpec("transient", "E-T1"),))
    sweep = run_experiments(
        ["E-T1", "E-T2"],
        config=_config(tmp_path, retries=1, fault_plan=plan,
                       executor="inline"))
    by_id = {record.experiment_id: record for record in sweep.records}
    assert by_id["E-T1"].status == "ok"
    assert by_id["E-T1"].attempts == 2
    assert by_id["E-T2"].attempts == 1
    assert [(f.experiment_id, f.kind) for f in sweep.fired_faults] \
        == [("E-T1", "transient")]


def test_injected_crash_fault_absorbed_in_process_pool(tmp_path):
    plan = FaultPlan("c", (FaultSpec("crash", "E-T2"),))
    sweep = run_experiments(
        ["E-T2"], config=_config(tmp_path, retries=1, fault_plan=plan))
    record = sweep.records[0]
    assert record.status == "ok" and record.attempts == 2
    assert sweep.fired_faults[0].kind == "crash"


def test_torn_cache_entry_recomputed_on_warm_sweep(tmp_path):
    """corrupt-cache fault: the warm sweep must recompute, never trust
    (or crash on) the torn entry."""
    plan = FaultPlan("cc", (FaultSpec("corrupt-cache", "E-T2"),))
    config = _config(tmp_path, executor="inline")
    cold = run_experiments(
        ["E-T2"], config=_config(tmp_path, executor="inline",
                                 fault_plan=plan))
    assert cold.all_ok
    assert cold.fired_faults[0].kind == "corrupt-cache"
    warm = run_experiments(["E-T2"], config=config)
    assert warm.all_ok
    assert not warm.records[0].cache_hit  # quarantined -> recomputed
    again = run_experiments(["E-T2"], config=config)
    assert again.records[0].cache_hit  # repaired entry now reused
    assert warm.results["E-T2"]["summary"] \
        == again.results["E-T2"]["summary"]


def test_retry_backoff_spaces_attempts(tmp_path, monkeypatch):
    plan = FaultPlan("t", (FaultSpec("transient", "E-T2"),))
    monkeypatch.setattr(scheduler, "RETRY_BACKOFF", BackoffPolicy(
        base_s=0.2, factor=1.0, max_s=0.2, jitter=0.0))
    start = time.monotonic()
    sweep = run_experiments(
        ["E-T2"],
        config=_config(tmp_path, retries=1, fault_plan=plan,
                       executor="inline", cache_enabled=False))
    elapsed = time.monotonic() - start
    assert sweep.records[0].attempts == 2
    assert elapsed >= 0.2  # the retry waited out the backoff delay


# -- monotonic timing discipline --------------------------------------


def test_wall_time_immune_to_backwards_clock(tmp_path, monkeypatch):
    """An NTP step (time.time() jumping backwards mid-run) must not
    produce negative durations: every measured interval is a
    difference of monotonic readings."""
    steps = itertools.count()

    def backwards_clock():
        return 1.0e9 - 60.0 * next(steps)  # a minute back per reading

    monkeypatch.setattr(time, "time", backwards_clock)
    sweep = run_experiments(
        ["E-T1"], config=_config(tmp_path, executor="inline"))
    record = sweep.records[0]
    assert record.status == "ok"
    assert record.wall_time_s >= 0.0
    assert all(value >= 0.0 for value in record.phases.values())
    assert sweep.metrics.sweep_wall_s >= 0.0


def test_no_wall_clock_deltas_in_repro_sources():
    """time.time() may appear only at the obs clock anchor; every other
    unix-scale stamp (including the cache's created_at) must come from
    wall_now(), which is monotonic-derived and NTP-step-safe."""
    src = Path(__file__).resolve().parent.parent / "src" / "repro"
    allowed = {src / "obs" / "clock.py"}
    offenders = sorted(
        str(path.relative_to(src)) for path in src.rglob("*.py")
        if path not in allowed
        and "time.time()" in path.read_text(encoding="utf-8"))
    assert offenders == []


# -- metrics: speedup n/a and retry derivation ------------------------


def test_speedup_na_when_runner_time_unmeasurable():
    records = [RunRecord("E-T1", "ok", 0.0, False, 1)]
    metrics = EngineMetrics.from_records(records, sweep_wall_s=0.5)
    assert metrics.speedup is None
    assert "n/a parallel speedup" in metrics.render()


def test_speedup_na_when_sweep_fully_cached():
    records = [RunRecord("E-T1", "ok", 0.2, True, 0),
               RunRecord("E-T2", "ok", 0.3, True, 0)]
    metrics = EngineMetrics.from_records(records, sweep_wall_s=0.4)
    assert metrics.fully_cached
    assert metrics.speedup is None
    assert "n/a parallel speedup" in metrics.render()
    # a mixed sweep with real runner time still reports the ratio
    mixed = records + [RunRecord("E-T3", "ok", 0.8, False, 1)]
    assert EngineMetrics.from_records(mixed, 0.65).speedup is not None


def test_retries_derived_from_per_record_attempts():
    records = [
        RunRecord("E-T1", "ok", 0.1, True, 0),   # plain cache hit
        RunRecord("E-T2", "ok", 0.2, False, 3),  # two retries
        RunRecord("E-T3", "ok", 0.1, True, 2),   # retried, then served
    ]                                            # by the retry recheck
    metrics = EngineMetrics.from_records(records, 1.0)
    assert metrics.retries == 3
    # the superseded attempts-minus-misses arithmetic miscounts here
    assert max(0, metrics.attempts - metrics.cache_misses) \
        != metrics.retries
    assert f"({metrics.retries} retries)" in metrics.render()


def test_retry_recheck_serves_entry_stored_by_concurrent_sweep(
        tmp_path, monkeypatch):
    """Between a failed attempt and its retry another sweep may have
    cached the result; the engine must serve it instead of relaunching,
    yielding the cache_hit-with-attempts record the retry arithmetic
    has to survive."""
    def always_failing():
        raise RuntimeError("flaky dependency")

    _inject(monkeypatch, "E-RACE", always_failing)
    monkeypatch.setattr(scheduler, "RETRY_BACKOFF", BackoffPolicy(
        base_s=0.01, factor=1.0, max_s=0.01, jitter=0.0))
    engine = ExecutionEngine(_config(
        tmp_path, executor="inline", retries=1))
    calls = {"n": 0}

    def racing_get(experiment_id, fingerprint):
        calls["n"] += 1
        if calls["n"] == 1:
            return False, None  # cold at first lookup
        return True, {"value": "from-other-sweep"}

    monkeypatch.setattr(engine.cache, "get", racing_get)
    sweep = engine.run(["E-RACE"])
    record = sweep.records[0]
    assert record.status == "ok"
    assert record.cache_hit and record.attempts == 1
    assert sweep.results["E-RACE"] == {"value": "from-other-sweep"}
    assert sweep.metrics.retries == 0
    assert sweep.metrics.cache_hits == 1


# -- phases -----------------------------------------------------------


def test_record_phases_round_trip_through_journal(tmp_path):
    journal = RunJournal(tmp_path / "journal.jsonl")
    records = [
        RunRecord("E-T1", "ok", 0.012, False, 1, started_at=123.0,
                  phases={"lookup": 0.002, "run": 0.009,
                          "store": 0.001, "queue": 0.5}),
        RunRecord("E-T2", "ok", 0.001, True, 0,
                  phases={"lookup": 0.001}),
    ]
    journal.append_many(records)
    assert RunJournal.recover(journal.path) == (records, 0)


def test_process_sweep_phases_sum_to_wall_time(tmp_path):
    sweep = run_experiments(
        ["E-T1", "E-T2"],
        config=_config(tmp_path, cache_enabled=False))
    assert sweep.all_ok
    for record in sweep.records:
        assert "run" in record.phases
        active = sum(value for name, value in record.phases.items()
                     if name not in WAIT_PHASES)
        assert active == pytest.approx(record.wall_time_s, rel=0.05)
    for name in sweep.metrics.phase_totals:
        assert sweep.metrics.phase_totals[name] >= 0.0


def test_cache_hit_record_carries_lookup_phase(tmp_path):
    config = _config(tmp_path, executor="inline")
    run_experiments(["E-T1"], config=config)
    warm = run_experiments(["E-T1"], config=config)
    record = warm.records[0]
    assert record.cache_hit
    assert set(record.phases) == {"lookup"}
    assert record.phases["lookup"] == pytest.approx(record.wall_time_s)


# -- tracing integration ----------------------------------------------


def test_traced_sweep_records_engine_spans_and_counters(tmp_path):
    with tracing(Trace("test-sweep")) as trace:
        sweep = run_experiments(
            ["E-T1"], config=_config(tmp_path, executor="inline"))
    assert sweep.all_ok
    names = {record.name for record in trace.spans}
    assert {"engine.sweep", "engine.run", "engine.lookup",
            "engine.store"} <= names
    assert trace.counters.get("cache.misses") == 1
    assert trace.counters.get("cache.stores") == 1
    # The inline executor has no worker BLAS budget to report.
    by_name = {record.name: record for record in trace.spans}
    assert "blas_threads" not in by_name["engine.sweep"].attributes
    assert "blas_pools" not in by_name["worker.run"].attributes


def test_traced_process_sweep_collects_worker_spans(tmp_path):
    log = io.StringIO()
    configure_logging(stream=log)
    try:
        with tracing(Trace("test-sweep")) as trace:
            sweep = run_experiments(
                ["E-T2"], config=_config(tmp_path, cache_enabled=False))
    finally:
        reset_logging()
    assert sweep.all_ok
    names = {record.name for record in trace.spans}
    assert "worker.run" in names  # shipped back from the child
    worker = next(record for record in trace.spans
                  if record.name == "worker.run")
    assert worker.pid != os.getpid()
    assert worker.attributes["experiment"] == "E-T2"
    # The sweep names each worker's BLAS budget, and each worker the
    # pool sizes it ran with.
    budget = max(1, usable_cpus() // 2)
    sweep_span = next(record for record in trace.spans
                      if record.name == "engine.sweep")
    assert sweep_span.attributes["blas_threads"] == budget
    records = [json.loads(line) for line in log.getvalue().splitlines()]
    start = next(record for record in records
                 if record["event"] == "sweep.start")
    assert start["blas_threads"] == budget
    assert worker.attributes["blas_pools"] == {
        name: min(size, budget) for name, size in _blas_pools().items()}


def test_untraced_sweep_leaves_no_trace_state(tmp_path):
    sweep = run_experiments(
        ["E-T1"], config=_config(tmp_path, executor="inline"))
    assert sweep.all_ok
    assert current_trace() is None


# -- claims (cross-process in-flight leases) --------------------------


def _claims_cache(tmp_path):
    from repro.engine import ResultCache
    return ResultCache(tmp_path / "cache")


def test_claim_is_exclusive_until_released(tmp_path):
    cache = _claims_cache(tmp_path)
    assert cache.claim("E-T1", "f" * 64) is True
    assert cache.claim("E-T1", "f" * 64) is False
    cache.release_claim("E-T1", "f" * 64)
    assert cache.claim("E-T1", "f" * 64) is True
    assert cache.claim_count() == 1
    assert cache.stats.claims == 2


def test_claim_holder_identifies_this_process(tmp_path):
    import socket

    from repro.engine import ResultCache
    cache = _claims_cache(tmp_path)
    assert cache.claim_holder("E-T1", "f" * 64) is None
    cache.claim("E-T1", "f" * 64)
    holder = cache.claim_holder("E-T1", "f" * 64)
    assert holder.pid == os.getpid()
    assert holder.host == socket.gethostname()
    assert holder.holder_alive() is True
    assert not ResultCache.claim_is_stale(holder)


def test_dead_holder_claim_is_stale_and_breakable(tmp_path):
    import multiprocessing
    import socket

    from repro.engine import ClaimInfo, ResultCache
    from repro.obs import wall_now

    probe = multiprocessing.get_context().Process(target=lambda: None)
    probe.start()
    probe.join()
    dead = ClaimInfo(pid=probe.pid, host=socket.gethostname(),
                     created_at=wall_now())
    assert dead.holder_alive() is False
    assert ResultCache.claim_is_stale(dead)

    cache = _claims_cache(tmp_path)
    path = cache.claim_path("E-T1", "f" * 64)
    path.parent.mkdir(parents=True)
    path.write_text(json.dumps({"pid": probe.pid,
                                "host": socket.gethostname(),
                                "created_at": wall_now()}))
    cache.break_claim("E-T1", "f" * 64)
    assert not path.exists()
    assert cache.stats.claims_broken == 1


def test_corrupt_claim_file_reads_as_stale(tmp_path):
    from repro.engine import ResultCache
    cache = _claims_cache(tmp_path)
    path = cache.claim_path("E-T1", "f" * 64)
    path.parent.mkdir(parents=True)
    path.write_text("not json at all")
    holder = cache.claim_holder("E-T1", "f" * 64)
    assert holder is not None
    assert ResultCache.claim_is_stale(holder)


def test_a_claim_appears_with_its_body(tmp_path, monkeypatch):
    """A claimant stalled before its body is on disk is invisible to
    waiters: they see no claim or the claimant's own, never the
    zero-stamp holder that a staleness check would break."""
    cache = _claims_cache(tmp_path)
    writing = threading.Event()
    release = threading.Event()
    real_write = os.write

    def stalled_write(fd, data):
        if threading.current_thread().name == "claimant":
            writing.set()
            release.wait(timeout=10.0)
        return real_write(fd, data)

    monkeypatch.setattr(os, "write", stalled_write)
    won = []
    claimant = threading.Thread(
        target=lambda: won.append(cache.claim("E-T1", "f" * 64)),
        name="claimant")
    claimant.start()
    try:
        assert writing.wait(timeout=10.0)
        holder = cache.claim_holder("E-T1", "f" * 64)
    finally:
        release.set()
        claimant.join(timeout=10.0)
    assert holder is None or holder.pid == os.getpid()
    assert won == [True]
    assert cache.claim_holder("E-T1", "f" * 64).pid == os.getpid()
    assert [path.name for path in cache.objects_dir.iterdir()] \
        == [cache.claim_path("E-T1", "f" * 64).name]  # no temp left


def test_sweep_waits_on_foreign_claim_then_reads_stored_result(
        tmp_path, monkeypatch):
    """The claim loser never recomputes: it polls the lease and is
    served the winner's stored result as a shared-store hit."""
    import threading

    from repro.engine import ResultCache, runner_fingerprint

    def runner():  # pragma: no cover - must never execute
        raise AssertionError("claim waiter recomputed the key")

    _inject(monkeypatch, "E-T1", runner)
    fingerprint = runner_fingerprint("E-T1", runner)
    cache = ResultCache(tmp_path / "cache")
    assert cache.claim("E-T1", fingerprint)  # "foreign" live claim

    monkeypatch.setattr(scheduler, "CLAIM_POLL_S", 0.01)
    config = _config(tmp_path, jobs=1, executor="inline")
    done = {}

    def sweep():
        done["sweep"] = ExecutionEngine(config).run(["E-T1"])

    waiter = threading.Thread(target=sweep)
    waiter.start()
    time.sleep(0.15)  # the waiter is now polling the claim
    cache.put("E-T1", fingerprint, {"from": "winner"})
    cache.release_claim("E-T1", fingerprint)
    waiter.join(timeout=30.0)

    record = done["sweep"].records[0]
    assert record.status == "ok"
    assert record.cache_hit is True
    assert done["sweep"].results["E-T1"] == {"from": "winner"}
    assert record.phases.get("shared", 0.0) > 0.0


def test_expired_claim_ttl_lets_the_waiter_take_over(
        tmp_path, monkeypatch):
    from repro.engine import ResultCache, runner_fingerprint

    calls = []

    def runner():
        calls.append(1)
        return {"value": 9}

    _inject(monkeypatch, "E-T1", runner)
    fingerprint = runner_fingerprint("E-T1", runner)
    cache = ResultCache(tmp_path / "cache")
    assert cache.claim("E-T1", fingerprint)  # held by us, never freed

    monkeypatch.setattr(engine_cache, "CLAIM_TTL_S", 0.1)
    monkeypatch.setattr(scheduler, "CLAIM_POLL_S", 0.01)
    config = _config(tmp_path, jobs=1, executor="inline")
    sweep = ExecutionEngine(config).run(["E-T1"])
    assert sweep.records[0].status == "ok"
    assert calls == [1]  # the stale lease was broken, the task ran
    assert not cache.claim_path("E-T1", fingerprint).exists()


# -- graceful shutdown ------------------------------------------------


def test_drain_signal_cancels_pending_tasks(tmp_path, monkeypatch):
    """SIGINT mid-sweep: the in-flight task finishes and is stored;
    tasks not yet launched settle as ``cancelled``; the journal holds
    every record and the result carries ``interrupted``."""
    import signal

    def first():
        os.kill(os.getpid(), signal.SIGINT)
        return "finished anyway"

    def second():  # pragma: no cover - must never execute
        raise AssertionError("cancelled task was launched")

    _inject(monkeypatch, "E-T1", first)
    _inject(monkeypatch, "E-T2", second)
    config = _config(tmp_path, jobs=1, executor="inline")
    sweep = ExecutionEngine(config).run(["E-T1", "E-T2"])

    assert sweep.interrupted is True
    by_id = {record.experiment_id: record for record in sweep.records}
    assert by_id["E-T1"].status == "ok"
    assert by_id["E-T2"].status == "cancelled"
    assert "interrupted" in by_id["E-T2"].error
    assert sweep.metrics.cancelled == 1
    assert not sweep.metrics.all_ok
    # the journal flushed both records
    journal, _ = RunJournal.recover(config.effective_journal_path)
    assert {record.status for record in journal} == {"ok", "cancelled"}


def test_drain_signal_process_pool(tmp_path, monkeypatch):
    import signal

    def first():
        os.kill(os.getppid(), signal.SIGTERM)
        time.sleep(0.3)  # give the parent time to take the signal
        return 1

    def second():  # pragma: no cover
        raise AssertionError("cancelled task was launched")

    _inject(monkeypatch, "E-T1", first)
    _inject(monkeypatch, "E-T2", second)
    config = _config(tmp_path, jobs=1)
    sweep = ExecutionEngine(config).run(["E-T1", "E-T2"])
    assert sweep.interrupted is True
    by_id = {record.experiment_id: record for record in sweep.records}
    assert by_id["E-T1"].status == "ok"  # in-flight work completed
    assert by_id["E-T2"].status == "cancelled"


def test_handlers_restored_after_sweep(tmp_path):
    import signal

    before = (signal.getsignal(signal.SIGINT),
              signal.getsignal(signal.SIGTERM))
    run_experiments(["E-T1"],
                    config=_config(tmp_path, executor="inline"))
    after = (signal.getsignal(signal.SIGINT),
             signal.getsignal(signal.SIGTERM))
    assert before == after


def test_metrics_count_cancelled_records():
    records = [RunRecord("E-T1", "ok", 0.1, False, 1),
               RunRecord("E-T2", "cancelled", 0.0, False, 0,
                         error="interrupted")]
    metrics = EngineMetrics.from_records(records, 0.1)
    assert metrics.cancelled == 1
    assert not metrics.all_ok
    assert "1 cancelled" in metrics.render()
