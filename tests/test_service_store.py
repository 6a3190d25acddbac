"""Shared result store: stats, LRU pruning, cross-process claims.

The cross-process tests are the service tentpole's concurrency
contract: two OS processes racing an engine sweep over the same
``.rpc`` key must settle it with exactly one computation -- the claim
winner runs, the loser waits on the lease and reads the winner's
stored result -- and a corrupt entry under that contention is
quarantined, never served.
"""

import multiprocessing
import os
import time

import pytest

import repro.engine.scheduler as scheduler
from repro.engine import EngineConfig, ExecutionEngine, ResultCache
from repro.engine.cache import runner_fingerprint
from repro.service import StoreManager

fork_only = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="race tests inherit the injected registry via fork")


# -- StoreManager -----------------------------------------------------


def _fill(cache, count=4, spacing_s=0.01):
    for index in range(count):
        cache.put(f"E-T{index}", "f" * 64, {"value": index})
        time.sleep(spacing_s)


def test_scan_orders_entries_least_recently_used_first(tmp_path):
    cache = ResultCache(tmp_path)
    _fill(cache, 3)
    manager = StoreManager(tmp_path)
    names = [entry.path.name for entry in manager.scan()]
    assert names[0].startswith("E-T0")
    assert names[-1].startswith("E-T2")
    # a read touches the entry, moving it to the MRU end
    cache.get("E-T0", "f" * 64)
    names = [entry.path.name for entry in manager.scan()]
    assert names[-1].startswith("E-T0")


def test_stats_counts_entries_bytes_and_journal_hits(tmp_path):
    cache = ResultCache(tmp_path)
    _fill(cache, 2, spacing_s=0.0)
    config = EngineConfig(jobs=1, executor="inline",
                          cache_dir=tmp_path)
    ExecutionEngine(config).run(["E-T1"])  # miss
    ExecutionEngine(config).run(["E-T1"])  # hit
    stats = StoreManager(tmp_path).stats()
    assert stats.entries >= 2
    assert stats.bytes > 0
    assert stats.journal_runs == 2
    assert stats.journal_hits == 1
    assert stats.hit_rate == 0.5


def test_stats_empty_store(tmp_path):
    stats = StoreManager(tmp_path / "nowhere").stats()
    assert stats.entries == 0
    assert stats.hit_rate is None


def test_prune_by_entry_count_evicts_lru_first(tmp_path):
    cache = ResultCache(tmp_path)
    _fill(cache, 4)
    report = StoreManager(tmp_path).prune(max_entries=2)
    assert report.evicted == 2
    assert report.kept == 2
    assert report.reasons == {"entries": 2}
    survivors = sorted(p.name for p
                       in (tmp_path / "objects").glob("*.rpc"))
    assert survivors[0].startswith("E-T2")
    assert survivors[1].startswith("E-T3")


def test_prune_by_bytes_and_age(tmp_path):
    cache = ResultCache(tmp_path)
    _fill(cache, 3)
    manager = StoreManager(tmp_path)
    entry_size = manager.scan()[0].size
    report = manager.prune(max_bytes=entry_size)
    assert report.kept == 1
    assert report.freed_bytes == 2 * entry_size
    report = manager.prune(max_age_s=0.0)
    assert report.kept == 0
    assert report.reasons == {"age": 1}


def test_prune_skips_entries_with_live_claims(tmp_path):
    cache = ResultCache(tmp_path)
    _fill(cache, 3)
    assert cache.claim("E-T0", "f" * 64)  # oldest entry is in-flight
    report = StoreManager(tmp_path).prune(max_entries=2)
    survivors = {p.name.split("--")[0] for p
                 in (tmp_path / "objects").glob("*.rpc")}
    # LRU would evict E-T0 first, but its live lease protects it; the
    # unclaimed middle entries go instead.
    assert survivors == {"E-T0", "E-T2"}
    assert report.kept == 2


def test_prune_without_bounds_is_a_no_op(tmp_path):
    cache = ResultCache(tmp_path)
    _fill(cache, 2, spacing_s=0.0)
    report = StoreManager(tmp_path).prune()
    assert report.evicted == 0
    assert report.kept == 2


# -- cross-process claim races ---------------------------------------

RACE_ID = "E-RACE"


def _race_runner():
    """The contended computation: logs its pid, then takes a while."""
    with open(os.environ["REPRO_TEST_RACE_LOG"], "a") as stream:
        stream.write(f"{os.getpid()}\n")
        stream.flush()
    time.sleep(0.4)
    return {"sentinel": 42}


def _race_participant(cache_dir, barrier, out_queue):
    from repro.analysis.experiments import EXPERIMENTS, Experiment
    EXPERIMENTS[RACE_ID] = Experiment(
        RACE_ID, "contended test experiment", "(test)", _race_runner)
    config = EngineConfig(jobs=1, executor="inline",
                          cache_dir=cache_dir, timeout_s=30.0)
    barrier.wait()  # line both sweeps up on the same key
    sweep = ExecutionEngine(config).run([RACE_ID])
    record = sweep.records[0]
    out_queue.put({
        "pid": os.getpid(),
        "status": record.status,
        "cache_hit": record.cache_hit,
        "shared_wait": record.phases.get("shared", 0.0),
        "result": sweep.results.get(RACE_ID),
    })


def _run_race(tmp_path, monkeypatch):
    cache_dir = tmp_path / "shared-store"
    log_path = tmp_path / "computations.log"
    log_path.touch()
    monkeypatch.setenv("REPRO_TEST_RACE_LOG", str(log_path))
    # the forked participants inherit the lowered poll interval
    monkeypatch.setattr(scheduler, "CLAIM_POLL_S", 0.02)
    context = multiprocessing.get_context("fork")
    barrier = context.Barrier(2)
    out_queue = context.Queue()
    processes = [
        context.Process(target=_race_participant,
                        args=(cache_dir, barrier, out_queue))
        for _ in range(2)]
    for process in processes:
        process.start()
    outcomes = [out_queue.get(timeout=60.0) for _ in range(2)]
    for process in processes:
        process.join(timeout=30.0)
        assert process.exitcode == 0
    return cache_dir, log_path, outcomes


@fork_only
def test_two_processes_racing_one_key_compute_it_once(
        tmp_path, monkeypatch):
    cache_dir, log_path, outcomes = _run_race(tmp_path, monkeypatch)

    # exactly one process actually ran the experiment...
    computing_pids = log_path.read_text().split()
    assert len(computing_pids) == 1
    # ...and both got the correct result.
    assert all(o["status"] == "ok" for o in outcomes)
    assert all(o["result"] == {"sentinel": 42} for o in outcomes)
    hits = sorted(o["cache_hit"] for o in outcomes)
    assert hits == [False, True]
    # the loser's record accounts the wait as the shared phase
    loser = next(o for o in outcomes if o["cache_hit"])
    if loser["pid"] != int(computing_pids[0]):
        assert loser["shared_wait"] >= 0.0
    # no leases left behind
    assert not list((cache_dir / "objects").glob("*.claim"))


@fork_only
def test_corrupt_entry_quarantined_under_contention(
        tmp_path, monkeypatch):
    """A corrupt shared entry is quarantined, recomputed once, and
    both racers still get the checksummed fresh result."""
    cache_dir = tmp_path / "shared-store"
    cache = ResultCache(cache_dir)
    fingerprint = runner_fingerprint(RACE_ID, _race_runner)
    path = cache.path_for(RACE_ID, fingerprint)
    path.parent.mkdir(parents=True)
    path.write_bytes(b"RPROC2\n" + b"\x00" * 40)  # torn garbage

    _, log_path, outcomes = _run_race(tmp_path, monkeypatch)

    assert len(log_path.read_text().split()) == 1
    assert all(o["result"] == {"sentinel": 42} for o in outcomes)
    quarantined = list((cache_dir / "quarantine").glob("*.rpc*"))
    assert len(quarantined) == 1
    # the recomputed entry replaced the corrupt one
    hit, result = ResultCache(cache_dir).get(RACE_ID, fingerprint)
    assert hit and result == {"sentinel": 42}


def test_prune_race_respects_touch_on_read(tmp_path, monkeypatch):
    """An entry that goes hot between the LRU scan and the unlink
    must survive: ``_evict`` re-stats immediately before deleting."""
    import threading

    from repro.obs import Trace, tracing

    cache = ResultCache(tmp_path)
    _fill(cache, 3)
    manager = StoreManager(tmp_path)
    victim = manager.scan()[0]  # coldest: the first eviction target

    stalled = threading.Event()
    release = threading.Event()
    original = StoreManager._evict

    def stalling_evict(self, entry, reason, report):
        # Freeze the pruner with its scan snapshot in hand, exactly
        # in the window where a racing reader can touch the victim.
        stalled.set()
        assert release.wait(timeout=30)
        return original(self, entry, reason, report)

    monkeypatch.setattr(StoreManager, "_evict", stalling_evict)

    with tracing(Trace("prune-race")) as trace:
        pruner = threading.Thread(target=manager.prune,
                                  kwargs={"max_entries": 2})
        pruner.start()
        assert stalled.wait(timeout=30)
        # The reader hits the victim: touch-on-read refreshes mtime.
        now = time.time() + 10.0
        os.utime(victim.path, (now, now))
        release.set()
        pruner.join(timeout=30)
        assert not pruner.is_alive()

    survivors = {p.name.split("--")[0]
                 for p in (tmp_path / "objects").glob("*.rpc")}
    # E-T0 went hot mid-prune and survives; the pruner falls back to
    # the next-coldest entry to satisfy the bound.
    assert victim.path.exists()
    assert survivors == {"E-T0", "E-T2"}
    assert trace.counters.get("store.evict_races") >= 1


def test_prune_race_respects_late_claim(tmp_path, monkeypatch):
    """A claim lease appearing after the scan also vetoes eviction."""
    import threading

    cache = ResultCache(tmp_path)
    _fill(cache, 3)
    manager = StoreManager(tmp_path)

    stalled = threading.Event()
    release = threading.Event()
    original = StoreManager._evict

    def stalling_evict(self, entry, reason, report):
        stalled.set()
        assert release.wait(timeout=30)
        return original(self, entry, reason, report)

    monkeypatch.setattr(StoreManager, "_evict", stalling_evict)
    pruner = threading.Thread(target=manager.prune,
                              kwargs={"max_entries": 2})
    pruner.start()
    assert stalled.wait(timeout=30)
    assert cache.claim("E-T0", "f" * 64)  # recompute begins mid-prune
    release.set()
    pruner.join(timeout=30)

    survivors = {p.name.split("--")[0]
                 for p in (tmp_path / "objects").glob("*.rpc")}
    assert survivors == {"E-T0", "E-T2"}
