"""The shared JSONL journal primitive: crash consistency and formats.

Every journal in the repository -- run journal, job WAL, per-job event
logs, structured log -- appends, replays and compacts through
:mod:`repro.journal`, so its crash-consistency properties are held
here, once.  The golden-bytes tests pin each writer's on-disk format.
"""

import multiprocessing
import os
import tempfile
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import journal
from repro.engine.records import RunJournal, RunRecord
from repro.obs import configure_logging, get_logger, reset_logging
from repro.obs.log import LOG_LEVEL_ENV, LOG_PATH_ENV
from repro.service.jobs import JobEventLog, JobSpec
from repro.service.wal import JobWAL

#: Any text that UTF-8 can encode, non-ASCII included.
_TEXT = st.text(alphabet=st.characters(blacklist_categories=("Cs",)),
                max_size=12)
_RECORD = st.fixed_dictionaries({"n": st.integers(), "text": _TEXT})
#: A line no journal can parse: not blank, not JSON, no newline.
_GARBAGE = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",),
                           blacklist_characters="\n"),
    max_size=12).map(lambda text: "#" + text)


def _append(path, record):
    journal.append(path, [journal.encode(record)], durable=False)


# -- crash consistency ------------------------------------------------


@given(records=st.lists(_RECORD, min_size=1, max_size=6), data=st.data())
def test_truncation_at_any_offset_costs_at_most_the_torn_line(
        records, data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "journal.jsonl"
        for record in records:
            _append(path, record)
        blob = path.read_bytes()
        cut = data.draw(st.integers(0, len(blob)), label="cut")
        os.truncate(path, cut)

        # a record survives iff its JSON text (not its newline) was kept
        kept, end = [], 0
        for record in records:
            end += len(journal.encode(record).encode("utf-8"))
            if end - 1 <= cut:
                kept.append(record)
        items, skipped = journal.replay(path, dict)
        assert items == kept
        assert skipped <= 1

        later = {"n": -1, "text": "après"}
        _append(path, later)
        items, _ = journal.replay(path, dict)
        assert items == kept + [later]


@given(st.lists(st.tuples(_RECORD, st.lists(_GARBAGE, max_size=3),
                          st.booleans()), max_size=6))
def test_garbage_between_appends_costs_exactly_those_lines(steps):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "journal.jsonl"
        for record, garbage, terminated in steps:
            _append(path, record)
            if garbage:
                with path.open("ab") as stream:
                    stream.write(("\n".join(garbage)
                                  + ("\n" if terminated else ""))
                                 .encode("utf-8"))
        items, skipped = journal.replay(path, dict)
        assert items == [record for record, _, _ in steps]
        assert skipped == sum(len(garbage) for _, garbage, _ in steps)


def _write_many(path, writer, count):
    for index in range(count):
        _append(path, {"writer": writer, "index": index})


def test_forked_writers_never_split_or_lose_lines(tmp_path):
    path = tmp_path / "shared.jsonl"
    context = multiprocessing.get_context("fork")
    writers = [context.Process(target=_write_many, args=(path, w, 500))
               for w in range(8)]
    for process in writers:
        process.start()
    for process in writers:
        process.join(timeout=120)
    assert [process.exitcode for process in writers] == [0] * 8

    items, skipped = journal.replay(path, dict)
    assert skipped == 0
    assert len(items) == 4000
    for writer in range(8):
        assert [item["index"] for item in items
                if item["writer"] == writer] == list(range(500))


def test_failed_rewrite_keeps_old_bytes_and_no_temp_file(
        tmp_path, monkeypatch):
    path = tmp_path / "wal.jsonl"
    _append(path, {"n": 1})
    before = path.read_bytes()

    def refuse(*_args):
        raise OSError("rename refused")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError, match="rename refused"):
        journal.rewrite(path, [journal.encode({"n": 2})])
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["wal.jsonl"]


def test_parse_rejections_are_counted_and_a_missing_file_is_empty(
        tmp_path):
    path = tmp_path / "journal.jsonl"
    assert journal.replay(path, dict) == ([], 0)
    for record in ({"n": 1}, {"n": "two"}, [3], {"n": 4}):
        journal.append(path, [journal.encode(record)], durable=True)
    assert journal.replay(path, lambda record: int(record["n"])) \
        == ([1, 4], 2)


# -- golden bytes: every writer's format is unchanged ------------------

_SPEC = ('{"deadline_s": null, "experiments": [%s], "idempotency_key": '
         '%s, "priority": "%s", "profile": false, "retries": 0, '
         '"tenant": "%s", "timeout_s": 120.0, "trace_id": %s, '
         '"use_cache": true, "workers": 1}')


@pytest.fixture()
def frozen_clock(monkeypatch):
    monkeypatch.setattr("repro.service.wal.wall_now", lambda: 200.0)
    monkeypatch.setattr("repro.obs.log.wall_now", lambda: 300.0)


def test_run_journal_golden_bytes(tmp_path):
    runs = RunJournal(tmp_path / "journal.jsonl")
    runs.append(RunRecord("E-T1", "ok", 0.25, True, 0, started_at=123.0,
                          phases={"lookup": 0.001, "run": 0.011}))
    runs.append_many([
        RunRecord("E-T2", "failed", 1.5, False, 2,
                  error="ValueError('ü')"),
        RunRecord("E-C1", "timeout", 3.0, False, 1)])
    assert runs.path.read_bytes() == (
        b'{"attempts": 0, "cache_hit": true, "error": null, '
        b'"experiment_id": "E-T1", "phases": {"lookup": 0.001, '
        b'"run": 0.011}, "started_at": 123.0, "status": "ok", '
        b'"wall_time_s": 0.25}\n'
        b'{"attempts": 2, "cache_hit": false, "error": '
        b'"ValueError(\'\\u00fc\')", "experiment_id": "E-T2", '
        b'"phases": {}, "started_at": 0.0, "status": "failed", '
        b'"wall_time_s": 1.5}\n'
        b'{"attempts": 1, "cache_hit": false, "error": null, '
        b'"experiment_id": "E-C1", "phases": {}, "started_at": 0.0, '
        b'"status": "timeout", "wall_time_s": 3.0}\n')


def test_job_wal_golden_bytes(tmp_path, frozen_clock):
    wal = JobWAL(tmp_path / "service" / "wal.jsonl")
    wal.log_submit("j-1", JobSpec(experiment_ids=("E-T1", "E-T2"),
                                  tenant="alice", priority="high",
                                  trace_id="tid-1"), 100.0)
    wal.log_state("j-1", "running")
    wal.log_state("j-1", "failed", reason="deadline_exceeded",
                  error="boom", recovery_attempts=1)
    spec = _SPEC % ('"E-T1", "E-T2"', "null", "high", "alice",
                    '"tid-1"')
    assert wal.path.read_text(encoding="utf-8") == (
        '{"job": "j-1", "op": "submit", "spec": ' + spec
        + ', "ts": 100.0}\n'
        '{"job": "j-1", "op": "state", "recovery_attempts": 0, '
        '"state": "running", "ts": 200.0}\n'
        '{"error": "boom", "job": "j-1", "op": "state", "reason": '
        '"deadline_exceeded", "recovery_attempts": 1, "state": '
        '"failed", "ts": 200.0}\n')


def test_wal_compaction_golden_bytes(tmp_path, frozen_clock):
    wal = JobWAL(tmp_path / "service" / "wal.jsonl")
    wal.log_submit("j-1", JobSpec(experiment_ids=("E-T1",)), 10.0)
    wal.log_submit("j-2", JobSpec(tenant="bob", idempotency_key="k-2"),
                   11.0)
    wal.log_state("j-2", "running")
    wal.log_state("j-2", "failed", reason="recovery_exhausted",
                  error="gave up", recovery_attempts=2)
    wal.log_submit("j-3", JobSpec(), 12.0)
    wal.log_state("j-3", "running")
    wal.log_state("j-3", "queued", reason="recovered",
                  recovery_attempts=1)
    kept = wal.compact()
    assert kept == 3
    assert wal.path.read_text(encoding="utf-8") == (
        '{"job": "j-1", "op": "submit", "spec": '
        + _SPEC % ('"E-T1"', "null", "normal", "default", "null")
        + ', "ts": 10.0}\n'
        '{"job": "j-2", "op": "submit", "spec": '
        + _SPEC % ("", '"k-2"', "normal", "bob", "null")
        + ', "ts": 11.0}\n'
        '{"error": "gave up", "job": "j-2", "op": "state", "reason": '
        '"recovery_exhausted", "recovery_attempts": 2, "state": '
        '"failed", "ts": 200.0}\n'
        '{"job": "j-3", "op": "submit", "spec": '
        + _SPEC % ("", "null", "normal", "default", "null")
        + ', "ts": 12.0}\n'
        '{"job": "j-3", "op": "state", "reason": "recovered", '
        '"recovery_attempts": 1, "state": "queued", "ts": 200.0}\n')


def test_event_log_golden_bytes(tmp_path):
    log = JobEventLog(tmp_path / "service" / "j-1.events.jsonl")
    log.append({"seq": 0, "ts": 1.5, "event": "queued", "job": "j-1"})
    log.append({"seq": 1, "ts": 2.5, "event": "record", "job": "j-1",
                "experiment_id": "E-T1", "status": "ok",
                "cache_hit": True})
    assert log.path.read_bytes() == (
        b'{"event": "queued", "job": "j-1", "seq": 0, "ts": 1.5}\n'
        b'{"cache_hit": true, "event": "record", "experiment_id": '
        b'"E-T1", "job": "j-1", "seq": 1, "status": "ok", "ts": 2.5}\n')


def test_structured_log_golden_bytes(tmp_path, monkeypatch, frozen_clock):
    monkeypatch.delenv(LOG_PATH_ENV, raising=False)
    monkeypatch.delenv(LOG_LEVEL_ENV, raising=False)
    path = tmp_path / "logs" / "out.jsonl"
    configure_logging(path)
    try:
        logger = get_logger("unit.golden")
        logger.info("golden.line", value=7, payload=frozenset({3}))
        logger.warning("golden.warn", note="été")
    finally:
        reset_logging()
    pid = os.getpid()
    assert path.read_text(encoding="utf-8") == (
        '{"event": "golden.line", "level": "info", "logger": '
        '"unit.golden", "payload": "frozenset({3})", "pid": %d, '
        '"ts": 300.0, "value": 7}\n'
        '{"event": "golden.warn", "level": "warning", "logger": '
        '"unit.golden", "note": "\\u00e9t\\u00e9", "pid": %d, '
        '"ts": 300.0}\n' % (pid, pid))
