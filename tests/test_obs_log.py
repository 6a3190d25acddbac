"""Structured JSONL logging: schema, levels, correlation, fork safety."""

import io
import json
import os

import pytest

from repro.obs import (
    clear_trace_context,
    configure_logging,
    current_log_path,
    get_logger,
    logging_configured,
    reset_logging,
    trace_context,
    validate_log_records,
)
from repro.obs.log import LEVELS, LOG_LEVEL_ENV, LOG_PATH_ENV


@pytest.fixture(autouse=True)
def _clean_logging(monkeypatch):
    monkeypatch.delenv(LOG_PATH_ENV, raising=False)
    monkeypatch.delenv(LOG_LEVEL_ENV, raising=False)
    reset_logging()
    clear_trace_context()
    yield
    reset_logging()
    clear_trace_context()


def _records(stream):
    return [json.loads(line) for line in
            stream.getvalue().splitlines() if line.strip()]


def test_noop_without_configuration():
    assert not logging_configured()
    get_logger("test").info("quietly.dropped")  # must not raise


def test_record_schema():
    stream = io.StringIO()
    configure_logging(stream=stream)
    get_logger("unit.test").info("thing.happened", value=7)
    (record,) = _records(stream)
    assert record["event"] == "thing.happened"
    assert record["logger"] == "unit.test"
    assert record["level"] == "info"
    assert record["pid"] == os.getpid()
    assert isinstance(record["ts"], float)
    assert record["value"] == 7


def test_level_filtering():
    stream = io.StringIO()
    configure_logging(stream=stream, level="warning")
    logger = get_logger("unit")
    logger.debug("dropped.debug")
    logger.info("dropped.info")
    logger.warning("kept.warning")
    logger.error("kept.error")
    events = [r["event"] for r in _records(stream)]
    assert events == ["kept.warning", "kept.error"]


def test_bad_level_rejected():
    with pytest.raises(ValueError):
        configure_logging(stream=io.StringIO(), level="loud")
    assert sorted(LEVELS) == ["debug", "error", "info", "warning"]


def test_context_correlation_stamped():
    stream = io.StringIO()
    configure_logging(stream=stream)
    with trace_context(trace_id="t-log", job_id="j-log",
                       tenant="acme"):
        get_logger("unit").info("correlated")
    (record,) = _records(stream)
    assert record["trace_id"] == "t-log"
    assert record["job_id"] == "j-log"
    assert record["tenant"] == "acme"


def test_explicit_fields_do_not_override_schema():
    stream = io.StringIO()
    configure_logging(stream=stream)
    get_logger("unit").info("clash", level="bogus", pid=-1)
    (record,) = _records(stream)
    assert record["level"] == "info"
    assert record["pid"] == os.getpid()


def test_unserialisable_fields_fall_back_to_repr():
    stream = io.StringIO()
    configure_logging(stream=stream)
    get_logger("unit").info("weird", payload=object())
    (record,) = _records(stream)
    assert "object object" in record["payload"]


def test_file_sink_and_current_log_path(tmp_path):
    path = tmp_path / "logs" / "out.jsonl"
    configure_logging(path)
    assert current_log_path() == path
    get_logger("unit").info("to.disk")
    count, problems = validate_log_records(
        path.read_text(encoding="utf-8"))
    assert (count, problems) == (1, [])


def test_env_configuration_lazy(tmp_path, monkeypatch):
    path = tmp_path / "env.jsonl"
    monkeypatch.setenv(LOG_PATH_ENV, str(path))
    monkeypatch.setenv(LOG_LEVEL_ENV, "debug")
    reset_logging()
    get_logger("unit").debug("via.env")
    text = path.read_text(encoding="utf-8")
    assert "via.env" in text


def test_fork_reopens_the_sink(tmp_path):
    """A forked child appends its own records without clobbering the
    parent's -- both pids land in the file."""
    if not hasattr(os, "fork"):
        pytest.skip("fork not available")
    path = tmp_path / "forked.jsonl"
    configure_logging(path)
    get_logger("unit").info("parent.before")
    pid = os.fork()
    if pid == 0:  # child
        try:
            get_logger("unit").info("child.hello")
        finally:
            os._exit(0)
    os.waitpid(pid, 0)
    get_logger("unit").info("parent.after")
    count, problems = validate_log_records(
        path.read_text(encoding="utf-8"))
    assert problems == []
    assert count == 3
    pids = {json.loads(line)["pid"] for line in
            path.read_text(encoding="utf-8").splitlines()
            if line.strip()}
    assert len(pids) == 2


def test_validate_log_records_flags_problems():
    good = ('{"ts": 1.0, "level": "info", "logger": "x", '
            '"event": "ok", "pid": 3}')
    count, problems = validate_log_records(good + "\n")
    assert (count, problems) == (1, [])
    _, problems = validate_log_records("not json\n")
    assert problems
    _, problems = validate_log_records('{"level": "info"}\n')
    assert any("ts" in p for p in problems)
    _, problems = validate_log_records(
        '{"ts": 1.0, "level": "shout", "logger": "x", '
        '"event": "e", "pid": 3}\n')
    assert any("level" in p for p in problems)
