"""The perf-regression benchmark harness and its snapshot schema."""

import json
from pathlib import Path

import pytest

from repro.analysis.experiments import EXPERIMENTS, Experiment
from repro.bench import (
    ABS_FLOOR_S,
    BENCH_SCHEMA,
    QUICK_IDS,
    REL_TOL,
    compare_snapshots,
    host_fingerprint,
    latest_baseline,
    list_snapshots,
    load_snapshot,
    run_benchmarks,
    snapshot_filename,
    validate_snapshot,
    write_snapshot,
)
from repro.errors import ReproError


def _snapshot(medians, created_at=1.7e9, platform="test-host"):
    """A hand-built, schema-valid snapshot with the given medians."""
    return {
        "schema": BENCH_SCHEMA,
        "created_at": created_at,
        "host": {"platform": platform, "machine": "x", "python": "3",
                 "cpus": 1},
        "config": {"repeats": 3, "slowdown_s": 0},
        "benchmarks": [
            {"id": bench_id, "family": "table",
             "wall_times_s": [median], "median_s": median,
             "best_s": median, "peak_rss_kb": 1000.0,
             "solver_iterations": 10, "spans": 5}
            for bench_id, median in medians.items()],
    }


# -- running ----------------------------------------------------------


def test_run_benchmarks_produces_valid_snapshot():
    snapshot = run_benchmarks(["E-T2", "E-F1"], repeats=2)
    assert validate_snapshot(snapshot) == []
    assert snapshot["schema"] == BENCH_SCHEMA
    assert [entry["id"] for entry in snapshot["benchmarks"]] \
        == ["E-T2", "E-F1"]
    for entry in snapshot["benchmarks"]:
        assert len(entry["wall_times_s"]) == 2
        assert entry["median_s"] >= entry["best_s"] >= 0
        assert entry["peak_rss_kb"] > 0
        assert entry["spans"] > 0
    # E-T2 exercises the Vth calibration solver; its iteration total
    # must land in the snapshot via the metrics registry
    et2 = snapshot["benchmarks"][0]
    assert et2["solver_iterations"] > 0
    # snapshots must survive a JSON round trip unchanged
    assert json.loads(json.dumps(snapshot)) == snapshot


@pytest.mark.skipif(not Path("/proc/self/clear_refs").exists(),
                    reason="needs a resettable RSS high-water mark")
def test_each_benchmark_reports_its_own_peak_rss(monkeypatch):
    # The high-water mark is reset per benchmark, so a no-op benchmark
    # run after one that touches 64 MB does not inherit that peak.
    def touch_64_mb():
        block = b"\x01" * (64 << 20)
        return {"bytes": float(len(block))}

    monkeypatch.setitem(EXPERIMENTS, "E-T1", Experiment(
        "E-T1", "touches 64 MB", "Table 1", touch_64_mb))
    monkeypatch.setitem(EXPERIMENTS, "E-T2", Experiment(
        "E-T2", "does nothing", "Table 2", lambda: {"x": 0.0}))
    snapshot = run_benchmarks(["E-T1", "E-T2"], repeats=1)
    large, noop = (entry["peak_rss_kb"] for entry in snapshot["benchmarks"])
    assert noop > 0
    assert large - noop >= 40 * 1024


def test_run_benchmarks_rejects_bad_arguments():
    with pytest.raises(ReproError):
        run_benchmarks(["E-F1"], repeats=0)
    with pytest.raises(ReproError):
        run_benchmarks(["E-NOPE"], repeats=1)


def test_quick_subset_ids_exist():
    from repro.analysis import EXPERIMENTS
    assert set(QUICK_IDS) <= set(EXPERIMENTS)


# -- schema -----------------------------------------------------------


def test_validate_snapshot_flags_each_defect():
    assert validate_snapshot([]) != []
    assert any("schema" in problem for problem in
               validate_snapshot(_snapshot({"a": 1.0}) | {"schema": "v0"}))
    no_benchmarks = _snapshot({})
    assert any("benchmarks" in problem
               for problem in validate_snapshot(no_benchmarks))
    duplicated = _snapshot({"a": 1.0})
    duplicated["benchmarks"].append(duplicated["benchmarks"][0])
    assert any("duplicate" in problem
               for problem in validate_snapshot(duplicated))
    negative = _snapshot({"a": 1.0})
    negative["benchmarks"][0]["median_s"] = -1.0
    assert validate_snapshot(negative) != []
    missing_rss = _snapshot({"a": 1.0})
    del missing_rss["benchmarks"][0]["peak_rss_kb"]
    assert any("peak_rss_kb" in problem
               for problem in validate_snapshot(missing_rss))


def test_write_and_load_snapshot_round_trip(tmp_path):
    snapshot = _snapshot({"E-T2": 0.5})
    path = write_snapshot(snapshot, tmp_path)
    assert path.name == snapshot_filename(snapshot)
    assert path.name.startswith("BENCH_") and path.name.endswith(".json")
    assert load_snapshot(path) == snapshot
    # a same-second snapshot must not overwrite the first
    second = write_snapshot(snapshot, tmp_path)
    assert second != path and second.exists()
    with pytest.raises(ReproError):
        write_snapshot({"schema": "junk"}, tmp_path)


def test_latest_baseline_picks_newest(tmp_path):
    assert latest_baseline(tmp_path) is None
    assert latest_baseline(tmp_path / "missing") is None
    old = write_snapshot(_snapshot({"a": 1.0}, created_at=1.70e9),
                         tmp_path)
    new = write_snapshot(_snapshot({"a": 1.0}, created_at=1.71e9),
                         tmp_path)
    assert list_snapshots(tmp_path) == [old, new]
    assert latest_baseline(tmp_path) == new


# -- comparison -------------------------------------------------------


def test_compare_requires_both_gates_to_trip():
    baseline = _snapshot({"fast": 0.002, "slow": 1.0})
    # fast: 10x slower but under the absolute floor -> not a regression
    # slow: +40% which clears the floor but not the relative gate
    current = _snapshot({"fast": 0.020, "slow": 1.4})
    comparison = compare_snapshots(baseline, current)
    assert comparison.exit_code == 0
    assert {row["id"]: row["status"] for row in comparison.rows} \
        == {"fast": "ok", "slow": "ok"}


def test_compare_flags_true_regressions_and_improvements():
    baseline = _snapshot({"slow": 1.0, "better": 2.0, "same": 0.5})
    current = _snapshot({"slow": 2.0, "better": 1.0, "same": 0.5})
    comparison = compare_snapshots(baseline, current)
    statuses = {row["id"]: row["status"] for row in comparison.rows}
    assert statuses == {"slow": "regression", "better": "improved",
                        "same": "ok"}
    assert comparison.exit_code == 1
    assert [row["id"] for row in comparison.regressions] == ["slow"]
    rendered = comparison.render()
    assert "REGRESSION" in rendered and "slow" in rendered
    assert comparison.to_json_dict()["regressions"] == ["slow"]
    # the fixed gate thresholds still travel with every comparison
    assert comparison.to_json_dict()["rel_tol"] == REL_TOL
    assert comparison.to_json_dict()["abs_floor_s"] == ABS_FLOOR_S


def test_compare_reports_added_and_removed_benchmarks():
    comparison = compare_snapshots(_snapshot({"gone": 1.0}),
                                   _snapshot({"added": 1.0}))
    statuses = {row["id"]: row["status"] for row in comparison.rows}
    assert statuses == {"added": "new", "gone": "removed"}
    assert comparison.exit_code == 0  # membership changes never gate


def test_snapshot_carries_telemetry_block():
    from repro.bench import measure_telemetry_overhead

    snapshot = run_benchmarks(["E-T2"], repeats=1)
    telemetry = snapshot["telemetry"]
    assert telemetry["tracing"] is True
    assert isinstance(telemetry["logging"], bool)
    assert telemetry["span_overhead_s"] >= 0
    assert telemetry["log_overhead_s"] >= 0
    assert validate_snapshot(snapshot) == []
    probe = measure_telemetry_overhead(iterations=50)
    assert set(probe) == {"tracing", "logging",
                          "span_overhead_s", "log_overhead_s"}


def test_validate_snapshot_accepts_missing_telemetry_and_flags_bad():
    # Pre-telemetry snapshots stay valid (the block is optional)...
    assert validate_snapshot(_snapshot({"a": 1.0})) == []
    # ...but a malformed block is flagged.
    bad = _snapshot({"a": 1.0}) | {"telemetry": "yes"}
    assert any("telemetry" in problem
               for problem in validate_snapshot(bad))
    negative = _snapshot({"a": 1.0}) | {"telemetry": {
        "tracing": True, "logging": False,
        "span_overhead_s": -1.0, "log_overhead_s": 0.0}}
    assert any("telemetry" in problem
               for problem in validate_snapshot(negative))


def test_compare_flags_telemetry_mismatch():
    baseline = _snapshot({"a": 1.0}) | {"telemetry": {
        "tracing": True, "logging": False,
        "span_overhead_s": 1e-6, "log_overhead_s": 1e-7}}
    current = _snapshot({"a": 1.0}) | {"telemetry": {
        "tracing": True, "logging": True,
        "span_overhead_s": 1e-6, "log_overhead_s": 1e-7}}
    comparison = compare_snapshots(baseline, current)
    assert comparison.telemetry_mismatch
    assert "telemetry switches" in comparison.render()
    assert comparison.to_json_dict()["telemetry_mismatch"] is True
    # Same switches (or blocks absent on both sides): no warning.
    same = compare_snapshots(current, current)
    assert not same.telemetry_mismatch
    legacy = compare_snapshots(_snapshot({"a": 1.0}),
                               _snapshot({"a": 1.0}))
    assert not legacy.telemetry_mismatch


def test_compare_warns_on_cross_host_baselines():
    baseline = _snapshot({"a": 1.0}, platform="host-one")
    current = _snapshot({"a": 1.0}, platform="host-two")
    comparison = compare_snapshots(baseline, current)
    assert comparison.cross_host
    assert "different host" in comparison.render()


def test_host_fingerprint_identifies_this_machine():
    fingerprint = host_fingerprint()
    assert fingerprint["platform"]
    assert fingerprint["cpus"] >= 1
