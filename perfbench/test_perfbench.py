"""Self-test of the benchmark: ``python3 -m pytest perfbench -q``.

Runs every workload at minimal length through ``run.py`` and checks
that each end-to-end and per-layer metric is emitted with its unit,
that nothing fails at the committed reference, that the traced run
reconciles, and that a perturbed reference is reported as failures.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import attribution  # noqa: E402
import layers  # noqa: E402
import reference  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

#: The end-to-end names each workload prints, by the names in
#: RATIONALE.md (the JSON carries the workload-neutral op_* names).
PRINTED = {
    "paper-cold": ("setup_s", "sweep_s", "sweep_tail_s", "sweeps_per_s",
                   "cpu_s", "peak_rss_mb", "failed_frac"),
    "service-jobs": ("setup_s", "job_p50_s", "job_tail_s", "jobs_per_s",
                     "cpu_s", "peak_rss_mb", "failed_frac"),
}
PRINTED["solver-scale"] = PRINTED["warm-rerun"] = PRINTED["paper-cold"]


def copy_benchmark(target: Path) -> None:
    """Copy the benchmark's sources and ``BENCHMARK.json`` to ``target``."""
    (target / "perfbench").mkdir()
    for source in HERE.glob("*.py"):
        (target / "perfbench" / source.name).write_bytes(source.read_bytes())
    (target / "BENCHMARK.json").write_bytes(
        (ROOT / "BENCHMARK.json").read_bytes())


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_units(metrics: dict, expected: dict[str, str]) -> None:
    assert set(metrics) == set(expected)
    for name, unit in expected.items():
        assert metrics[name]["unit"] == unit, name
        assert isinstance(metrics[name]["value"], (int, float)), name


def test_spec_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == [
        "paper-cold", "solver-scale", "service-jobs"]
    assert "setup_s" in END_TO_END
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


@pytest.mark.parametrize("workload", ["paper-cold", "solver-scale",
                                      "warm-rerun", "service-jobs"])
def test_traced_run_emits_every_metric(workload):
    proc = run_bench("--workload", workload, "--seed", "3",
                     "--seconds", "0.5", "--trace", "1")
    result = result_of(proc)
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0 and result["attempted"] >= 2
    metrics = result["metrics"]
    check_units(metrics, PER_LAYER)
    assert "-> reconciled" in proc.stdout
    wall = metrics["obs.traced_wall_s"]["value"]
    split = (sum(metrics[name]["value"] for name in layers.SPAN_METRICS)
             + metrics["unattributed_s"]["value"])
    assert wall > 0 and split == pytest.approx(wall, rel=1e-6)
    if workload == "warm-rerun":
        # every task is a cache hit: fingerprinting dominates the sweep
        assert metrics["engine.cache.fingerprint_s"]["value"] > 0.5 * wall
    for name in PRINTED[workload]:
        assert any(line.split()[:1] == [name] for line in
                   proc.stdout.splitlines()), name


def test_untraced_run_emits_end_to_end_metrics():
    proc = run_bench("--workload", "warm-rerun", "--seed", "4",
                     "--seconds", "0.5", "--trace", "0")
    result = result_of(proc)
    assert result["correct"] is True and result["failed"] == 0
    check_units(result["metrics"], END_TO_END)
    assert "seed 4  inputs " in proc.stdout


def test_perturbed_reference_reports_failures(tmp_path):
    copy_benchmark(tmp_path)
    (tmp_path / "src").symlink_to(ROOT / "src")
    perturbed = reference.load()
    perturbed["E-T2"]["rows"][0]["ioff_na_um"] *= 1.01
    (tmp_path / "perfbench" / "reference.json").write_text(
        json.dumps(perturbed), encoding="utf-8")
    proc = run_bench("--workload", "warm-rerun", "--seed", "5",
                     "--seconds", "0.5", "--trace", "0", cwd=tmp_path)
    result = result_of(proc)
    assert result["correct"] is False
    assert result["failed"] >= 1
    assert "FAILED: E-T2" in proc.stdout


def test_refuses_to_run_without_the_program(tmp_path):
    copy_benchmark(tmp_path)
    proc = run_bench("--workload", "paper-cold", "--seed", "1",
                     "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_reference_skips_only_timing_and_effort_fields():
    ref = reference.load()
    got = json.loads(json.dumps(ref["E-S4"]))
    got["reuse_speedup"] *= 3.0
    got["warm_solve_s_mean"] *= 3.0
    assert reference.mismatches("E-S4", got, ref) == []
    got["worst_drop_v"] *= 1.0 + 1e-5
    assert reference.mismatches("E-S4", got, ref)
    within = json.loads(json.dumps(ref["E-S4"]))
    within["worst_drop_v"] *= 1.0 + 1e-8
    assert reference.mismatches("E-S4", within, ref) == []


def _span(metric, start, end, lane=(1, 1), tier=0, trace="t", nested=()):
    return attribution.Span(metric=metric, start=start, end=end,
                            lane=lane, tier=tier, trace_id=trace,
                            nested=nested)


def test_attribution_reconciles_nesting_waiting_and_nested_calls():
    spans = [
        # main thread: the scheduler waits on a worker from 1 to 3
        _span("engine.scheduler.self_s", 0.0, 4.0),
        _span("engine.cache.fingerprint_s", 0.5, 1.0),
        # worker: experiment code with one timed layer inside it
        _span(None, 1.0, 3.0, lane=(2, 1), tier=2),
        _span("optim.flows.self_s", 1.5, 2.5, lane=(2, 1), tier=2,
              nested=(("optim.incremental.busy_s", 0.5),)),
    ]
    split = attribution.attribute(spans, [(0.0, 5.0)])
    assert split.wall_s == pytest.approx(5.0)
    assert split.layers["engine.scheduler.self_s"] == pytest.approx(1.5)
    assert split.layers["engine.cache.fingerprint_s"] == pytest.approx(0.5)
    assert split.layers["optim.flows.self_s"] == pytest.approx(0.5)
    assert split.layers["optim.incremental.busy_s"] == pytest.approx(0.5)
    assert split.experiment_code_s == pytest.approx(1.0)
    assert split.uncovered_s == pytest.approx(1.0)
    assert abs(split.residue_s) < 1e-12


def test_attribution_splits_concurrent_leaves_evenly():
    spans = [
        _span("service.daemon.request_s", 0.0, 2.0, lane=(1, 1)),
        _span("service.daemon.request_s", 0.0, 2.0, lane=(1, 2),
              trace="u"),
        # daemon work for trace t only: client t yields, client u not
        _span("engine.cache.read_s", 0.0, 1.0, lane=(1, 3), tier=1),
    ]
    split = attribution.attribute(spans, [(0.0, 2.0)])
    assert split.layers["engine.cache.read_s"] == pytest.approx(0.5)
    assert split.layers["service.daemon.request_s"] == pytest.approx(1.5)
    assert abs(split.residue_s) < 1e-12
