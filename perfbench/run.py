"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper-cold --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` runs the workload untraced for half the time, then with
the layer wrappers of ``layers.py`` installed for the other half, and
reports the per-layer metrics, ``unattributed_s`` and the tracing
overhead.  Human-readable lines come first; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  See ``RATIONALE.md`` for what each workload and
metric is for.
"""

from __future__ import annotations

import time

PROCESS_START = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_ROOT = ROOT / ".perfbench_work"
TRACE_ROOT = ROOT / ".perfbench_out"

#: Set-ups per run; ``setup_s`` adds the median to the import time.
SETUPS = 3
#: Minimum operations beyond the reported tail percentile.
TAIL_BEYOND = 10
#: Share of the fastest and of the slowest sweeps dropped before the
#: sweep workloads average ``op_s`` and ``cpu_s``.  A shared 2-vCPU VM
#: switches between a fast and a slow state (about 0.13 s against
#: 0.24 s per warm-rerun sweep) for seconds to a minute at a time, so
#: per-sweep times are bimodal.  Their median jumps a whole step when
#: the share of slow sweeps crosses a half; a mean moves in proportion
#: to that share, and the trim keeps a stray stall out of it.
TRIM = 0.1
#: Service jobs per batch for ``op_s``.  Job latency steps with the
#: daemon's 50 ms event-stream poll, so the median of single jobs jumps
#: a whole step when the share of jobs on either side of one crosses a
#: half; the median of 10-job means moves smoothly with that share.
SERVICE_BATCH = 10


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="Run one perfbench workload.")
    parser.add_argument("--workload", required=True,
                        choices=("paper-cold", "solver-scale",
                                 "warm-rerun", "service-jobs"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of the timed phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, n): the highest percentile with at least
    :data:`TAIL_BEYOND` samples beyond it; the maximum when there are
    too few samples for that."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, n
    index = n - TAIL_BEYOND - 1
    return ordered[index], 100.0 * (index + 1) / n, n


def batch_median(values: list[float], size: int) -> float:
    """Median over consecutive batches of ``size`` of the batch means."""
    batches = [values[i:i + size]
               for i in range(0, len(values) - size + 1, size)]
    return statistics.median(statistics.fmean(batch)
                             for batch in batches or [values])


def trimmed_mean(values: list[float]) -> float:
    """Mean after dropping the lowest and the highest :data:`TRIM`."""
    ordered = sorted(values)
    cut = int(len(ordered) * TRIM)
    return statistics.fmean(ordered[cut:len(ordered) - cut])


def central_op_s(workload, phase) -> float:
    """``op_s``: the trimmed mean sweep, or the median of 10-job means."""
    walls = [op.wall_s for op in phase.ops]
    if workload.name == "service-jobs":
        return batch_median(walls, SERVICE_BATCH)
    return trimmed_mean(walls)


def end_to_end(workload, phase, setup_s: float) -> tuple[dict, list[str]]:
    """The end-to-end metrics of an untraced phase, plus display lines.

    The JSON carries workload-neutral names; the display lines use each
    workload's own (``sweep_s``, ``job_p50_s``, ...) and add the printed,
    ungated tail and ``failed_frac``.
    """
    walls = [op.wall_s for op in phase.ops]
    attempted = sum(op.attempted for op in phase.ops)
    failed = sum(op.failed for op in phase.ops)
    per_s = sum(1 for op in phase.ops if not op.failed) / phase.duration_s
    op_s = central_op_s(workload, phase)
    service = workload.name == "service-jobs"
    cpu_s = (phase.cpu_s / len(phase.ops) if service
             else trimmed_mean([op.cpu_s for op in phase.ops]))
    metrics = {
        "setup_s": (setup_s, "s"),
        "op_s": (op_s, "s"),
        "ops_per_s": (per_s, "1/s"),
        "cpu_s": (cpu_s, "s"),
        "peak_rss_mb": (phase.peak_rss_mb, "MB"),
    }
    kind = "job" if service else "sweep"
    tail_s, pct, n = tail(walls)
    tail_note = (f"p{pct:.1f} of {n} {kind}s" if n > TAIL_BEYOND
                 else f"max of {n} {kind}s")
    rows = [("setup_s", setup_s, "s", "")]
    if service:
        rows += [
            ("job_p50_s", statistics.median(walls), "s", ""),
            ("op_s", op_s, "s",
             f"median of {SERVICE_BATCH}-job mean latencies"),
            ("job_tail_s", tail_s, "s", tail_note),
            ("jobs_per_s", per_s, "1/s", "json ops_per_s")]
    else:
        rows += [
            ("sweep_p50_s", statistics.median(walls), "s", ""),
            ("sweep_s", op_s, "s",
             f"json op_s, {TRIM:.0%}-trimmed mean of {len(walls)} sweeps"),
            ("sweep_tail_s", tail_s, "s", tail_note),
            ("sweeps_per_s", per_s, "1/s", "json ops_per_s")]
    rows += [
        ("cpu_s", cpu_s, "s", ""),
        ("peak_rss_mb", phase.peak_rss_mb, "MB", phase.peak_note),
        ("failed_frac", failed / max(1, attempted), "ratio",
         f"{failed} of {attempted} operations")]
    lines = [f"{name:<16} {value:>14.6f} {unit}"
             + (f"  ({note})" if note else "")
             for name, value, unit, note in rows]
    return metrics, lines


def per_layer(workload, untraced, traced) -> tuple[dict, list[str], bool]:
    """The per-layer metrics of a traced phase, plus display lines."""
    import attribution
    import layers
    import workloads

    spans = attribution.spans_from_records(
        traced.span_records, os.getpid(), traced.root_tids)
    split = attribution.attribute(
        spans, [(op.start, op.end) for op in traced.ops])
    counters = {name[len(layers.SPAN_PREFIX):]: value
                for name, value in traced.counters.items()
                if name.startswith(layers.SPAN_PREFIX)}

    def count(name: str) -> float:
        return counters.get(name, 0.0)

    jobs = len(traced.ops) if workload.name == "service-jobs" else 0
    metrics: dict[str, tuple[float, str]] = {}
    for name in layers.SPAN_METRICS:
        metrics[name] = (split.layers.get(name, 0.0), "s")
    for name, unit in layers.COUNTED.items():
        metrics[name] = (count(name), unit)
    for name, (numerator, denominator) in layers.RATIOS.items():
        base = count(denominator)
        metrics[name] = (count(numerator) / base if base else 0.0, "ratio")
    requests = count("service.daemon.requests")
    metrics["service.daemon.requests_per_job"] = (
        requests / jobs if jobs else 0.0, "req/job")
    metrics["service.queue.wait_s"] = (sum(traced.queue_waits), "s")
    run_phases: dict[str, list[float]] = {}
    for record in untraced.records:
        if "run" in record["phases"]:
            run_phases.setdefault(record["experiment_id"], []).append(
                record["phases"]["run"])
    for eid in workloads.EXPERIMENTS:
        values = run_phases.get(eid)
        metrics[f"run.{eid}_s"] = (
            statistics.median(values) if values else 0.0, "s")
    untraced_op = central_op_s(workload, untraced)
    traced_op = central_op_s(workload, traced)
    metrics["unattributed_s"] = (split.unattributed_s, "s")
    metrics["obs.traced_wall_s"] = (split.wall_s, "s")
    metrics["obs.trace_overhead_frac"] = (traced_op / untraced_op - 1.0,
                                          "ratio")

    tolerance = 1e-9 * max(1.0, split.wall_s)
    reconciled = abs(split.residue_s) <= tolerance
    layer_total = sum(split.layers.values())
    lines = [f"{name:<36} {value:>16.6f} {unit}"
             for name, (value, unit) in metrics.items()]
    lines += [
        f"traced wall {split.wall_s:.6f} s = layer self times "
        f"{layer_total:.6f} s + unattributed {split.unattributed_s:.6f} s"
        f" (experiment code outside timed layers "
        f"{split.experiment_code_s:.6f} s, no span "
        f"{split.uncovered_s:.6f} s); residue {split.residue_s:.3e} s "
        f"-> {'reconciled' if reconciled else 'NOT RECONCILED'}",
        f"tracing overhead: op_s {traced_op:.6f} s traced vs "
        f"{untraced_op:.6f} s untraced "
        f"({len(traced.ops)} vs {len(untraced.ops)} ops)",
    ]
    return metrics, lines, reconciled


def write_trace(path: Path, workload: str, seed: int, phase) -> None:
    """Write the traced phase's spans once, at the end of the run."""
    import attribution
    import layers

    spans = [{
        "name": record.name,
        "start_s": record.start_s,
        "end_s": record.end_s,
        "parent": record.parent,
        "trace_id": record.attributes.get("trace_id"),
        "pid": record.pid,
        "tid": record.tid,
        "nested_s": {key: value for key, value
                     in record.attributes.items()
                     if key.startswith(layers.NESTED_PREFIX)},
    } for record in phase.span_records
        if record.name.startswith(layers.SPAN_PREFIX)
        or record.name == attribution.EXPERIMENT_SPAN]
    payload = {"workload": workload, "seed": seed,
               "operations": [[op.start, op.end] for op in phase.ops],
               "spans": spans}
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload) + "\n", encoding="utf-8")


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import reference
    import workloads
    import_s = time.monotonic() - PROCESS_START

    ref = reference.load()
    WORK_ROOT.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-",
                                     dir=WORK_ROOT))
    workload = workloads.build(args.workload, args.seed, work_dir, ref)
    try:
        setups = [workload.setup() for _ in range(SETUPS)]
        setup_s = import_s + statistics.median(setups)
        if args.trace == 0:
            phase = workload.run_phase(args.seconds, traced=False)
            phases = [phase]
            metrics, lines = end_to_end(workload, phase, setup_s)
            reconciled = True
        else:
            import layers

            untraced = workload.run_phase(args.seconds / 2, traced=False)
            uninstall = layers.install()
            try:
                traced = workload.run_phase(args.seconds / 2, traced=True)
            finally:
                uninstall()
            phases = [untraced, traced]
            _, lines = end_to_end(workload, untraced, setup_s)
            metrics, layer_lines, reconciled = per_layer(
                workload, untraced, traced)
            lines += layer_lines
            trace_path = (TRACE_ROOT
                          / f"{args.workload}-seed{args.seed}.trace.json")
            write_trace(trace_path, args.workload, args.seed, traced)
            lines.append(f"spans written to {trace_path}")
    finally:
        try:
            workload.close()
        finally:
            shutil.rmtree(work_dir, ignore_errors=True)

    attempted = sum(op.attempted for phase in phases for op in phase.ops)
    failed = sum(op.failed for phase in phases for op in phase.ops)
    print(f"workload {args.workload}  seed {args.seed}  inputs "
          f"{workload.inputs_digest()}  trace {args.trace}  "
          f"seconds {args.seconds:g}")
    print(f"set-up: imports {import_s:.6f} s + median of "
          f"{len(setups)} set-ups "
          f"[{', '.join(f'{value:.6f}' for value in setups)}] s")
    for line in lines:
        print(line)
    for phase in phases:
        for op in phase.ops:
            for error in op.errors[:5]:
                print(f"FAILED: {error}")
    print(json.dumps({
        "correct": failed == 0 and reconciled,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
