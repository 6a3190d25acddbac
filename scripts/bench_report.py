#!/usr/bin/env python
"""Validate and compare ``BENCH_*.json`` benchmark snapshots.

Two modes:

* ``--validate FILE [FILE...]`` -- schema-check snapshots; exit 0 when
  every file is a valid ``repro-bench/1`` snapshot, 1 otherwise.
* ``OLD NEW`` (two snapshot paths) or ``--dir D`` (compare the two
  newest snapshots in a directory) -- print the per-benchmark delta
  table; exit 0 on no regression, 1 when any benchmark trips the
  noise-aware gate, 2 on usage errors (missing files, fewer than two
  snapshots to compare).

``--report-only`` keeps the table but forces exit 0 -- the CI bench
job uses it so a slow shared runner cannot fail the build while the
delta table still lands in the job log.

Usage::

    PYTHONPATH=src python scripts/bench_report.py --validate BENCH_x.json
    PYTHONPATH=src python scripts/bench_report.py old.json new.json
    PYTHONPATH=src python scripts/bench_report.py --dir benchmarks/baselines
"""

import argparse
import sys
from pathlib import Path

from repro.bench import (
    compare_snapshots,
    list_snapshots,
    load_snapshot,
    validate_snapshot,
)
from repro.errors import ReproError


def _validate(paths):
    failures = 0
    for path in paths:
        try:
            import json
            payload = json.loads(Path(path).read_text("utf-8"))
        except (OSError, ValueError) as exc:
            print(f"{path}: unreadable: {exc}", file=sys.stderr)
            failures += 1
            continue
        errors = validate_snapshot(payload)
        if errors:
            failures += 1
            print(f"{path}: INVALID", file=sys.stderr)
            for error in errors:
                print(f"  - {error}", file=sys.stderr)
        else:
            count = len(payload["benchmarks"])
            print(f"{path}: ok ({count} benchmark(s), "
                  f"schema {payload['schema']})")
    return 1 if failures else 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Validate / compare repro benchmark snapshots.")
    parser.add_argument("snapshots", nargs="*", type=Path,
                        metavar="SNAPSHOT",
                        help="with --validate: files to check; "
                             "otherwise: OLD NEW to compare")
    parser.add_argument("--validate", action="store_true",
                        help="schema-check the given snapshot files")
    parser.add_argument("--dir", type=Path, default=None,
                        help="compare the two newest BENCH_*.json "
                             "snapshots in this directory")
    parser.add_argument("--report-only", action="store_true",
                        help="print the comparison but always exit 0")
    args = parser.parse_args(argv)

    if args.validate:
        if not args.snapshots:
            print("error: --validate needs at least one snapshot",
                  file=sys.stderr)
            return 2
        return _validate(args.snapshots)

    if args.dir is not None:
        snapshots = list_snapshots(args.dir)
        if len(snapshots) < 2:
            print(f"error: {args.dir} holds {len(snapshots)} "
                  f"snapshot(s); need two to compare",
                  file=sys.stderr)
            return 2
        old_path, new_path = snapshots[-2], snapshots[-1]
    elif len(args.snapshots) == 2:
        old_path, new_path = args.snapshots
    else:
        print("error: pass OLD NEW snapshot paths, --dir, or "
              "--validate", file=sys.stderr)
        return 2

    try:
        baseline = load_snapshot(old_path)
        current = load_snapshot(new_path)
    except (OSError, ValueError, ReproError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    comparison = compare_snapshots(baseline, current)
    print(f"baseline {old_path}\ncurrent  {new_path}\n")
    print(comparison.render())
    if args.report_only:
        return 0
    return comparison.exit_code


if __name__ == "__main__":
    sys.exit(main())
