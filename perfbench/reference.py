"""The committed correctness reference and the comparison against it.

``reference.json`` holds every experiment's result structure as
:func:`repro.service.jobs.json_safe` renders it.  A returned result
matches when it has the same structure and every number agrees within
:data:`REL_TOL` (relative) or :data:`ABS_TOL` (absolute, so that
round-off-level residuals such as E-V1 ``strip_error`` ~3e-14 do not
flip on another host).  Only fields that report host timings or solver
effort are skipped (:data:`SKIPPED_FIELDS`).

Regenerate the file (one cold sweep of the whole registry) with::

    python3 perfbench/reference.py --write
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"

REL_TOL = 1e-6
ABS_TOL = 1e-13

#: Fields that measure the host or the solver's effort, not the answer.
SKIPPED_FIELDS = {
    "E-S3": frozenset(("solve_wall_s",)),
    "E-S4": frozenset(("cold_solve_s", "warm_solve_s_mean",
                       "reuse_speedup")),
}
#: Skipped in every experiment.
SKIPPED_EVERYWHERE = frozenset(("solver_iterations",))


def load() -> dict[str, Any]:
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))


def _diff(got: Any, want: Any, where: str, skipped: frozenset,
          out: list[str]) -> None:
    if isinstance(want, dict):
        if not isinstance(got, dict):
            out.append(f"{where}: expected an object")
            return
        keys = (set(want) | set(got)) - skipped
        for key in sorted(keys):
            if key not in got or key not in want:
                out.append(f"{where}.{key}: field "
                           f"{'missing' if key not in got else 'extra'}")
                continue
            _diff(got[key], want[key], f"{where}.{key}",
                  SKIPPED_EVERYWHERE, out)
    elif isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            out.append(f"{where}: expected a list of {len(want)}")
            return
        for index, (g, w) in enumerate(zip(got, want)):
            _diff(g, w, f"{where}[{index}]", SKIPPED_EVERYWHERE, out)
    elif (isinstance(want, (int, float)) and not isinstance(want, bool)
          and isinstance(got, (int, float)) and not isinstance(got, bool)):
        if math.isnan(want) and math.isnan(got):
            return
        if not math.isclose(got, want, rel_tol=REL_TOL, abs_tol=ABS_TOL):
            out.append(f"{where}: {got!r} != {want!r}")
    elif got != want:
        out.append(f"{where}: {got!r} != {want!r}")


def mismatches(experiment_id: str, result: Any,
               reference: dict[str, Any]) -> list[str]:
    """Differences of one json-safe ``result`` from the reference."""
    if experiment_id not in reference:
        return [f"{experiment_id}: no reference"]
    out: list[str] = []
    skipped = SKIPPED_FIELDS.get(experiment_id, frozenset())
    _diff(result, reference[experiment_id], experiment_id,
          skipped | SKIPPED_EVERYWHERE, out)
    return out


def _write(path: Path) -> int:
    import tempfile

    from repro.analysis.experiments import EXPERIMENTS
    from repro.engine import default_jobs, run_experiments
    from repro.service.jobs import json_safe

    work = HERE.parent / ".perfbench_work"
    work.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as cache_dir:
        sweep = run_experiments(list(EXPERIMENTS), jobs=default_jobs(),
                                cache_dir=Path(cache_dir))
    if not sweep.all_ok:
        print("reference sweep failed", file=sys.stderr)
        return 1
    payload = {eid: json_safe(sweep.results[eid]) for eid in EXPERIMENTS}
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n",
                    encoding="utf-8")
    print(f"wrote {len(payload)} results to {path}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true",
                        help="regenerate the reference from a cold sweep")
    args = parser.parse_args(argv)
    if not args.write:
        parser.print_help()
        return 2
    sys.path.insert(0, str(HERE.parent / "src"))
    return _write(REFERENCE_PATH)


if __name__ == "__main__":
    sys.exit(main())
