"""Solver-scaling experiments (perf artifacts, not paper figures).

The validation models only earn their keep when they are fast enough to
run at scale (cf. Rossello et al., PAPERS.md): the Fig. 5 power-grid
cross-check and the optimization flows both sit on the sparse-solver
and STA hot paths.  These two experiments pin the *large* end of those
paths so ``repro bench`` snapshots capture their end-to-end cost and
the CI delta table surfaces assembly-path regressions.

* ``E-S1`` -- one large 2-D power-mesh solve: the full ``cells = 8``,
  ``rails_per_pitch = 8`` bump patch at the 35 nm node (4144 unknowns),
  the mesh the solver-scaling acceptance criterion is measured on.
* ``E-S2`` -- STA over a 4000-gate synthetic netlist, the inner loop
  the optimization flows (CVS, dual-Vth, sizing) iterate.
* ``E-S3`` -- the million-unknown tier: a ``cells = 32``,
  ``rails_per_pitch = 32`` patch (1,049,536 unknowns) that must solve
  within tolerance via multilevel-preconditioned CG -- no direct or
  dense fallback is affordable at this size.
* ``E-S4`` -- setup-reuse sweep: ten same-sparsity solves of a
  ~100k-unknown mesh under a sheet-resistance sweep; the first point
  pays the multilevel setup, the rest reuse it from the fingerprint
  cache, and the reported ``reuse_speedup`` is the wall-clock ratio.
"""

from __future__ import annotations

import time

from repro import units
from repro.itrs import ITRS_2000

#: The scaling mesh: 8 bump periods per side, 8 rails per pitch.
SCALE_CELLS = 8
SCALE_RAILS_PER_PITCH = 8

#: The scaling netlist: 4000 gates, fixed seed for reproducibility.
SCALE_N_GATES = 4000
SCALE_SEED = 7

#: The million-unknown tier: 32 bump periods x 32 rails per pitch
#: gives a 1025x1025 mesh patch with 1,049,536 unknowns.
HUGE_CELLS = 32
HUGE_RAILS_PER_PITCH = 32

#: The reuse-sweep tier: 10 periods x 32 rails = 102,920 unknowns,
#: big enough that the multilevel setup dominates a single solve.
SWEEP_CELLS = 10
SWEEP_RAILS_PER_PITCH = 32

#: Points in the same-sparsity sheet-resistance sweep.
SWEEP_POINTS = 10


def scaling_s1_grid() -> dict[str, float]:
    """One large-mesh power-grid solve at the 35 nm node."""
    from repro.pdn.grid import solve_power_grid_2d

    density, sheet, width, pitch = _grid_inputs()
    solution = solve_power_grid_2d(
        density, sheet, width / SCALE_RAILS_PER_PITCH, pitch,
        rails_per_pitch=SCALE_RAILS_PER_PITCH, cells=SCALE_CELLS)
    return {
        "n_nodes": float(solution.n_nodes),
        "worst_drop_v": solution.worst_drop_v,
        "mean_drop_v": solution.mean_drop_v,
        "drop_ratio": solution.worst_drop_v / solution.mean_drop_v,
    }


def _grid_inputs() -> tuple[float, float, float, float]:
    """(density, sheet resistance, rail width, pitch) at the 35 nm node."""
    from repro.pdn.bacpac import (
        PitchScenario,
        hotspot_current_density_a_m2,
        required_rail_width_m,
    )

    record = ITRS_2000.node(35)
    pitch = units.um(record.min_bump_pitch_um)
    width = required_rail_width_m(35, PitchScenario.MIN_PITCH)
    density = hotspot_current_density_a_m2(record)
    return density, record.top_metal_sheet_resistance, width, pitch


def scaling_s3_grid_million() -> dict[str, float]:
    """The million-unknown mesh: multilevel-preconditioned CG or bust.

    At 1,049,536 unknowns the direct factorization and the dense
    fallback are both off the table (time and memory), so this tier
    exercises exactly the path the solver-scaling acceptance criterion
    names: smoothed-aggregation AMG V-cycle preconditioning with a
    bounded CG iteration count.
    """
    from repro.pdn.grid import solve_power_grid_2d

    density, sheet, width, pitch = _grid_inputs()
    start = time.monotonic()
    solution = solve_power_grid_2d(
        density, sheet, width / HUGE_RAILS_PER_PITCH, pitch,
        rails_per_pitch=HUGE_RAILS_PER_PITCH, cells=HUGE_CELLS)
    elapsed = time.monotonic() - start
    return {
        "n_nodes": float(solution.n_nodes),
        "worst_drop_v": solution.worst_drop_v,
        "mean_drop_v": solution.mean_drop_v,
        "solver_method": solution.solver_method,
        "preconditioner": solution.preconditioner or "",
        "solver_iterations": float(solution.solver_iterations),
        "solve_wall_s": elapsed,
    }


def scaling_s4_reuse_sweep() -> dict[str, float]:
    """Ten same-sparsity solves; nine must reuse the multilevel setup.

    A sheet-resistance sweep rescales every matrix entry uniformly
    while the sparsity fingerprint stays fixed, so after the first
    (cold) point the preconditioner cache serves the hierarchy back
    and each warm point pays iteration cost only.  ``reuse_speedup``
    is cold wall-clock over mean warm wall-clock, so a cheaper setup
    lowers it: about 2x on a 2-vCPU host.
    """
    from repro.pdn.grid import solve_power_grid_2d
    from repro.reliability.precond import PRECONDITIONER_CACHE

    density, sheet, width, pitch = _grid_inputs()
    PRECONDITIONER_CACHE.clear()  # deterministic cold start
    times = []
    reused = 0
    worst = 0.0
    for point in range(SWEEP_POINTS):
        start = time.monotonic()
        solution = solve_power_grid_2d(
            density, sheet * (1.0 + 0.1 * point),
            width / SWEEP_RAILS_PER_PITCH, pitch,
            rails_per_pitch=SWEEP_RAILS_PER_PITCH, cells=SWEEP_CELLS)
        times.append(time.monotonic() - start)
        reused += int(solution.setup_reused)
        worst = max(worst, solution.worst_drop_v)
    cold = times[0]
    warm_mean = sum(times[1:]) / max(1, len(times) - 1)
    return {
        "n_nodes": float(solution.n_nodes),
        "points": float(SWEEP_POINTS),
        "reused_points": float(reused),
        "cold_solve_s": cold,
        "warm_solve_s_mean": warm_mean,
        "reuse_speedup": cold / max(warm_mean, 1e-12),
        "worst_drop_v": worst,
    }


def scaling_s2_sta() -> dict[str, float]:
    """Full STA over a 4000-gate synthetic netlist."""
    from repro.netlist import compute_sta, random_netlist

    netlist = random_netlist(100, n_gates=SCALE_N_GATES,
                             seed=SCALE_SEED)
    report = compute_sta(netlist)
    return {
        "n_gates": float(len(netlist)),
        "critical_delay_s": report.critical_delay_s,
        "worst_slack_s": report.worst_slack_s,
        "meets_timing": report.meets_timing(),
    }
