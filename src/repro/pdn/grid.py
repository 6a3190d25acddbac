"""Sparse resistive grid solver -- independent validation of the
analytic BACPAC model (experiment E-V1).

Two solvers:

* :func:`solve_rail_strip` -- a single rail between two bump
  connections, discretised into N resistive segments with the collected
  current injected uniformly.  Its mid-span drop converges to the
  analytic ``j Rsq p^2 / (8 W)`` distributed result, validating the
  formula at the heart of Fig. 5.
* :func:`solve_power_grid_2d` -- a full two-dimensional mesh of one
  bump period with rails in both directions, solved with
  ``scipy.sparse``.  In the realistic mesh only every
  ``rails_per_pitch``-th rail passes through a bump, so current from
  the other rails detours through the orthogonal direction and the
  worst-case drop lands *above* the idealised 1-D figure -- inside the
  allowance the calibrated ``CROWDING_FACTOR`` provides, which the
  validation asserts.

Assembly is fully vectorized (no per-node Python loop, no
``lil_matrix``), so system construction scales with hardware memory
bandwidth rather than interpreter overhead.  The strip is assembled
from COO triplets; the mesh's five-point stencil is written straight
into CSR arrays, with no triplets to sort.  Entry values are identical
to the historical per-node assembly -- degree terms are the same
correctly-rounded ``k * conductance`` products -- so drops match the
original implementation to within solver round-off (well inside
1e-9).  The systems are symmetric positive definite, which the guarded
solve exploits through its preconditioned conjugate-gradient path
(``spd=True``; see :func:`repro.reliability.guard.guarded_linear_solve`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix

from repro import units
from repro.errors import ModelParameterError
from repro.itrs import ITRS_2000
from repro.obs import COUNT_BUCKETS, add_counter, observe, span
from repro.pdn.bacpac import (
    PitchScenario,
    hotspot_current_density_a_m2,
    required_rail_width_m,
)
from repro.reliability.guard import guarded_linear_solve


def _strip_laplacian(n_interior: int, conductance: float) -> csr_matrix:
    """Tridiagonal chain Laplacian (both ends Dirichlet), vectorized.

    Diagonal ``2 g`` at every interior node, ``-g`` on both
    off-diagonals -- the same entries the per-node assembly produced.
    """
    diag = np.arange(n_interior)
    off = np.arange(n_interior - 1)
    rows = np.concatenate((diag, off + 1, off))
    cols = np.concatenate((diag, off, off + 1))
    data = np.concatenate((
        np.full(n_interior, 2.0 * conductance),
        np.full(n_interior - 1, -conductance),
        np.full(n_interior - 1, -conductance),
    ))
    return csr_matrix((data, (rows, cols)),
                      shape=(n_interior, n_interior))


def _solve_strip_drops(current_per_m: float, sheet_resistance: float,
                       width_m: float, span_m: float, n_segments: int,
                       *, solver: str, name: str):
    """Drop profile of one uniformly loaded rail between two bumps.

    Returns the full :class:`~repro.reliability.guard.GuardedSolution`
    so callers can surface the solver diagnostics.
    """
    seg_len = span_m / n_segments
    seg_res = sheet_resistance * seg_len / width_m
    # Interior nodes 1..n-1; ends grounded (at the supply).
    n_interior = n_segments - 1
    conductance = 1.0 / seg_res
    with span("pdn.assemble", solver=solver, nodes=n_interior):
        matrix = _strip_laplacian(n_interior, conductance)
        rhs = np.full(n_interior, current_per_m * seg_len)
    add_counter("pdn.unknowns", n_interior)
    observe("pdn.system_unknowns", n_interior, COUNT_BUCKETS,
            solver=solver)
    return guarded_linear_solve(matrix, rhs, name=name, spd=True)


def solve_rail_strip(current_per_m: float, sheet_resistance: float,
                     width_m: float, span_m: float,
                     n_segments: int = 200) -> float:
    """Worst (mid-span) drop of one rail between two bumps [V].

    Both ends are held at the supply; ``current_per_m`` [A/m] is drawn
    uniformly along the span.
    """
    if min(current_per_m, sheet_resistance, width_m, span_m) <= 0:
        raise ModelParameterError("strip parameters must be positive")
    if n_segments < 2:
        raise ModelParameterError("need at least two segments")
    drops = _solve_strip_drops(current_per_m, sheet_resistance, width_m,
                               span_m, n_segments, solver="rail-strip",
                               name="pdn-rail-strip").x
    return float(np.max(drops))


@dataclass(frozen=True)
class GridSolution:
    """Result of the 2-D mesh solve (plus solver diagnostics)."""

    worst_drop_v: float
    mean_drop_v: float
    n_nodes: int
    #: How the linear system was solved ("cg" / "spsolve").
    solver_method: str = ""
    solver_iterations: int = 0
    #: Preconditioner applied on the CG path, ``None`` otherwise.
    preconditioner: str | None = None
    #: True when the multilevel setup came from the reuse cache --
    #: the signal that a sweep is amortizing setup as intended.
    setup_reused: bool = False


def _mesh_laplacian(n_side: int, rails_per_pitch: int,
                    conductance: float) -> tuple[csr_matrix, int]:
    """Vectorized 2-D mesh Laplacian with bump nodes eliminated.

    Node ``(ix, iy)`` is a Dirichlet bump when both coordinates are
    multiples of ``rails_per_pitch``; every other node is an unknown,
    numbered in row-major ``(ix, iy)`` order -- the same ordering the
    historical dict-based assembly produced.  The diagonal counts every
    in-bounds neighbour (patch boundaries are symmetry planes), and
    off-diagonal couplings are emitted only between unknown pairs: a
    bump neighbour contributes its diagonal term and nothing else.

    The five-point stencil is written straight into CSR arrays: with
    row-major numbering a row's columns ascend as ``(ix-1, iy)``,
    ``(ix, iy-1)``, the diagonal, ``(ix, iy+1)``, ``(ix+1, iy)``.
    """
    coords = np.arange(n_side)
    on_rail = coords % rails_per_pitch == 0
    unknown = ~(on_rail[:, None] & on_rail[None, :])
    n_unknown = int(np.count_nonzero(unknown))
    # Unknown numbers on a grid padded with one ring of -1 ("no
    # coupling"), so each stencil neighbour is a shifted slice.
    row_of = np.full((n_side + 2, n_side + 2), -1, dtype=np.int32)
    row_of[1:-1, 1:-1][unknown] = np.arange(n_unknown, dtype=np.int32)
    columns = np.stack((
        row_of[:-2, 1:-1][unknown],
        row_of[1:-1, :-2][unknown],
        row_of[1:-1, 1:-1][unknown],
        row_of[1:-1, 2:][unknown],
        row_of[2:, 1:-1][unknown],
    ), axis=1)
    coupled = columns >= 0
    indptr = np.zeros(n_unknown + 1, dtype=np.int32)
    np.cumsum(np.count_nonzero(coupled, axis=1), out=indptr[1:])

    # Diagonal: conductance per in-bounds neighbour (2..4 of them),
    # stored after the row's (ix-1, iy) and (ix, iy-1) couplings.
    per_axis = (coords > 0).astype(float) + (coords < n_side - 1)
    degree = per_axis[:, None] + per_axis[None, :]
    data = np.full(int(indptr[-1]), -conductance)
    data[indptr[:-1] + coupled[:, 0] + coupled[:, 1]] = \
        conductance * degree[unknown]
    matrix = csr_matrix((data, columns[coupled], indptr),
                        shape=(n_unknown, n_unknown))
    return matrix, n_unknown


def solve_power_grid_2d(current_density_a_m2: float,
                        sheet_resistance: float, width_m: float,
                        bump_pitch_m: float, rails_per_pitch: int = 4,
                        cells: int = 2) -> GridSolution:
    """Solve a 2-D power mesh patch with bumps on a regular grid.

    ``rails_per_pitch`` rails (each ``width_m`` wide) run in each
    direction per bump pitch, each carrying a proportional share of the
    collected current; bumps sit at every pitch intersection and are
    Dirichlet (ideal supply) nodes.  ``cells`` bump periods are modelled
    per side.

    The degenerate ``rails_per_pitch = 1`` mesh has a bump at every
    rail crossing, so the 2-D system decouples into independent rail
    spans with no crowding detour: each span is exactly the uniformly
    loaded 1-D strip of :func:`solve_rail_strip` carrying
    ``current_density * bump_pitch`` per metre, and the solve reduces
    to that chain (the historical assembly produced an empty system
    here and failed).
    """
    if min(current_density_a_m2, sheet_resistance, width_m,
           bump_pitch_m) <= 0:
        raise ModelParameterError("grid parameters must be positive")
    if rails_per_pitch < 1 or cells < 1:
        raise ModelParameterError("rails_per_pitch and cells must be >= 1")

    if rails_per_pitch == 1:
        solution = _solve_strip_drops(
            current_density_a_m2 * bump_pitch_m, sheet_resistance,
            width_m, bump_pitch_m, 200, solver="grid-2d",
            name="pdn-grid-2d")
        drops = solution.x
        return GridSolution(
            worst_drop_v=float(np.max(drops)),
            mean_drop_v=float(np.mean(drops)),
            n_nodes=int(drops.size),
            solver_method=solution.diagnostics.method,
            solver_iterations=solution.diagnostics.iterations,
            preconditioner=solution.diagnostics.preconditioner,
            setup_reused=solution.diagnostics.setup_reused,
        )

    n_side = rails_per_pitch * cells + 1
    node_pitch = bump_pitch_m / rails_per_pitch
    seg_res = sheet_resistance * node_pitch / width_m
    conductance = 1.0 / seg_res
    sink_per_node = current_density_a_m2 * node_pitch ** 2

    with span("pdn.assemble", solver="grid-2d",
              nodes=(n_side * n_side - (cells + 1) ** 2)):
        matrix, n_unknown = _mesh_laplacian(n_side, rails_per_pitch,
                                            conductance)
        rhs = np.full(n_unknown, sink_per_node)
    add_counter("pdn.unknowns", n_unknown)
    observe("pdn.system_unknowns", n_unknown, COUNT_BUCKETS,
            solver="grid-2d")
    solution = guarded_linear_solve(matrix, rhs, name="pdn-grid-2d",
                                    spd=True)
    drops = solution.x
    return GridSolution(
        worst_drop_v=float(np.max(drops)),
        mean_drop_v=float(np.mean(drops)),
        n_nodes=n_unknown,
        solver_method=solution.diagnostics.method,
        solver_iterations=solution.diagnostics.iterations,
        preconditioner=solution.diagnostics.preconditioner,
        setup_reused=solution.diagnostics.setup_reused,
    )


@dataclass(frozen=True)
class ValidationResult:
    """Analytic-vs-solver comparison at one node."""

    node_nm: int
    analytic_drop_v: float
    strip_drop_v: float
    grid_drop_v: float

    @property
    def strip_error(self) -> float:
        """Relative error of the analytic formula vs the 1-D solver."""
        return abs(self.analytic_drop_v - self.strip_drop_v) \
            / self.analytic_drop_v

    @property
    def grid_margin(self) -> float:
        """2-D mesh drop over the idealised 1-D analytic figure.

        Expected in [1, 3]: above 1 because only every pitch-th rail
        reaches a bump in the realistic mesh, and within the calibrated
        crowding allowance's neighbourhood.
        """
        return self.grid_drop_v / self.analytic_drop_v


def validate_analytic_model(node_nm: int,
                            scenario: PitchScenario =
                            PitchScenario.MIN_PITCH,
                            rails_per_pitch: int = 4) -> ValidationResult:
    """Cross-check the Fig. 5 rail sizing against the grid solvers.

    The rail width produced by :func:`required_rail_width_m` is fed back
    into both solvers.  The 1-D strip must land on the analytic
    distributed-drop formula (validating the p^2/8 result); the 2-D
    mesh -- the same per-direction metal split into ``rails_per_pitch``
    narrower rails, only every pitch-th of which reaches a bump -- runs
    above the idealised figure but inside the calibrated crowding
    allowance's neighbourhood (``grid_margin`` in [1, 3]).
    """
    record = ITRS_2000.node(node_nm)
    pitch = units.um(record.min_bump_pitch_um
                     if scenario is PitchScenario.MIN_PITCH
                     else record.itrs_bump_pitch_um)
    width = required_rail_width_m(node_nm, scenario)
    density = hotspot_current_density_a_m2(record)
    current_per_m = density * pitch
    sheet = record.top_metal_sheet_resistance
    analytic = current_per_m * sheet * pitch ** 2 / (8.0 * width)
    strip = solve_rail_strip(current_per_m, sheet, width, pitch)
    grid = solve_power_grid_2d(density, sheet, width / rails_per_pitch,
                               pitch, rails_per_pitch=rails_per_pitch)
    return ValidationResult(
        node_nm=node_nm,
        analytic_drop_v=analytic,
        strip_drop_v=strip,
        grid_drop_v=grid.worst_drop_v,
    )
