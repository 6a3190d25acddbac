"""Sparse grid solvers and the analytic-model validation."""

import pytest
from hypothesis import given, settings, strategies as st

from repro import units
from repro.analysis.scaling import scaling_s1_grid
from repro.errors import ModelParameterError
from repro.itrs import ITRS_2000
from repro.pdn.bacpac import (
    PitchScenario,
    hotspot_current_density_a_m2,
    required_rail_width_m,
)
from repro.pdn.grid import (
    solve_power_grid_2d,
    solve_rail_strip,
    validate_analytic_model,
)


class TestRailStrip:
    def test_matches_distributed_formula(self):
        # Mid-span drop of a uniformly loaded rail: j Rsq L^2 / (8 W).
        j, rsq, width, span = 300.0, 0.1, 1e-6, 100e-6
        analytic = j * rsq * span ** 2 / (8.0 * width)
        solved = solve_rail_strip(j, rsq, width, span, n_segments=400)
        assert solved == pytest.approx(analytic, rel=1e-3)

    def test_exact_at_any_even_discretisation(self):
        # Uniform loading makes the discrete mid-span drop coincide
        # with the continuous p^2/8 result at every even segment count.
        j, rsq, width, span = 300.0, 0.1, 1e-6, 100e-6
        analytic = j * rsq * span ** 2 / (8.0 * width)
        for n_segments in (4, 10, 50, 200):
            solved = solve_rail_strip(j, rsq, width, span,
                                      n_segments=n_segments)
            assert solved == pytest.approx(analytic, rel=1e-9)

    @settings(max_examples=20, deadline=None)
    @given(width_factor=st.floats(min_value=0.5, max_value=4.0))
    def test_drop_inverse_in_width(self, width_factor):
        j, rsq, span = 200.0, 0.1, 80e-6
        base = solve_rail_strip(j, rsq, 1e-6, span)
        scaled = solve_rail_strip(j, rsq, width_factor * 1e-6, span)
        assert scaled == pytest.approx(base / width_factor, rel=1e-6)

    def test_validation(self):
        with pytest.raises(ModelParameterError):
            solve_rail_strip(-1.0, 0.1, 1e-6, 1e-4)
        with pytest.raises(ModelParameterError):
            solve_rail_strip(1.0, 0.1, 1e-6, 1e-4, n_segments=1)


class TestGrid2d:
    def test_solution_shape(self):
        result = solve_power_grid_2d(1e6, 0.1, 1e-6, 80e-6,
                                     rails_per_pitch=4, cells=2)
        assert result.worst_drop_v > result.mean_drop_v > 0
        assert result.n_nodes > 0

    def test_more_metal_less_drop(self):
        thin = solve_power_grid_2d(1e6, 0.1, 0.5e-6, 80e-6)
        thick = solve_power_grid_2d(1e6, 0.1, 2e-6, 80e-6)
        assert thick.worst_drop_v < thin.worst_drop_v

    def test_drop_linear_in_current(self):
        one = solve_power_grid_2d(1e6, 0.1, 1e-6, 80e-6)
        two = solve_power_grid_2d(2e6, 0.1, 1e-6, 80e-6)
        assert two.worst_drop_v == pytest.approx(2.0 * one.worst_drop_v)

    def test_denser_bumps_less_drop(self):
        sparse = solve_power_grid_2d(1e6, 0.1, 1e-6, 160e-6,
                                     rails_per_pitch=8, cells=1)
        dense = solve_power_grid_2d(1e6, 0.1, 1e-6, 80e-6,
                                    rails_per_pitch=4, cells=2)
        assert dense.worst_drop_v < sparse.worst_drop_v

    def test_validation(self):
        with pytest.raises(ModelParameterError):
            solve_power_grid_2d(1e6, 0.1, 1e-6, 80e-6,
                                rails_per_pitch=0)


class TestScalingMesh:
    @pytest.mark.parametrize("rails_per_pitch", [2, 4, 8])
    def test_densifying_35nm_mesh(self, rails_per_pitch):
        record = ITRS_2000.node(35)
        width = required_rail_width_m(35, PitchScenario.MIN_PITCH)
        solution = solve_power_grid_2d(
            hotspot_current_density_a_m2(record),
            record.top_metal_sheet_resistance, width / rails_per_pitch,
            units.um(record.min_bump_pitch_um),
            rails_per_pitch=rails_per_pitch, cells=4)
        assert solution.worst_drop_v > solution.mean_drop_v > 0

    def test_e_s1_mesh(self):
        # E-S1: the cells=8, rails=8 bump patch of the solver tier.
        result = scaling_s1_grid()
        assert result["n_nodes"] == 4144
        assert result["worst_drop_v"] > result["mean_drop_v"] > 0


class TestVectorizedAssembly:
    def test_degenerate_single_rail_matches_strip(self):
        # rails_per_pitch=1 puts a bump at every rail crossing: the
        # mesh decouples into independent spans, each exactly the 1-D
        # strip carrying density * pitch per metre.  The historical
        # assembly produced an empty system here and failed.
        density, sheet, width, pitch = 1e6, 0.1, 1e-6, 80e-6
        grid = solve_power_grid_2d(density, sheet, width, pitch,
                                   rails_per_pitch=1)
        strip = solve_rail_strip(density * pitch, sheet, width, pitch)
        assert grid.worst_drop_v == strip
        assert 0 < grid.mean_drop_v < grid.worst_drop_v

    def test_matches_per_node_reference_assembly(self):
        # The vectorized CSR assembly must reproduce the per-node
        # lil_matrix construction it replaced: the same entries, and
        # drops within 1e-9.
        import numpy as np
        from scipy.sparse import lil_matrix
        from scipy.sparse.linalg import spsolve

        from repro.pdn.grid import _mesh_laplacian

        density, sheet, width, pitch = 1e6, 0.1, 1e-6, 80e-6
        rails, cells = 4, 2
        n_side = rails * cells + 1
        node_pitch = pitch / rails
        seg_res = sheet * node_pitch / width
        conductance = 1.0 / seg_res
        sink = density * node_pitch ** 2

        index: dict[tuple[int, int], int] = {}
        for ix in range(n_side):
            for iy in range(n_side):
                if ix % rails == 0 and iy % rails == 0:
                    continue  # bump node: Dirichlet, eliminated
                index[(ix, iy)] = len(index)
        matrix = lil_matrix((len(index), len(index)))
        rhs = np.full(len(index), sink)
        for (ix, iy), row in index.items():
            for jx, jy in ((ix + 1, iy), (ix - 1, iy),
                           (ix, iy + 1), (ix, iy - 1)):
                if not (0 <= jx < n_side and 0 <= jy < n_side):
                    continue
                matrix[row, row] += conductance
                neighbour = index.get((jx, jy))
                if neighbour is not None:
                    matrix[row, neighbour] -= conductance
        drops = spsolve(matrix.tocsr(), rhs)

        assembled, n_unknown = _mesh_laplacian(n_side, rails, conductance)
        assert n_unknown == len(index)
        reference = matrix.tocsr()
        assert np.array_equal(assembled.indptr, reference.indptr)
        assert np.array_equal(assembled.indices, reference.indices)
        assert np.all(assembled.data == reference.data)

        result = solve_power_grid_2d(density, sheet, width, pitch,
                                     rails_per_pitch=rails, cells=cells)
        assert result.n_nodes == len(index)
        assert result.worst_drop_v == pytest.approx(
            float(np.max(drops)), abs=1e-9)
        assert result.mean_drop_v == pytest.approx(
            float(np.mean(drops)), abs=1e-9)

    @pytest.mark.parametrize("rails", range(2, 33))
    def test_csr_stencil_matches_coo_assembly(self, rails):
        # The direct-CSR stencil against the COO-triplet assembly it
        # replaced: every array and dtype the same, cells 1-10.
        import numpy as np

        from repro.pdn.grid import _mesh_laplacian
        from tests.precond_oracle import mesh_laplacian

        conductance = 1.0 / 2.9e-3
        for cells in range(1, 11):
            n_side = rails * cells + 1
            matrix, n_unknown = _mesh_laplacian(n_side, rails,
                                                conductance)
            reference, n_reference = mesh_laplacian(n_side, rails,
                                                    conductance)
            assert n_unknown == n_reference
            assert matrix.shape == reference.shape
            for name in ("indptr", "indices", "data"):
                ours, theirs = (getattr(matrix, name),
                                getattr(reference, name))
                assert ours.dtype == theirs.dtype, (name, cells)
                assert np.array_equal(ours, theirs), (name, cells)


class TestValidateModel:
    def test_strip_agrees_exactly(self):
        result = validate_analytic_model(35)
        assert result.strip_error < 0.02

    def test_mesh_within_crowding_neighbourhood(self):
        result = validate_analytic_model(35)
        assert 1.0 < result.grid_margin < 3.0

    @pytest.mark.parametrize("node_nm", [180, 70, 35])
    def test_all_nodes_validate(self, node_nm):
        result = validate_analytic_model(node_nm)
        assert result.strip_error < 0.02
        assert result.grid_drop_v > 0

    def test_itrs_scenario_also_validates(self):
        result = validate_analytic_model(50, PitchScenario.ITRS_PADS)
        assert result.strip_error < 0.02


class TestGuardedSolve:
    def test_grid_drops_are_always_finite(self):
        import numpy as np
        solution = solve_power_grid_2d(1e6, 0.1, 1e-6, 80e-6)
        assert np.isfinite(solution.worst_drop_v)
        assert np.isfinite(solution.mean_drop_v)

    def test_singular_system_raises_structured(self):
        # Zero conductance everywhere (degenerate discretisation) must
        # surface as a CalibrationError, not a NaN drop.
        from scipy.sparse import csr_matrix
        import numpy as np
        from repro.errors import CalibrationError
        from repro.reliability import guarded_linear_solve
        singular = csr_matrix(np.zeros((3, 3)))
        with pytest.raises(CalibrationError, match="pdn"):
            guarded_linear_solve(singular, np.ones(3), name="pdn-test")


class TestSolverDiagnostics:
    def test_mesh_reports_cg_and_preconditioner(self):
        grid = solve_power_grid_2d(1e6, 0.1, 1e-6, 80e-6,
                                   rails_per_pitch=4, cells=4)
        assert grid.solver_method == "cg"
        assert grid.preconditioner == "jacobi"  # auto, below threshold
        assert grid.solver_iterations > 0

    def test_amg_and_jacobi_rungs_agree(self, monkeypatch):
        # The size picks the rung; lowering the threshold forces the
        # multilevel one onto the same small mesh.
        from repro.reliability import guard

        jacobi = solve_power_grid_2d(1e6, 0.1, 1e-6, 80e-6,
                                     rails_per_pitch=4, cells=4)
        monkeypatch.setattr(guard, "AMG_MIN_UNKNOWNS", 0)
        amg = solve_power_grid_2d(1e6, 0.1, 1e-6, 80e-6,
                                  rails_per_pitch=4, cells=4)
        assert jacobi.preconditioner == "jacobi"
        assert amg.preconditioner == "amg"
        assert amg.worst_drop_v == pytest.approx(jacobi.worst_drop_v,
                                                 rel=1e-6)
        assert amg.mean_drop_v == pytest.approx(jacobi.mean_drop_v,
                                                rel=1e-6)
