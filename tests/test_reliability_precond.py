"""Multilevel preconditioner and reuse cache: correctness, policy,
invalidation, and fork safety."""

import multiprocessing
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import cho_factor
from scipy.sparse import coo_matrix, csr_matrix, identity
from scipy.sparse.linalg import LinearOperator, cg, spsolve

from repro.errors import CalibrationError
from repro.reliability import guard, precond
from repro.reliability.guard import (
    AMG_MIN_UNKNOWNS,
    DENSE_FALLBACK_MAX_BYTES,
    _cg_tolerance,
    guarded_linear_solve,
)
from repro.reliability.precond import (
    JACOBI_OMEGA,
    PRECONDITIONER_CACHE,
    PreconditionerCache,
    build_multilevel,
    jacobi_preconditioner,
    sparsity_fingerprint,
)
from tests import precond_oracle


def _mesh(rails, cells, conductance=1.0):
    from repro.pdn.grid import _mesh_laplacian

    return _mesh_laplacian(rails * cells + 1, rails, conductance)[0]


# -- fingerprints -----------------------------------------------------


def test_fingerprint_ignores_values():
    matrix = _mesh(4, 4)
    rescaled = matrix.copy()
    rescaled.data = rescaled.data * 3.7
    assert sparsity_fingerprint(matrix) \
        == sparsity_fingerprint(rescaled)


def test_fingerprint_tracks_structure():
    assert sparsity_fingerprint(_mesh(4, 4)) \
        != sparsity_fingerprint(_mesh(4, 5))


# -- multilevel hierarchy ---------------------------------------------


def test_multilevel_coarsens_with_bounded_complexity():
    matrix = _mesh(8, 8)  # 4144 unknowns, uniform conductances
    preconditioner = build_multilevel(matrix)
    assert preconditioner is not None
    assert len(preconditioner.levels) >= 1
    # Stencil growth under control: the classic AMG health number.
    assert preconditioner.operator_complexity < 3.0


def test_multilevel_preconditioned_cg_converges_fast():
    matrix = _mesh(8, 8)
    preconditioner = build_multilevel(matrix)
    rhs = np.ones(matrix.shape[0])
    iterations = 0

    def count(_):
        nonlocal iterations
        iterations += 1

    x, info = cg(matrix, rhs, rtol=1e-10, atol=0.0, maxiter=100,
                 M=LinearOperator(matrix.shape,
                                  matvec=preconditioner.apply),
                 callback=count)
    assert info == 0
    assert iterations < 60  # Jacobi alone needs hundreds here
    residual = np.linalg.norm(matrix @ x - rhs) / np.linalg.norm(rhs)
    assert residual < 1e-9


def test_multilevel_rejects_non_spd_diagonal():
    matrix = csr_matrix(np.diag([1.0, -1.0, 1.0]))
    assert build_multilevel(matrix) is None


def test_jacobi_rejects_non_spd_diagonal():
    matrix = csr_matrix(np.diag([1.0, 0.0]))
    assert jacobi_preconditioner(matrix) is None


def test_multilevel_small_matrix_is_dense_only():
    # Below the coarse cutoff there is nothing to coarsen: the
    # "hierarchy" is a bare dense factorization, still a valid apply.
    matrix = (identity(32, format="csr") * 2.0).tocsr()
    preconditioner = build_multilevel(matrix)
    assert preconditioner is not None
    assert len(preconditioner.levels) == 0
    out = preconditioner.apply(np.ones(32))
    assert out == pytest.approx(np.full(32, 0.5))


# -- reuse cache ------------------------------------------------------


def test_cache_reuses_same_sparsity_mutated_values():
    cache = PreconditionerCache()
    matrix = _mesh(8, 4)
    first, reused, fingerprint = cache.get_or_build(matrix)
    assert first is not None and not reused

    # Non-uniform value mutation, same structure: setup is reused
    # as-is and CG still converges against the perturbed operator.
    perturbed = matrix.copy()
    perturbed.data = perturbed.data * (
        1.0 + 0.05 * np.cos(np.arange(perturbed.nnz)))
    perturbed = ((perturbed + perturbed.T) * 0.5).tocsr()
    second, reused, second_fingerprint = cache.get_or_build(perturbed)
    assert reused
    assert second_fingerprint == fingerprint
    assert second is first  # the very same hierarchy object

    rhs = np.ones(perturbed.shape[0])
    x, info = cg(perturbed, rhs, rtol=1e-9, atol=0.0, maxiter=200,
                 M=LinearOperator(perturbed.shape, matvec=second.apply))
    assert info == 0


def test_cache_scalar_rescale_is_exact():
    cache = PreconditionerCache()
    matrix = _mesh(8, 4)
    base, _, _ = cache.get_or_build(matrix)
    rescaled = matrix.copy()
    rescaled.data = rescaled.data * 4.0
    wrapped, reused, _ = cache.get_or_build(rescaled)
    assert reused
    probe = np.linspace(1.0, 2.0, matrix.shape[0])
    assert wrapped.apply(probe) \
        == pytest.approx(base.apply(probe) / 4.0)


def test_cache_rebuilds_on_sparsity_change():
    cache = PreconditionerCache()
    small, _, fp_small = cache.get_or_build(_mesh(8, 4))
    large, reused, fp_large = cache.get_or_build(_mesh(8, 5))
    assert not reused
    assert fp_small != fp_large
    assert large is not small
    assert len(cache) == 2


def test_cache_bounded_eviction():
    cache = PreconditionerCache(max_entries=2)
    for cells in (3, 4, 5):
        cache.get_or_build(_mesh(8, cells))
    assert len(cache) == 2


def test_cache_fork_safety_rearms_lock_and_survives():
    cache = PreconditionerCache()
    matrix = _mesh(8, 4)
    cache.get_or_build(matrix)

    def child(queue):
        # The forked child inherits the warm cache; a hit must work
        # with the re-armed lock, and must not deadlock.
        cache._after_fork()
        _, reused, _ = cache.get_or_build(matrix)
        queue.put((reused, len(cache)))

    context = multiprocessing.get_context("fork")
    queue = context.Queue()
    process = context.Process(target=child, args=(queue,))
    process.start()
    reused, size = queue.get(timeout=30)
    process.join(timeout=30)
    assert process.exitcode == 0
    assert reused  # warm parent entries visible after fork
    assert size == 1
    assert len(cache) == 1  # parent copy untouched by the child


def test_cache_pid_guard_rearms_without_hook():
    cache = PreconditionerCache()
    cache.get_or_build(_mesh(8, 4))
    stale_lock = cache._lock
    cache._pid = 0  # simulate a fork path that skipped the hook
    assert len(cache) == 1  # _guard() re-arms transparently
    assert cache._lock is not stale_lock
    assert cache._pid == os.getpid()


# -- guard policy -----------------------------------------------------


def test_cg_tolerance_respects_caller_rtol():
    # Old policy clamped to min(1e-10, rtol * 1e-2): a caller asking
    # for 1e-4 was silently driven two million times tighter.
    assert _cg_tolerance(1e-4, 4096) == pytest.approx(1e-6)


def test_cg_tolerance_floors_at_float64_noise():
    # At huge n the old fixed 1e-10 target sits below the rounding
    # floor, so CG burned its budget and reported a spurious miss.
    assert _cg_tolerance(1e-8, 10 ** 9) > 1e-10


def test_auto_ladder_picks_amg_at_scale():
    matrix = _mesh(16, 16)  # 66272 unknowns > AMG_MIN_UNKNOWNS
    assert matrix.shape[0] >= AMG_MIN_UNKNOWNS
    rhs = np.full(matrix.shape[0], 1e-3)
    result = guarded_linear_solve(matrix, rhs, name="precond-auto",
                                  spd=True)
    assert result.diagnostics.method == "cg"
    assert result.diagnostics.preconditioner == "amg"
    assert result.diagnostics.fallback is None
    assert result.diagnostics.setup_s is not None
    assert result.diagnostics.solve_s is not None
    assert result.diagnostics.iterations < 120


def test_auto_ladder_picks_jacobi_below_threshold():
    matrix = _mesh(8, 4)
    rhs = np.ones(matrix.shape[0])
    result = guarded_linear_solve(matrix, rhs, name="precond-auto",
                                  spd=True)
    assert result.diagnostics.method == "cg"
    assert result.diagnostics.preconditioner == "jacobi"


def test_dense_fallback_is_memory_capped():
    # A singular system one row past the dense memory cap: the old
    # policy allocated an n^2 dense matrix (OOM-prone at scale); the
    # new policy refuses and raises the structured error instead.
    n = int((DENSE_FALLBACK_MAX_BYTES // 8) ** 0.5) + 1
    singular = csr_matrix((n, n))
    with pytest.raises(CalibrationError) as excinfo:
        guarded_linear_solve(singular, np.ones(n),
                             name="precond-dense-cap")
    assert excinfo.value.fallback is None  # dense never attempted


def test_solver_reuse_across_guarded_solves():
    # Two guarded solves over the same structure: the second must hit
    # the fingerprint cache (setup_reused) and still satisfy rtol.
    from repro.reliability.precond import PRECONDITIONER_CACHE

    PRECONDITIONER_CACHE.clear()
    matrix = _mesh(16, 16)
    rhs = np.full(matrix.shape[0], 2e-3)
    cold = guarded_linear_solve(matrix, rhs, name="precond-reuse",
                                spd=True)
    rescaled = matrix.copy()
    rescaled.data = rescaled.data * 1.5
    warm = guarded_linear_solve(rescaled, rhs, name="precond-reuse",
                                spd=True)
    assert not cold.diagnostics.setup_reused
    assert warm.diagnostics.setup_reused
    assert warm.diagnostics.residual <= 1e-8
    assert np.allclose(warm.x, cold.x / 1.5, rtol=1e-6)


# -- AMG-CG against the direct oracle ---------------------------------


@st.composite
def grounded_laplacians(draw):
    """A grounded SPD graph Laplacian and a right-hand side.

    A rows x cols mesh (300-3,000 nodes) plus up to n/10 random chords,
    every edge conductance drawn over three decades, and 1-8 nodes tied
    to ground (the supply pads) through conductances of the same
    spread.  numpy fills the bulk from a drawn seed.
    """
    rows = draw(st.integers(6, 50))
    cols = draw(st.integers(-(-300 // rows), 3000 // rows))
    pads = draw(st.integers(1, 8))
    chord_share = draw(st.floats(0.0, 0.1))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = rows * cols
    grid = np.arange(n).reshape(rows, cols)
    chords = rng.integers(0, n, size=(2, int(chord_share * n)))
    chords = chords[:, chords[0] != chords[1]]
    src = np.concatenate([grid[:, :-1].ravel(), grid[:-1, :].ravel(),
                          chords[0]])
    dst = np.concatenate([grid[:, 1:].ravel(), grid[1:, :].ravel(),
                          chords[1]])
    g = 10.0 ** rng.uniform(0.0, 3.0, src.size)
    ground = rng.choice(n, pads, replace=False)
    g_ground = 10.0 ** rng.uniform(0.0, 3.0, pads)
    matrix = coo_matrix(
        (np.concatenate([-g, -g, g, g, g_ground]),
         (np.concatenate([src, dst, src, dst, ground]),
          np.concatenate([dst, src, src, dst, ground]))),
        shape=(n, n)).tocsr()
    return matrix, rng.standard_normal(n)


@settings(max_examples=25, deadline=None)
@given(grounded_laplacians())
def test_amg_cg_agrees_with_direct_solve(system):
    """Multilevel-preconditioned CG lands within the guard's max-norm
    rtol of the sparse factorization, on a fresh setup every time."""
    matrix, rhs = system
    PRECONDITIONER_CACHE.clear()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(guard, "AMG_MIN_UNKNOWNS", 0)
        result = guarded_linear_solve(matrix, rhs,
                                      name="precond-property", spd=True)
    assert result.diagnostics.method == "cg"
    assert result.diagnostics.preconditioner == "amg"
    assert not result.diagnostics.setup_reused
    direct = spsolve(matrix.tocsc(), rhs)
    assert np.max(np.abs(result.x - direct)) \
        <= 1e-8 * np.max(np.abs(direct))


# -- fast kernels against their oracles -------------------------------


def _build_recording_matches(matrix):
    """``build_multilevel(matrix)`` plus every graph it matched."""
    graphs = []
    match_pairs = precond._match_pairs

    def recording(csr):
        aggregate = match_pairs(csr)
        graphs.append((csr, aggregate))
        return aggregate

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(precond, "_match_pairs", recording)
        built = build_multilevel(matrix)
    return built, graphs


def _assert_matches_oracle(graphs):
    assert graphs
    for csr, aggregate in graphs:
        assert np.array_equal(aggregate,
                              precond_oracle.match_pairs(csr)), csr.shape


@pytest.fixture(scope="module", params=["E-S1", "E-S4"])
def experiment_hierarchy(request):
    """The E-S1 or E-S4 mesh (first sweep point), its hierarchy and
    every graph matched while building it."""
    from repro.analysis import scaling
    from repro.pdn.grid import _mesh_laplacian

    rails, cells = {
        "E-S1": (scaling.SCALE_RAILS_PER_PITCH, scaling.SCALE_CELLS),
        "E-S4": (scaling.SWEEP_RAILS_PER_PITCH, scaling.SWEEP_CELLS),
    }[request.param]
    _, sheet, width, pitch = scaling._grid_inputs()
    # solve_power_grid_2d's arithmetic, operation for operation
    node_pitch = pitch / rails
    conductance = 1.0 / (sheet * node_pitch / (width / rails))
    matrix, _ = _mesh_laplacian(rails * cells + 1, rails, conductance)
    built, graphs = _build_recording_matches(matrix)
    return matrix, built, graphs


@st.composite
def matching_graphs(draw):
    """A grounded Laplacian as drawn, with explicit zeros stored in
    place of some couplings, or with every conductance rounded to an
    integer (exact ties in the data)."""
    matrix, _ = draw(grounded_laplacians())
    variant = draw(st.sampled_from(("drawn", "zeros", "integer")))
    matrix = matrix.copy()
    if variant == "zeros":
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
        rows = np.repeat(np.arange(matrix.shape[0]),
                         np.diff(matrix.indptr))
        coupling = np.flatnonzero(matrix.indices != rows)
        matrix.data[rng.choice(coupling, coupling.size // 5,
                               replace=False)] = 0.0
    elif variant == "integer":
        matrix.data = np.round(matrix.data)
    return matrix


@settings(max_examples=40, deadline=None)
@given(matching_graphs())
def test_incremental_matching_equals_full_rematching(matrix):
    """Every pair round of every level aggregates exactly as the
    matcher that recomputes all proposals each round."""
    _, graphs = _build_recording_matches(matrix)
    _assert_matches_oracle(graphs)


def test_exact_strength_ties_go_to_the_first_entry():
    """Couplings scaled against the hash priorities so that every
    strength in every row is exactly 1.0: each proposal falls to the
    tie-break, the first entry in CSR order, in every round."""
    n = 400
    factor = 1.0 + 1e-6 * precond._node_priorities(n)
    value = 1.0 / factor
    for j in range(n):
        while value[j] * factor[j] != 1.0:
            value[j] = np.nextafter(
                value[j], 2.0 if value[j] * factor[j] < 1.0 else 0.0)
    rows = np.repeat(np.arange(n), 3)
    cols = (rows + np.tile([1, -1, 7], n)) % n
    matrix = csr_matrix(
        (np.concatenate([-value[cols], np.full(n, 4.0)]),
         (np.concatenate([rows, np.arange(n)]),
          np.concatenate([cols, np.arange(n)]))), shape=(n, n))
    strengths = precond._strength_lists(matrix)[3]
    assert np.all(strengths == 1.0)
    _assert_matches_oracle([(matrix, precond._match_pairs(matrix))])


def test_incremental_matching_on_experiment_meshes(
        experiment_hierarchy):
    _, built, graphs = experiment_hierarchy
    assert built is not None
    assert len(graphs) == precond.PAIR_ROUNDS * len(built.levels)
    _assert_matches_oracle(graphs)


def test_hierarchy_arrays_equal_the_earlier_setup(experiment_hierarchy):
    """Every operator, prolongator and restrictor array, with its
    dtype, and the smoother scaling of every level."""
    matrix, built, _ = experiment_hierarchy
    levels, coarsest, complexity = precond_oracle.build_levels(matrix)
    assert len(built.levels) == len(levels)
    for level, (operator, inv_diag, prolongator, restrictor) in zip(
            built.levels, levels):
        for ours, theirs in ((level.matrix, operator),
                             (level.prolongator, prolongator),
                             (level.restrictor, restrictor)):
            assert ours.shape == theirs.shape
            for name in ("indptr", "indices", "data"):
                assert getattr(ours, name).dtype \
                    == getattr(theirs, name).dtype
                assert np.array_equal(getattr(ours, name),
                                      getattr(theirs, name))
        assert np.array_equal(level.omega_inv_diag,
                              JACOBI_OMEGA * inv_diag)
    assert np.array_equal(built.coarse_factor[0],
                          cho_factor(coarsest.toarray())[0])
    assert built.operator_complexity == complexity


def test_in_place_cycle_equals_allocating_cycle(experiment_hierarchy):
    matrix, built, _ = experiment_hierarchy
    rng = np.random.default_rng(11)
    for vector in (np.ones(matrix.shape[0]),
                   rng.standard_normal(matrix.shape[0])):
        expected = precond_oracle.cycle(built, 0, vector)
        before = vector.copy()
        assert np.array_equal(built.apply(vector), expected)
        assert np.array_equal(vector, before)  # rhs left untouched
