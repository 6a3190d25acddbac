"""Multilevel preconditioner and reuse cache: correctness, policy,
invalidation, and fork safety."""

import multiprocessing
import os

import numpy as np
import pytest
from scipy.sparse import csr_matrix, identity
from scipy.sparse.linalg import LinearOperator, cg

from repro.errors import CalibrationError, ReproError
from repro.reliability.guard import (
    AMG_MIN_UNKNOWNS,
    DENSE_FALLBACK_MAX_BYTES,
    _cg_tolerance,
    guarded_linear_solve,
)
from repro.reliability.precond import (
    PreconditionerCache,
    build_multilevel,
    jacobi_preconditioner,
    sparsity_fingerprint,
)


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


def test_preconditioner_env_override(monkeypatch):
    matrix = _mesh(8, 4)
    rhs = np.ones(matrix.shape[0])
    monkeypatch.setenv("REPRO_PRECONDITIONER", "amg")
    result = guarded_linear_solve(matrix, rhs, name="precond-env",
                                  spd=True)
    assert result.diagnostics.preconditioner == "amg"


def test_unknown_preconditioner_rejected():
    matrix = _mesh(8, 4)
    rhs = np.ones(matrix.shape[0])
    with pytest.raises(ValueError):
        guarded_linear_solve(matrix, rhs, name="precond-bad",
                             spd=True, preconditioner="cholesky")


@pytest.mark.parametrize("value", ["none", "amgg"])
def test_unknown_preconditioner_env_rejected(monkeypatch, value):
    """A typo, or the removed ``none`` rung, is an error naming the
    allowed values instead of a silent fall back to ``auto``."""
    matrix = _mesh(8, 4)
    rhs = np.ones(matrix.shape[0])
    monkeypatch.setenv("REPRO_PRECONDITIONER", value)
    with pytest.raises(ReproError, match="auto, jacobi, amg"):
        guarded_linear_solve(matrix, rhs, name="precond-env-bad",
                             spd=True)


def test_dense_fallback_is_memory_capped():
    # A singular system one row past the dense memory cap: the old
    # policy allocated an n^2 dense matrix (OOM-prone at scale); the
    # new policy refuses and raises the structured error instead.
    n = int((DENSE_FALLBACK_MAX_BYTES // 8) ** 0.5) + 1
    singular = csr_matrix((n, n))
    with pytest.raises(CalibrationError) as excinfo:
        guarded_linear_solve(singular, np.ones(n),
                             name="precond-dense-cap",
                             dense_fallback_max=n + 1)
    assert excinfo.value.fallback is None  # dense never attempted


def test_solver_reuse_across_guarded_solves():
    # Two guarded solves over the same structure: the second must hit
    # the fingerprint cache (setup_reused) and still satisfy rtol.
    from repro.reliability.precond import PRECONDITIONER_CACHE

    PRECONDITIONER_CACHE.clear()
    matrix = _mesh(16, 16)
    rhs = np.full(matrix.shape[0], 2e-3)
    cold = guarded_linear_solve(matrix, rhs, name="precond-reuse",
                                spd=True, preconditioner="amg")
    rescaled = matrix.copy()
    rescaled.data = rescaled.data * 1.5
    warm = guarded_linear_solve(rescaled, rhs, name="precond-reuse",
                                spd=True, preconditioner="amg")
    assert not cold.diagnostics.setup_reused
    assert warm.diagnostics.setup_reused
    assert warm.diagnostics.residual <= 1e-8
    assert np.allclose(warm.x, cold.x / 1.5, rtol=1e-6)
