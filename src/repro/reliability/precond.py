"""Multilevel preconditioning and setup reuse for large SPD solves.

The Jacobi-CG path added for the E-S1 mesh (~4k unknowns) does not
survive the jump to million-unknown power grids: the condition number
of a 2-D mesh Laplacian grows linearly with the unknown count, so
Jacobi-preconditioned CG needs ``O(sqrt(n))`` iterations and the
per-sweep-point cost explodes.  This module supplies the two
mechanisms that make the large tiers tractable:

* :class:`MultilevelPreconditioner` -- a smoothed-aggregation
  algebraic-multigrid V-cycle built with nothing but NumPy/SciPy.
  Aggregation is three rounds of vectorized mutual heavy-edge
  matching (aggregates of ~8 nodes, so the hierarchy shrinks ~8x per
  level and Galerkin stencil growth stays contained), the tentative
  prolongator is smoothed with one weighted-Jacobi step, coarse
  operators are Galerkin products, and the coarsest level is a dense
  Cholesky factorization.  Matching uses Luby-style deterministic
  hash priorities to break strength ties -- uniform-conductance grids
  have *all-equal* off-diagonals, and naive heaviest-edge matching
  degenerates to singletons there.  Each graph's strength lists are
  built once, and after the first round only the rows whose choice
  was just matched propose again: the free set only shrinks, so every
  other choice stands.  The V(1,1) cycle with symmetric Jacobi
  smoothing is itself symmetric positive definite, so it is a valid
  CG preconditioner; iteration counts stay bounded (tens, not
  thousands) as the mesh densifies.  Each level keeps
  ``omega * (1 / diag)`` precomputed and the cycle updates its
  iterate and residual in place, in the operation order of the
  allocating form, so the hierarchy and every cycle are the same to
  the last bit as a full rematching and an allocating cycle
  (``tests/precond_oracle.py``).

* :class:`PreconditionerCache` -- a fork-safe, bounded, in-process
  reuse cache keyed by the matrix **sparsity fingerprint** (shape +
  CSR index structure, not values).  Sweeps over Vdd / current /
  sheet-resistance re-solve systems with identical structure and
  merely rescaled or perturbed values; re-running the multilevel
  setup (aggregation + Galerkin products, the dominant cost) for each
  point is pure waste.  On a fingerprint hit the cached hierarchy is
  reused as-is -- a preconditioner built from slightly different
  values is still SPD and CG still verifies the true residual, so
  reuse can never weaken the solve guarantee.  The common exact case
  (new matrix is a scalar multiple of the cached one, e.g. a uniform
  conductance change) is detected and compensated exactly, so those
  sweeps lose nothing to staleness.
"""

from __future__ import annotations

import hashlib
import os
import threading
from dataclasses import dataclass, field
from typing import Any

import numpy as np

#: Damping for the weighted-Jacobi smoother and prolongator smoothing;
#: 2/3 is the classic choice for Laplacian-like spectra.
JACOBI_OMEGA = 2.0 / 3.0

#: Stop coarsening once a level is at most this many unknowns and
#: factor it densely instead.
COARSE_MAX_UNKNOWNS = 192

#: Hierarchy depth guard -- a grid that refuses to coarsen (pathological
#: structure) stops here rather than recursing forever.
MAX_LEVELS = 24

#: Pairwise-matching rounds composed per coarsening step: 3 rounds of
#: pair matching build ~8-node aggregates (factor-8 coarsening), which
#: keeps the smoothed-prolongator Galerkin stencil growth -- and hence
#: operator complexity -- bounded near 1.
PAIR_ROUNDS = 3

#: Luby matching iterations inside one pairwise round.  Each iteration
#: matches a constant fraction of the still-unmatched nodes, so a few
#: rounds leave only stragglers (absorbed into neighbours afterwards).
MATCH_ROUNDS = 4

#: Reuse-cache capacity: setups for the most recent distinct sparsity
#: patterns.  Each entry holds a full hierarchy (a small multiple of
#: the fine-matrix storage), so the bound is deliberately small.
CACHE_MAX_ENTRIES = 4


def sparsity_fingerprint(matrix: Any) -> str:
    """Digest of a CSR matrix's sparsity structure (values excluded).

    Two matrices share a fingerprint exactly when they have the same
    shape and the same CSR index structure -- the invariant of a
    parameter sweep that rebuilds the same grid with different
    conductances / currents.
    """
    csr = matrix.tocsr() if not _is_csr(matrix) else matrix
    digest = hashlib.blake2b(digest_size=16)
    digest.update(np.asarray(csr.shape, dtype=np.int64).tobytes())
    digest.update(np.ascontiguousarray(csr.indptr).tobytes())
    digest.update(np.ascontiguousarray(csr.indices).tobytes())
    return digest.hexdigest()


def _is_csr(matrix: Any) -> bool:
    return getattr(matrix, "format", None) == "csr"


@dataclass(frozen=True)
class JacobiPreconditioner:
    """Diagonal (Jacobi) preconditioner: ``apply(v) = v / diag``."""

    inv_diag: np.ndarray

    kind = "jacobi"

    def apply(self, vector: np.ndarray) -> np.ndarray:
        return self.inv_diag * vector


def jacobi_preconditioner(matrix: Any) -> JacobiPreconditioner | None:
    """Jacobi setup; ``None`` when the diagonal is not SPD-plausible."""
    diag = np.asarray(matrix.diagonal(), dtype=float)
    if not (np.all(np.isfinite(diag)) and np.all(diag > 0.0)):
        return None
    return JacobiPreconditioner(inv_diag=1.0 / diag)


@dataclass(frozen=True)
class _Level:
    """One multilevel hierarchy level above the coarse solve."""

    matrix: Any                 # csr, the level's operator
    omega_inv_diag: np.ndarray  # JACOBI_OMEGA * (1 / diag(matrix))
    prolongator: Any            # csr, coarse -> this level
    restrictor: Any             # csr, prolongator.T (precomputed)


@dataclass(frozen=True)
class MultilevelPreconditioner:
    """Smoothed-aggregation V(1,1)-cycle; symmetric, CG-compatible."""

    levels: tuple[_Level, ...]
    coarse_factor: Any        # scipy.linalg cho_factor of the coarsest A
    n_unknowns: int
    #: Total stored nonzeros across all operators over the fine nnz --
    #: the classic AMG "operator complexity" health number.
    operator_complexity: float

    kind = "amg"

    def apply(self, vector: np.ndarray) -> np.ndarray:
        return self._cycle(0, vector)

    def _cycle(self, depth: int, rhs: np.ndarray) -> np.ndarray:
        from scipy.linalg import cho_solve

        if depth == len(self.levels):
            return cho_solve(self.coarse_factor, rhs)
        level = self.levels[depth]
        # Pre-smooth (one weighted-Jacobi step from the zero guess).
        # ``x`` and ``residual`` are updated in place, in the operation
        # order of the allocating form ``x + omega_inv_diag * (rhs -
        # A @ x)``, so every value is the same to the last bit.
        x = level.omega_inv_diag * rhs
        residual = level.matrix @ x
        np.subtract(rhs, residual, out=residual)
        # Coarse-grid correction.
        coarse = self._cycle(depth + 1, level.restrictor @ residual)
        x += level.prolongator @ coarse
        # Post-smooth (adjoint of the pre-smoother: cycle stays SPD).
        residual = level.matrix @ x
        np.subtract(rhs, residual, out=residual)
        residual *= level.omega_inv_diag
        x += residual
        return x


@dataclass(frozen=True)
class _ScaledPreconditioner:
    """Exact reuse wrapper: preconditioner of ``alpha * A`` from A's.

    If ``M`` approximates ``A^-1`` then ``M / alpha`` approximates
    ``(alpha A)^-1`` with *identical* spectral quality, so a uniformly
    rescaled sweep point reuses the cached hierarchy losslessly.
    """

    base: Any
    inv_scale: float

    @property
    def kind(self) -> str:
        return self.base.kind

    def apply(self, vector: np.ndarray) -> np.ndarray:
        return self.inv_scale * self.base.apply(vector)


def _node_priorities(n: int) -> np.ndarray:
    """Deterministic pseudo-random priorities in ``[0, 1)`` per node.

    A multiplicative hash of the node index (no RNG state, so results
    are reproducible and fork-independent).  Used to break strength
    ties: a uniform-conductance grid has all-equal off-diagonals, and
    without tie-breaking every node picks its first CSR neighbour --
    almost no mutual pairs form and aggregation collapses to
    singletons (observed: 102920 nodes -> 102880 "aggregates").
    """
    index = np.arange(n, dtype=np.uint64)
    hashed = index * np.uint64(0x9E3779B97F4A7C15)
    return (hashed >> np.uint64(11)).astype(np.float64) / float(1 << 53)


def _strength_lists(csr: Any) -> tuple[np.ndarray, ...]:
    """A graph's matching strengths: one list per row, in CSR order.

    ``(indptr, rows, neighbours, strength)``: CSR row pointers, each
    entry's row, its neighbour, and ``|a_ij|`` scaled by the hash
    priority of ``j``.  Diagonal entries and explicit zeros are
    dropped: a row proposes only along an edge of positive strength,
    so neither could ever be its choice.
    """
    n = csr.shape[0]
    indptr, indices, data = csr.indptr, csr.indices, csr.data
    rows = np.repeat(np.arange(n, dtype=indices.dtype), np.diff(indptr))
    keep = (indices != rows) & (data != 0)
    rows, neighbours = rows[keep], indices[keep]
    strength = np.abs(data[keep]).astype(float, copy=False)
    strength *= (1.0 + 1e-6 * _node_priorities(n))[neighbours]
    kept_indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=kept_indptr[1:])
    return kept_indptr, rows, neighbours, strength


def _first_strongest(n: int, rows: np.ndarray, neighbours: np.ndarray,
                     strength: np.ndarray) -> np.ndarray:
    """Per row: the neighbour at its first maximum in list order,
    ``-1`` unless that maximum is positive.

    ``rows`` is non-decreasing, so a row's first hit is the one whose
    predecessor lies in another row.
    """
    maxima = np.full(n, -np.inf)
    np.maximum.at(maxima, rows, strength)
    maxima[~(maxima > 0.0)] = np.nan  # equal to nothing: no proposal
    hits = np.flatnonzero(strength == maxima[rows])
    row_of_hit = rows[hits]
    first = np.diff(row_of_hit, prepend=-1) != 0
    choice = np.full(n, -1, dtype=np.int64)
    choice[row_of_hit[first]] = neighbours[hits[first]]
    return choice


def _strongest_among(subset: np.ndarray, admitted: np.ndarray,
                     indptr: np.ndarray, rows: np.ndarray,
                     neighbours: np.ndarray,
                     strength: np.ndarray) -> np.ndarray:
    """:func:`_first_strongest` of the ``subset`` rows, counting only
    neighbours that ``admitted`` marks."""
    starts = indptr[subset]
    counts = indptr[subset + 1] - starts
    offsets = np.cumsum(counts) - counts
    position = np.arange(int(counts.sum())) \
        + np.repeat(starts - offsets, counts)
    candidates = neighbours[position]
    return _first_strongest(
        subset.size, np.repeat(np.arange(subset.size), counts),
        candidates,
        np.where(admitted[candidates], strength[position], -np.inf))


def _match_pairs(csr: Any) -> np.ndarray:
    """Aggregate ids from Luby-style mutual heavy-edge matching.

    Repeated rounds: every still-unmatched node proposes to its
    strongest still-unmatched neighbour (ties broken by hash
    priority, then by CSR order); mutual proposals pair up.  The free
    set only shrinks, so a proposal whose target is still free stands:
    after the first round only rows whose target was just matched
    choose again.  Leftovers join a matched neighbour's aggregate;
    truly isolated nodes become singletons.
    """
    n = csr.shape[0]
    graph = _strength_lists(csr)
    aggregate = np.full(n, -1, dtype=np.int64)
    free = np.ones(n, dtype=bool)
    strongest = _first_strongest(n, *graph[1:])
    next_id = 0
    for round_ in range(MATCH_ROUNDS):
        proposing = np.flatnonzero(strongest >= 0)
        if round_:
            stale = proposing[~free[strongest[proposing]]]
            strongest[stale] = _strongest_among(stale, free, *graph)
            proposing = proposing[strongest[proposing] >= 0]
        target = strongest[proposing]
        mutual = (strongest[target] == proposing) & (proposing < target)
        pair_lo, pair_hi = proposing[mutual], target[mutual]
        if pair_lo.size == 0:
            break
        aggregate[pair_lo] = next_id + np.arange(pair_lo.size)
        aggregate[pair_hi] = aggregate[pair_lo]
        next_id += pair_lo.size
        free[pair_lo] = free[pair_hi] = False
        strongest[pair_lo] = strongest[pair_hi] = -1
    # Leftovers join their strongest already-matched neighbour.
    leftover = np.flatnonzero(free)
    if leftover.size:
        joined = _strongest_among(leftover, ~free, *graph)
        joins = joined >= 0
        aggregate[leftover[joins]] = aggregate[joined[joins]]
    rest = np.flatnonzero(aggregate < 0)
    aggregate[rest] = next_id + np.arange(rest.size)
    return aggregate


def _tentative_prolongator(aggregate: np.ndarray) -> Any:
    """Piecewise-constant prolongator with unit-norm columns.

    One entry per row, so the CSR arrays are the aggregate ids
    themselves: no COO sort.
    """
    from scipy.sparse import csr_matrix

    n = aggregate.size
    n_agg = int(aggregate.max()) + 1 if n else 0
    counts = np.bincount(aggregate, minlength=n_agg).astype(float)
    data = 1.0 / np.sqrt(counts[aggregate])
    return csr_matrix((data, aggregate, np.arange(n + 1)),
                      shape=(n, n_agg))


def _coarsen(csr: Any, inv_diag: np.ndarray
             ) -> tuple[Any, Any, Any] | None:
    """One coarsening step: (smoothed P, its transpose as CSR, Galerkin
    coarse A) or None."""
    n = csr.shape[0]
    # Every Galerkin product below converts its middle operand to
    # CSC; one shared copy does it once per level.
    csc = csr.tocsc()
    # Compose pairwise matchings on successively paired graphs:
    # PAIR_ROUNDS=3 yields ~8-node aggregates (factor-8 coarsening).
    aggregate = _match_pairs(csr)
    for _ in range(PAIR_ROUNDS - 1):
        tentative = _tentative_prolongator(aggregate)
        paired = (tentative.T @ csc @ tentative).tocsr()
        aggregate = _match_pairs(paired)[aggregate]
    n_coarse = int(aggregate.max()) + 1
    if n_coarse >= n:  # refused to coarsen; give up on this level
        return None
    tentative = _tentative_prolongator(aggregate)
    # One Jacobi smoothing pass widens the basis functions, which is
    # what turns plain aggregation into a mesh-size-robust hierarchy.
    smoothed = tentative - csr.multiply(inv_diag[:, None]) \
        @ tentative * JACOBI_OMEGA
    smoothed = smoothed.tocsr()
    # The restrictor's arrays are the CSC form of P, which is what the
    # last product would otherwise convert P to.
    restrictor = smoothed.T.tocsr()
    coarse = (smoothed.T @ csc @ restrictor.T).tocsr()
    coarse.sum_duplicates()
    return smoothed, restrictor, coarse


def build_multilevel(matrix: Any) -> MultilevelPreconditioner | None:
    """Smoothed-aggregation hierarchy for an SPD CSR matrix.

    Returns ``None`` when the matrix is not plausibly SPD (non-positive
    diagonal) or refuses to coarsen -- callers fall back to Jacobi.
    """
    from scipy.linalg import cho_factor

    csr = matrix.tocsr() if not _is_csr(matrix) else matrix
    diag = np.asarray(csr.diagonal(), dtype=float)
    if not (np.all(np.isfinite(diag)) and np.all(diag > 0.0)):
        return None
    levels: list[_Level] = []
    current = csr
    total_nnz = csr.nnz
    while current.shape[0] > COARSE_MAX_UNKNOWNS \
            and len(levels) < MAX_LEVELS and np.all(diag > 0.0):
        inv_diag = 1.0 / diag
        step = _coarsen(current, inv_diag)
        if step is None:
            break
        prolongator, restrictor, coarse = step
        levels.append(_Level(
            matrix=current,
            omega_inv_diag=JACOBI_OMEGA * inv_diag,
            prolongator=prolongator,
            restrictor=restrictor,
        ))
        total_nnz += coarse.nnz
        current = coarse
        diag = np.asarray(current.diagonal(), dtype=float)
    try:
        coarse_factor = cho_factor(current.toarray())
    except Exception:
        return None
    return MultilevelPreconditioner(
        levels=tuple(levels),
        coarse_factor=coarse_factor,
        n_unknowns=csr.shape[0],
        operator_complexity=total_nnz / max(1, csr.nnz),
    )


@dataclass
class _CacheEntry:
    preconditioner: Any
    reference_data: np.ndarray
    hits: int = 0


class PreconditionerCache:
    """Bounded, fork-safe reuse cache for multilevel setups.

    Keys are sparsity fingerprints: a sweep that rebuilds the same
    grid structure with new values reuses the (expensive) hierarchy
    setup and only pays the (cheap) CG solve per point.  Entries are
    plain NumPy/SciPy values, so a forked worker inherits the warm
    parent cache copy-on-write; the lock is re-armed in the child via
    :func:`os.register_at_fork` so a fork during a held lock can never
    deadlock the worker, and each process mutates only its own copy.
    """

    def __init__(self, max_entries: int = CACHE_MAX_ENTRIES) -> None:
        self.max_entries = max_entries
        self._entries: dict[str, _CacheEntry] = {}
        self._lock = threading.Lock()
        self._pid = os.getpid()

    # -- fork safety --------------------------------------------------

    def _after_fork(self) -> None:
        """Re-arm the lock in a freshly forked child."""
        self._lock = threading.Lock()
        self._pid = os.getpid()

    def _guard(self) -> threading.Lock:
        if self._pid != os.getpid():  # fork path without the hook
            self._after_fork()
        return self._lock

    # -- cache protocol -----------------------------------------------

    def get_or_build(self, matrix: Any
                     ) -> tuple[Any | None, bool, str]:
        """``(preconditioner, reused, fingerprint)`` for a CSR matrix.

        A fingerprint hit returns the cached hierarchy: exactly
        rescaled matrices get an exact scale-compensated wrapper, any
        other same-structure value mutation reuses the setup as-is
        (still SPD, still validated by CG's residual check).  A miss
        builds, stores, and returns a fresh setup; ``None`` when the
        matrix cannot support a multilevel hierarchy.
        """
        csr = matrix.tocsr() if not _is_csr(matrix) else matrix
        fingerprint = sparsity_fingerprint(csr)
        with self._guard():
            entry = self._entries.get(fingerprint)
        if entry is not None:
            entry.hits += 1
            scale = _uniform_scale(entry.reference_data, csr.data)
            if scale is not None and scale != 1.0:
                return (_ScaledPreconditioner(entry.preconditioner,
                                              1.0 / scale),
                        True, fingerprint)
            return entry.preconditioner, True, fingerprint
        built = build_multilevel(csr)
        if built is None:
            return None, False, fingerprint
        with self._guard():
            if len(self._entries) >= self.max_entries:
                # evict the least-hit entry (cheap LFU approximation)
                coldest = min(self._entries,
                              key=lambda key: self._entries[key].hits)
                del self._entries[coldest]
            self._entries[fingerprint] = _CacheEntry(
                preconditioner=built,
                reference_data=np.array(csr.data, dtype=float,
                                        copy=True))
        return built, False, fingerprint

    def clear(self) -> None:
        with self._guard():
            self._entries.clear()

    def __len__(self) -> int:
        with self._guard():
            return len(self._entries)


def _uniform_scale(reference: np.ndarray,
                   data: np.ndarray) -> float | None:
    """``alpha`` when ``data == alpha * reference`` elementwise."""
    if reference.shape != data.shape:
        return None
    anchor = int(np.argmax(np.abs(reference)))
    if reference[anchor] == 0.0:
        return 1.0 if not np.any(data) else None
    alpha = float(data[anchor] / reference[anchor])
    if not np.isfinite(alpha) or alpha == 0.0:
        return None
    if np.allclose(data, alpha * reference,
                   rtol=1e-12, atol=0.0, equal_nan=False):
        return alpha
    return None


#: The process-wide reuse cache behind ``guarded_linear_solve``.
PRECONDITIONER_CACHE = PreconditionerCache()

if hasattr(os, "register_at_fork"):
    os.register_at_fork(
        after_in_child=PRECONDITIONER_CACHE._after_fork)
