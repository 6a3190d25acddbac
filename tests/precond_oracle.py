"""Earlier multilevel-solver kernels: the test oracles for the fast ones.

These are the pair matcher, the hierarchy setup, the V-cycle and the
mesh assembly as they were before the matcher went incremental, the
setup shared one CSC copy and one diagonal per level, the cycle went
in place and the mesh stencil went straight into CSR arrays.  They are
kept unchanged so the differential tests can hold
:mod:`repro.reliability.precond` and :func:`repro.pdn.grid._mesh_laplacian`
to them with ``np.array_equal``.
"""

from __future__ import annotations

from typing import Any

import numpy as np
from scipy.linalg import cho_solve
from scipy.sparse import csr_matrix

from repro.reliability.precond import (
    COARSE_MAX_UNKNOWNS,
    JACOBI_OMEGA,
    MATCH_ROUNDS,
    MAX_LEVELS,
    PAIR_ROUNDS,
    _node_priorities,
)


def _row_argmax(strength: np.ndarray, indptr: np.ndarray,
                counts: np.ndarray, nonempty: np.ndarray,
                rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-row ``(first argmax position, row maximum)`` over CSR data."""
    n = counts.size
    maxima = np.maximum.reduceat(
        np.concatenate((strength, [-np.inf])), indptr[:-1])
    maxima = np.where(nonempty, maxima, -np.inf)
    is_max = strength == np.repeat(maxima, counts)
    position = np.flatnonzero(is_max)
    first = np.full(n, -1, dtype=np.int64)
    row_of_hit = rows[position]
    # later hits overwrite earlier ones; reverse so the first wins
    first[row_of_hit[::-1]] = position[::-1]
    return first, maxima


def match_pairs(csr: Any) -> np.ndarray:
    """Aggregate ids from Luby-style mutual heavy-edge matching, with
    every round's proposals recomputed over the whole matrix."""
    n = csr.shape[0]
    indptr, indices = csr.indptr, csr.indices
    counts = np.diff(indptr)
    nonempty = counts > 0
    rows = np.repeat(np.arange(n), counts)
    base = np.abs(csr.data).astype(float, copy=True)
    base[indices == rows] = -1.0  # never match the diagonal
    base *= 1.0 + 1e-6 * _node_priorities(n)[indices]
    aggregate = np.full(n, -1, dtype=np.int64)
    nodes = np.arange(n)
    next_id = 0
    for _ in range(MATCH_ROUNDS):
        available = aggregate < 0
        if not np.any(available):
            break
        strength = np.where(available[indices] & available[rows],
                            base, -np.inf)
        first, maxima = _row_argmax(strength, indptr, counts,
                                    nonempty, rows)
        strongest = np.full(n, -1, dtype=np.int64)
        valid = (first >= 0) & (maxima > 0.0)
        strongest[valid] = indices[first[valid]]
        partner = np.where(strongest >= 0, strongest, nodes)
        mutual = (strongest >= 0) & (strongest[partner] == nodes) \
            & (nodes < partner)
        pair_lo = nodes[mutual]
        if pair_lo.size == 0:
            break
        aggregate[pair_lo] = next_id + np.arange(pair_lo.size)
        aggregate[partner[pair_lo]] = aggregate[pair_lo]
        next_id += pair_lo.size
    # Leftovers join their strongest already-matched neighbour.
    leftover = aggregate < 0
    if np.any(leftover):
        strength = np.where((aggregate >= 0)[indices], base, -np.inf)
        first, maxima = _row_argmax(strength, indptr, counts,
                                    nonempty, rows)
        joins = leftover & (first >= 0) & (maxima > 0.0)
        aggregate[joins] = aggregate[indices[first[joins]]]
    rest = np.flatnonzero(aggregate < 0)
    aggregate[rest] = next_id + np.arange(rest.size)
    return aggregate


def _tentative_prolongator(aggregate: np.ndarray) -> csr_matrix:
    """Piecewise-constant prolongator, assembled from COO triplets."""
    n = aggregate.size
    n_agg = int(aggregate.max()) + 1 if n else 0
    counts = np.bincount(aggregate, minlength=n_agg).astype(float)
    data = 1.0 / np.sqrt(counts[aggregate])
    return csr_matrix((data, (np.arange(n), aggregate)),
                      shape=(n, n_agg))


def _coarsen(csr: Any) -> tuple[Any, Any] | None:
    """One coarsening step, each Galerkin product converting on its
    own and the diagonal taken here as well as by the caller."""
    n = csr.shape[0]
    aggregate = match_pairs(csr)
    for _ in range(PAIR_ROUNDS - 1):
        tentative = _tentative_prolongator(aggregate)
        paired = (tentative.T @ csr @ tentative).tocsr()
        aggregate = match_pairs(paired)[aggregate]
    n_coarse = int(aggregate.max()) + 1
    if n_coarse >= n:
        return None
    tentative = _tentative_prolongator(aggregate)
    diag = np.asarray(csr.diagonal(), dtype=float)
    if not np.all(diag > 0.0):
        return None
    inv_diag = 1.0 / diag
    smoothed = tentative - csr.multiply(inv_diag[:, None]) \
        @ tentative * JACOBI_OMEGA
    smoothed = smoothed.tocsr()
    coarse = (smoothed.T @ csr @ smoothed).tocsr()
    coarse.sum_duplicates()
    return smoothed, coarse


def build_levels(csr: Any) -> tuple[list[tuple[Any, ...]], Any, float]:
    """``(levels, coarsest operator, operator complexity)``; each level
    is ``(matrix, 1 / diag, prolongator, restrictor)``."""
    levels = []
    current = csr
    total_nnz = csr.nnz
    while current.shape[0] > COARSE_MAX_UNKNOWNS \
            and len(levels) < MAX_LEVELS:
        step = _coarsen(current)
        if step is None:
            break
        prolongator, coarse = step
        levels.append((
            current,
            1.0 / np.asarray(current.diagonal(), dtype=float),
            prolongator,
            prolongator.T.tocsr(),
        ))
        total_nnz += coarse.nnz
        current = coarse
    return levels, current, total_nnz / max(1, csr.nnz)


def cycle(preconditioner: Any, depth: int, rhs: np.ndarray) -> np.ndarray:
    """The allocating V(1,1)-cycle over a built hierarchy, with each
    level's ``1 / diag`` recomputed from its operator."""
    if depth == len(preconditioner.levels):
        return cho_solve(preconditioner.coarse_factor, rhs)
    level = preconditioner.levels[depth]
    inv_diag = 1.0 / np.asarray(level.matrix.diagonal(), dtype=float)
    x = JACOBI_OMEGA * inv_diag * rhs
    residual = rhs - level.matrix @ x
    coarse = cycle(preconditioner, depth + 1,
                   level.restrictor @ residual)
    x = x + level.prolongator @ coarse
    residual = rhs - level.matrix @ x
    return x + JACOBI_OMEGA * inv_diag * residual


def mesh_laplacian(n_side: int, rails_per_pitch: int,
                   conductance: float) -> tuple[csr_matrix, int]:
    """The mesh Laplacian assembled as COO triplets and converted."""
    coords = np.arange(n_side)
    ix = coords[:, None].repeat(n_side, axis=1)
    iy = coords[None, :].repeat(n_side, axis=0)
    unknown = ~((ix % rails_per_pitch == 0)
                & (iy % rails_per_pitch == 0))
    n_unknown = int(np.count_nonzero(unknown))
    row_of = np.full((n_side, n_side), -1, dtype=np.int64)
    row_of[unknown] = np.arange(n_unknown)

    degree = ((ix > 0).astype(float) + (ix < n_side - 1)
              + (iy > 0) + (iy < n_side - 1))
    rows = [np.arange(n_unknown)]
    cols = [np.arange(n_unknown)]
    data = [conductance * degree[unknown]]

    for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
        jx, jy = ix + dx, iy + dy
        in_bounds = unknown & (jx >= 0) & (jx < n_side) \
            & (jy >= 0) & (jy < n_side)
        neighbour = np.full((n_side, n_side), -1, dtype=np.int64)
        neighbour[in_bounds] = row_of[jx[in_bounds], jy[in_bounds]]
        coupled = neighbour >= 0
        rows.append(row_of[coupled])
        cols.append(neighbour[coupled])
        data.append(np.full(int(np.count_nonzero(coupled)),
                            -conductance))

    matrix = csr_matrix(
        (np.concatenate(data),
         (np.concatenate(rows), np.concatenate(cols))),
        shape=(n_unknown, n_unknown))
    return matrix, n_unknown
