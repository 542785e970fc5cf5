"""Directed sparsity graph of a matrix (an edge for every off-diagonal
nonzero): strong connectivity, and the maximum graph distance across a
perturbation's support (the quantity the graph-distance norm bound raises
to a power).

Connectivity (:func:`classify.is_irreducible`) and the maximum distance come
from boolean reachability products: ``R_k``, the pairs joined by a path of
at most 2^k edges, is ``R_{k-1}`` squared as a float32 0/1 matmul
thresholded at ``> 0`` (exact while n < 2^24), and binary lifting over the
``R_k`` gives exact distances.  Cost is O(n^3 log M) in BLAS for a maximum
distance M.  A per-source BFS in the tests is the reference these are
compared against.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, EmptyPerturbation, UnreachablePair
from .linalg import as_square_matrix


def _offdiag_mask(m: np.ndarray) -> np.ndarray:
    """Boolean mask of the off-diagonal nonzero entries."""
    mask = m != 0
    np.fill_diagonal(mask, False)
    return mask


def _compose(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Boolean matrix product: pairs (i, k) with x_ij and y_jk for some j."""
    return (x.astype(np.float32) @ y.astype(np.float32)) > 0.0


def _covers(reach: np.ndarray, target: np.ndarray) -> bool:
    return not np.any(target & ~reach)


def _reach_powers(adjacency: np.ndarray, target: np.ndarray) -> list[np.ndarray]:
    """``[R_0, ..., R_K]`` with ``R_k`` the pairs joined by a path of at most
    2^k edges, squared until ``R_K`` covers ``target`` or stops growing (it is
    then the transitive closure)."""
    reach = adjacency | np.eye(adjacency.shape[0], dtype=bool)
    powers = [reach]
    while not _covers(reach, target):
        reach = _compose(reach, reach)
        if np.array_equal(reach, powers[-1]):
            break
        powers.append(reach)
    return powers


def bouchon_M(a, e_pattern) -> int:
    """Largest sparsity-graph distance d(i, j) of ``a`` over the off-diagonal
    support of ``e_pattern``.

    Raises :class:`EmptyPerturbation` when the pattern has no off-diagonal
    nonzero (the statistic would sit in a denominator as zero) and
    :class:`UnreachablePair`, naming the first such pair in row-major order,
    when some supported pair has no directed path.
    """
    m = as_square_matrix(a)
    e = as_square_matrix(e_pattern)
    if e.shape != m.shape:
        raise DimensionMismatch(
            f"pattern shape {e.shape} does not match matrix shape {m.shape}"
        )
    support = _offdiag_mask(e)
    if not support.any():
        raise EmptyPerturbation("perturbation pattern has no off-diagonal nonzero entry")
    powers = _reach_powers(_offdiag_mask(m), support)
    missing = np.argwhere(support & ~powers[-1])
    if missing.size:
        i, j = (int(x) for x in missing[0])
        raise UnreachablePair(
            f"no directed path from node {i} to node {j} in the sparsity graph"
        )
    # R_K covers the support and R_{K-1} does not, so 2^{K-1} < M <= 2^K.
    # Binary lifting keeps ``reach`` = R_{<=steps}, the longest prefix that
    # still misses a supported pair; one more step covers them all.
    top = len(powers) - 1
    if top == 0:
        return 1
    reach, steps = powers[top - 1], 2 ** (top - 1)
    for k in range(top - 2, -1, -1):
        longer = _compose(reach, powers[k])
        if not _covers(longer, support):
            reach, steps = longer, steps + 2**k
    return steps + 1
