"""Shared fixtures: the worked 3x3 example and seeded random generators."""

from __future__ import annotations

import numpy as np
import pytest

# Worked example used throughout the suite: a strictly diagonally dominant,
# irreducible, quasi-doubly-stochastic M-matrix with determinant 3.32 and a
# hand-checkable inverse adj(A)/3.32.
SAMPLE_A = np.array(
    [
        [1.6, 0.0, -0.6],
        [-0.4, 1.4, 0.0],
        [-0.2, -0.4, 1.6],
    ]
)

# inverse(SAMPLE_A) to four decimal places.
SAMPLE_A_INV_4DP = np.array(
    [
        [0.6747, 0.0723, 0.2530],
        [0.1928, 0.7349, 0.0723],
        [0.1325, 0.1928, 0.6747],
    ]
)

# Exact uniform-perturbation threshold of SAMPLE_A (all-ones E):
# B/(1 - B*S) with B = 6/83 and S = 3.
SAMPLE_A_VSTAR_UNIFORM = 6.0 / 65.0


@pytest.fixture
def sample_a():
    return SAMPLE_A.copy()


def random_sdd_m_matrix(rng, n):
    """Strictly diagonally dominant M-matrix with strictly negative
    off-diagonal entries (hence irreducible, with strictly positive inverse)."""
    off = rng.uniform(0.2, 1.0, size=(n, n))
    np.fill_diagonal(off, 0.0)
    a = -off
    np.fill_diagonal(a, off.sum(axis=1) * rng.uniform(1.05, 2.0, size=n))
    return a


def random_symmetric_sdd_m_matrix(rng, n):
    """Symmetric variant of :func:`random_sdd_m_matrix` (hence positive
    definite)."""
    off = np.triu(rng.uniform(0.2, 1.0, size=(n, n)), 1)
    off = off + off.T
    a = -off
    np.fill_diagonal(a, off.sum(axis=1) * rng.uniform(1.05, 1.6, size=n))
    return a


def random_tridiagonal_m_matrix(rng, n):
    """Tridiagonal M-matrix with strictly negative sub/superdiagonals."""
    a = np.zeros((n, n))
    idx = np.arange(n - 1)
    a[idx + 1, idx] = -rng.uniform(0.2, 1.2, size=n - 1)
    a[idx, idx + 1] = -rng.uniform(0.2, 1.2, size=n - 1)
    np.fill_diagonal(a, np.abs(a).sum(axis=1) * rng.uniform(1.05, 1.8, size=n))
    return a


def random_doubly_stochastic(rng, n, sweeps=80):
    """Strictly positive doubly stochastic matrix via alternating row/column
    normalization (converges geometrically for positive input)."""
    p = rng.uniform(0.5, 1.5, size=(n, n))
    for _ in range(sweeps):
        p /= p.sum(axis=1, keepdims=True)
        p /= p.sum(axis=0, keepdims=True)
    return p


def random_qds_m_matrix(rng, n):
    """Quasi-doubly-stochastic strictly diagonally dominant M-matrix:
    (1+c) I - c P with P doubly stochastic and 0 < c < 1."""
    c = rng.uniform(0.2, 0.7)
    return (1.0 + c) * np.eye(n) - c * random_doubly_stochastic(rng, n)


def random_qds_matrix(rng, n):
    """General quasi-doubly-stochastic matrix with no sign structure:
    the identity plus a double-centered contraction (always nonsingular)."""
    h = rng.normal(size=(n, n))
    h = h - h.mean(axis=1, keepdims=True) - h.mean(axis=0, keepdims=True) + h.mean()
    norm = np.linalg.norm(h, 2)
    if norm > 0.6:
        h *= 0.6 / norm
    return np.eye(n) + h


def random_nonneg_perturbation(rng, n):
    """Sparse-ish entrywise-nonnegative perturbation, never all-zero."""
    e = rng.uniform(0.0, 1.0, size=(n, n)) * (rng.uniform(size=(n, n)) < 0.7)
    if not e.any():
        e[rng.integers(n), rng.integers(n)] = rng.uniform(0.5, 1.0)
    return e


def random_well_conditioned(rng, n):
    """Random nonsingular matrix with mixed signs and modest condition
    number: dominant random diagonal plus small noise."""
    return np.diag(rng.uniform(1.0, 2.0, size=n)) + 0.3 * rng.normal(size=(n, n)) / np.sqrt(n)


def _dominant_pair(diagonal, entry, value, e_index):
    """(A, E): diag(``diagonal``) with ``value`` at ``entry`` of A, and
    E = 0.5 at ``e_index`` on the diagonal."""
    a = np.diag(np.asarray(diagonal, dtype=float))
    a[entry] = value
    e = np.zeros_like(a)
    e[e_index, e_index] = 0.5
    return a, e


_NEAR_SINGULAR_A = np.array([[1.4, -0.2, 0.0], [0.0, 0.01, 0.0], [0.0, 0.0, 0.01]])

# Pairs with a diagonal E on an M-matrix, so v* is infinite.  In the first
# four max|A| * max|A^-1| is large enough that the singularity rule refuses
# A + v E below V_CAP * max|A| / max E.  On the last two the ratio iteration
# meets a roundoff-negative W entry (NotMonotone), or, when it runs to
# V_CAP * max|A| / max E, a refused iterate (SingularIterate).
INFINITE_THRESHOLD_PAIRS = {
    "near-singular-e11": (_NEAR_SINGULAR_A, np.diag([0.5, 0.0, 0.0])),
    "near-singular-e11-e22": (_NEAR_SINGULAR_A, np.diag([0.5, 0.5, 0.0])),
    "dominant-9x9": _dominant_pair([1.4] + [0.01171875] * 8, (0, 1), -0.2, 0),
    "dominant-5x5": _dominant_pair([0.015625, 2.0, 1.0, 1.0, 1.0], (1, 0), -0.5, 1),
    "diagonal-e-not-monotone": (
        np.array([[0.01, 0.0, 0.0], [-0.2, 0.212, 0.0], [0.0, -0.5, 0.7]]),
        np.diag([2.0, 0.0, 2.0]),
    ),
    "diagonal-e-singular-iterate": (
        np.array([[2.0, -1.0, -0.5], [-0.5, 0.717, -0.2], [0.0, 0.0, 0.01]]),
        np.diag([1.0, 2.0, 0.0]),
    ),
}
