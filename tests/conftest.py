"""Shared fixtures: the worked 3x3 example, seeded random generators, and
the 50-digit judge of two threshold searches."""

from __future__ import annotations

import math
from decimal import Decimal, localcontext
from unittest import mock

import numpy as np
import pytest
from hypothesis import settings

from monobound.buffoni import BISECT_ABS_TOL
from monobound.classify import MONOTONE_RTOL

# `--hypothesis-profile ci` keeps no example database, so a run under a fixed
# `--hypothesis-seed` draws the same examples wherever it runs.
settings.register_profile("ci", database=None)

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


def grid_laplacian(rows, cols, shift):
    """Five-point Laplacian on a rows x cols grid plus ``shift`` * I: an
    M-matrix for shift > 0, banded with bandwidth cols (1 when rows is 1)."""

    def path(m):
        return 2.0 * np.eye(m) - np.eye(m, k=1) - np.eye(m, k=-1)

    return np.kron(np.eye(rows), path(cols)) + np.kron(path(rows), np.eye(cols)) + shift * np.eye(rows * cols)


def matmul_shapes(fn):
    """(rows, inner, columns) of each np.matmul call that ``fn()`` makes, in
    call order; products written with the ``@`` operator are not seen."""
    shapes, matmul = [], np.matmul

    def spy(x, y, *args, **kwargs):
        shapes.append((x.shape[0], x.shape[1], y.shape[1]))
        return matmul(x, y, *args, **kwargs)

    with mock.patch.object(np, "matmul", spy):
        fn()
    return shapes


def column_span_scans(module, fn):
    """(block, span) for each call of ``module._column_span`` that ``fn()``
    makes, in call order, with a copy of the block it scanned."""
    scans, column_span = [], module._column_span

    def spy(b):
        span = column_span(b)
        scans.append((b.copy(), span))
        return span

    with mock.patch.object(module, "_column_span", spy):
        fn()
    return scans


def whole_span(b):
    """Reference for linalg._column_span: the shortest slice of the columns
    of ``b`` that holds every nonzero, from a pass over all of ``b``."""
    cols = np.flatnonzero(b.any(axis=0))
    return slice(int(cols[0]), int(cols[-1]) + 1) if cols.size else slice(0, 0)


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


# A = Z^-1 rounded to floats, for Z = [[1, -5e-11], [0.05, 1e-4]]: its
# smallest inverse entry, -5e-11 of the largest, lies inside the slack
# MONOTONE_RTOL, so A passes validation although it is not monotone.  For
# E = e2 e2^T (rank one, the closed form) and E = diag(1e-6, 1) (the
# iteration), W = Z E Z has an entry at -5e-7 and -1e-9 of max W, below the
# -1e-10 that a monotone iterate can give.  (With 0.5 in place of 0.05, the
# second would sit exactly on -1e-10 and raise only by roundoff.)
NOT_MONOTONE_WITHIN_SLACK = np.linalg.inv(np.array([[1.0, -5e-11], [0.05, 1e-4]]))

#: Entries of a 50-digit inverse within this of max|Z| are its roundoff
#: (an exact zero of Z computes as about 1e-50 max|Z|), so they count as 0.
_ROUNDOFF_50 = 1e-40


def _smallest_over_largest(a, e, v):
    """min Z / max|Z| for Z the inverse of A + v E (as formed in floats), by
    Gauss-Jordan elimination with partial pivoting in 50-digit decimal
    arithmetic.  The decimal module runs in C: on n <= 15 this is about ten
    times faster than mpmath's inverse, and the tridiagonal sweep of
    test_acceptance.py calls it some two thousand times."""
    m = a + v * e
    n = m.shape[0]
    with localcontext() as ctx:
        ctx.prec = 50
        rows = [
            [Decimal(x) for x in row] + [Decimal(int(i == j)) for j in range(n)]
            for i, row in enumerate(m.tolist())
        ]
        for c in range(n):
            p = max(range(c, n), key=lambda r: abs(rows[r][c]))
            rows[c], rows[p] = rows[p], rows[c]
            pivot = [x / rows[c][c] for x in rows[c]]
            rows = [
                pivot if r == c else [x - row[c] * y for x, y in zip(row, pivot)]
                for r, row in enumerate(rows)
            ]
        entries = [x for row in rows for x in row[n:]]
        return min(entries) / max(abs(x) for x in entries)


def threshold_mismatch(a, e, exact, tolerant, eps=1e-6, floor=1.0):
    """None when both thresholds of (A, E) are right, otherwise what is wrong.

    ``exact`` claims v* = sup { v >= 0 : (A + v E)^-1 >= 0 } (buffoni_vstar,
    or a closed form); ``tolerant`` claims the same sup for the predicate
    with the slack MONOTONE_RTOL (bisection_vstar).  Infinite values must be
    equal, and finite ones within eps * max(exact, floor) agree.  A larger
    gap can be right: the slack moves the tolerant threshold by about
    MONOTONE_RTOL max|Z| over the rate at which the crossing entry falls,
    far more than eps v where that entry is small against max|Z|.  Each
    value is then judged against its own definition with a 50-digit inverse
    of A + v E.  The monotone set of v is an interval (Kuttler's theorem),
    so two probes bracket each threshold: min Z >= 0 at exact (1 - eps) and
    < 0 at exact (1 + eps), up to the inverse's own roundoff; and
    min Z >= -MONOTONE_RTOL max|Z| at tolerant - m and below it at
    tolerant + m, with m = max(eps tolerant, 2 BISECT_ABS_TOL).
    """
    if math.isinf(exact) or math.isinf(tolerant):
        if exact == tolerant:
            return None
        return f"exact {exact!r} and tolerant {tolerant!r} differ"
    if abs(exact - tolerant) <= eps * max(exact, floor):
        return None
    wrong = []
    below, above = exact * (1.0 - eps), exact * (1.0 + eps)
    at_below, at_above = (_smallest_over_largest(a, e, v) for v in (below, above))
    if not (at_below >= -_ROUNDOFF_50 and at_above < -_ROUNDOFF_50):
        wrong.append(
            f"exact {exact!r} is wrong: min Z / max|Z| is {float(at_below):.3e} at "
            f"{below!r} and {float(at_above):.3e} at {above!r}"
        )
    m = max(eps * tolerant, 2.0 * BISECT_ABS_TOL)
    below, above = max(tolerant - m, 0.0), tolerant + m
    at_below, at_above = (_smallest_over_largest(a, e, v) for v in (below, above))
    if not (at_below >= -MONOTONE_RTOL and at_above < -MONOTONE_RTOL):
        wrong.append(
            f"tolerant {tolerant!r} is wrong: min Z / max|Z| is {float(at_below):.3e} at "
            f"{below!r} and {float(at_above):.3e} at {above!r}"
        )
    return "; ".join(wrong) or None
