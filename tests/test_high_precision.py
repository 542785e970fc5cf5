"""High-precision oracle: a 50-digit mpmath inverse, independent of both the
LAPACK inverse and the reference elimination of ``test_linalg.py``, checks
the monotonicity verdict and the inverse statistics on small
ill-conditioned inputs whose exact inverse has one entry at +-1e-8 of its
largest, and every verdict that the threshold search's residual certificate
decides without an inverse."""

from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from conftest import INFINITE_THRESHOLD_PAIRS, random_sdd_m_matrix
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from mpmath import mp

from monobound import bisection_vstar, buffoni, buffoni_vstar, inverse_stats, is_monotone
from monobound.classify import DEFAULT_MONOTONE_TOL

EPS = np.finfo(float).eps


def _mp_inverse(a):
    with mp.workdps(50):
        return mp.inverse(mp.matrix(a.tolist()))


@st.composite
def near_boundary_matrices(draw):
    """A = Z^-1 rounded to floats, for Z = D1 (J + eps R) D2 with R uniform
    on [0, 1], eps down to 1e-3 and power-of-two scalings D1, D2 (so A is
    ill-conditioned), and one entry of Z set to +-1e-8 max|Z|."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 8))
    spread = 10.0 ** -draw(st.integers(0, 3))
    d1, d2 = 2.0 ** rng.integers(-3, 4, size=(2, n))
    z = d1[:, None] * (1.0 + spread * rng.uniform(size=(n, n))) * d2[None, :]
    i, j = rng.integers(0, n, size=2)
    z[i, j] = draw(st.sampled_from([-1e-8, 1e-8])) * np.abs(z).max()
    return np.array(_mp_inverse(z).tolist(), dtype=float)


@settings(max_examples=100, deadline=None)
@given(near_boundary_matrices())
def test_verdict_and_statistics_match_a_50_digit_inverse(a):
    n = len(a)
    kappa = float(np.linalg.cond(a))
    exact = _mp_inverse(a)
    z = np.array(exact.tolist(), dtype=float)
    z_max = float(np.abs(z).max())
    # Normwise bound on the float inverse's entrywise error.
    delta = n * kappa * EPS * z_max
    assume(delta < 5e-9 * z_max)

    check = is_monotone(a)
    smallest = float(z.min())
    assert check.monotone == (smallest >= -DEFAULT_MONOTONE_TOL * z_max)
    assert check.location == np.unravel_index(np.argmin(z), z.shape)
    assert abs(check.value - smallest) <= delta

    stats = inverse_stats(a)
    with mp.workdps(50):
        total = float(mp.fsum(exact))
        rows = [mp.fsum(exact[k, :]) for k in range(n)]
        cols = [mp.fsum(exact[:, k]) for k in range(n)]
        ratios = [[exact[p, q] / (rows[p] * cols[q]) for q in range(n)] for p in range(n)]
        buffoni_number = float(min(min(row) for row in ratios))
    assert abs(stats.total - total) <= n * n * delta
    # Entry, row-sum and column-sum errors of at most delta, n delta and
    # n delta move each ratio z_pq / (r_p c_q) by at most this.
    r = np.array(rows, dtype=float)
    c = np.array(cols, dtype=float)
    rc = np.outer(r, c)
    moved = delta / rc + np.abs(z / rc) * n * delta * (1.0 / r[:, None] + 1.0 / c[None, :])
    assert abs(stats.buffoni_number - buffoni_number) <= 2.0 * float(moved.max())


def _mp_monotone(m, tol):
    """The monotonicity predicate on the 50-digit inverse of ``m``."""
    with mp.workdps(50):
        exact = _mp_inverse(m)
        entries = [exact[i, j] for i in range(exact.rows) for j in range(exact.cols)]
        return min(entries) >= -tol * max(abs(x) for x in entries)


@contextmanager
def _certified_verdicts():
    """Collect (matrix, tol, verdict) for every verdict that
    buffoni._certified_check decides."""
    decided = []
    certify = buffoni._certified_check

    def recorded(m, z, tol):
        verdict = certify(m, z, tol)
        if verdict is not None:
            decided.append((m, tol, verdict))
        return verdict

    with mock.patch.object(buffoni, "_certified_check", recorded):
        yield decided


@st.composite
def rank_one_pairs(draw):
    """(A, E = u w^T): A a strictly dominant M-matrix with n = 3..12, half of
    them with about half their off-diagonal entries zero (so often with
    exact zeros in the inverse); u and w nonnegative, each dense or sparse."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(3, 12))
    a = random_sdd_m_matrix(rng, n)
    if draw(st.booleans()):
        a[(rng.random((n, n)) < 0.5) & ~np.eye(n, dtype=bool)] = 0.0

    def factor():
        f = rng.uniform(0.1, 2.0, n)
        if rng.random() < 0.5:
            f *= rng.random(n) < 0.3
            f[rng.integers(n)] = rng.uniform(0.5, 2.0)
        return f

    return a, np.outer(factor(), factor())


#: Probes at v* times these, on both sides of the tolerant boundary.
NEAR_THRESHOLD = (1.0, 1 - 1e-13, 1 + 1e-13, 1 - 1e-10, 1 + 1e-10, 1 - 1e-6, 1 + 1e-6)


@settings(max_examples=25, deadline=None)
@given(rank_one_pairs())
def test_certified_verdicts_match_a_50_digit_inverse(pair):
    # A certified probe near v* takes no inverse; its verdict must be the one
    # the exact inverse of the probed matrix gives.
    tol = DEFAULT_MONOTONE_TOL
    m, pert, z = buffoni._validated_pair(*pair, tol)
    rank_one = buffoni._rank_one_terms(pert, z)
    vstar = buffoni._rank_one_vstar(*rank_one, z, buffoni._cap(m, pert, z)).vstar
    assume(np.isfinite(vstar))
    with _certified_verdicts() as decided:
        for k in NEAR_THRESHOLD:
            buffoni._checked_inverse(m, pert, vstar * k, tol, z, rank_one)
    assert decided
    for probe, tol, verdict in decided:
        assert bool(verdict) == _mp_monotone(probe, tol)


RANK_ONE_INFINITE = [
    name for name, (_, e) in INFINITE_THRESHOLD_PAIRS.items() if np.linalg.matrix_rank(e) == 1
]


@pytest.mark.parametrize("name", RANK_ONE_INFINITE)
def test_certified_search_keeps_infinite_rank_one_thresholds(name):
    # Near the cap, where the singularity rule could refuse A + v E, no
    # certified verdict may differ from the exact one.
    a, e = INFINITE_THRESHOLD_PAIRS[name]
    assert buffoni_vstar(a, e).vstar == np.inf
    with _certified_verdicts() as decided:
        assert bisection_vstar(a, e) == np.inf
    for probe, tol, verdict in decided:
        assert bool(verdict) == _mp_monotone(probe, tol)
