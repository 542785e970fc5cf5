"""High-precision oracle: a 50-digit mpmath inverse, independent of
``inverse`` (LAPACK, or block elimination on a Z-matrix) and of the
reference elimination of ``test_linalg.py``, checks the monotonicity verdict
and the inverse statistics on small ill-conditioned inputs whose exact
inverse has one entry at +-1e-8 of its largest, the same on near-singular
M-matrices inverted by block elimination, and every verdict that the
threshold search's residual certificate decides without an inverse."""

from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from conftest import INFINITE_THRESHOLD_PAIRS, random_sdd_m_matrix
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from mpmath import mp

from monobound import (
    bisection_vstar,
    buffoni,
    buffoni_vstar,
    inverse,
    inverse_stats,
    is_monotone,
    linalg,
)
from monobound.classify import MONOTONE_RTOL

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


def _statistics_match_50_digits(a):
    """Check is_monotone and inverse_stats of ``a`` against its 50-digit
    inverse Z, each within the normwise bound delta = n kappa eps max|Z| on
    an entry of the float inverse (examples with delta >= 5e-9 max|Z| are
    skipped), and return (the MonotoneCheck, Z rounded to floats, delta)."""
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
    assert check.monotone == (smallest >= -MONOTONE_RTOL * z_max)
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
    return check, z, delta


@settings(max_examples=100, deadline=None)
@given(near_boundary_matrices())
def test_verdict_and_statistics_match_a_50_digit_inverse(a):
    check, z, _ = _statistics_match_50_digits(a)
    assert check.location == np.unravel_index(np.argmin(z), z.shape)


@st.composite
def near_singular_m_matrices(draw):
    """A = s I - B with B >= 0 of order 5..12, nonsymmetric and dense, with
    about half its off-diagonal entries zero (then often reducible), banded
    with bandwidth 1 to 3, or block sparse (zero above, or above and below,
    a diagonal split), and s = rho(B) (1 + gap) with gap down to 1e-7: an
    M-matrix whose condition grows like 1 / gap."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(5, 12))
    b = rng.uniform(0.1, 1.0, size=(n, n))
    pattern = draw(st.sampled_from(["dense", "half", "banded", "block"]))
    if pattern == "half":
        b[(rng.random((n, n)) < 0.5) & ~np.eye(n, dtype=bool)] = 0.0
    elif pattern == "banded":
        b[np.abs(np.subtract.outer(np.arange(n), np.arange(n))) > draw(st.integers(1, 3))] = 0.0
    elif pattern == "block":
        k = draw(st.integers(1, n - 1))
        b[:k, k:] = 0.0
        if draw(st.booleans()):
            b[k:, :k] = 0.0
    gap = 10.0 ** -draw(st.integers(1, 7))
    rho = float(np.abs(np.linalg.eigvals(b)).max())
    return rho * (1.0 + gap) * np.eye(n) - b


@settings(max_examples=50, deadline=None)
@given(near_singular_m_matrices())
def test_block_inverse_matches_a_50_digit_inverse(a):
    # Leaves of order 2 make every draw recurse, and the sparse patterns
    # leave zero rows and columns at the ends of the off-diagonal blocks of
    # many splits: each inverse below is the block path's, which the
    # 50-digit inverse judges with the same kappa-scaled bound as LAPACK's
    # above.  The location may differ where another entry lies within the
    # error bound of the smallest.
    with mock.patch.object(linalg, "BLOCK_LEAF_ORDER", 2):
        blocks = np.empty_like(a)
        linalg._block_inverse(a, blocks)
        assert np.array_equal(inverse(a), blocks)
        check, z, delta = _statistics_match_50_digits(a)
    assert z[check.location] <= float(z.min()) + 2.0 * delta


def test_block_path_falls_back_to_lapack_on_a_z_matrix_that_is_not_m():
    # 3 I - (J - I) of order 5 has the eigenvalue 3 - 4 = -1.  With leaves of
    # order 2 its leading block passes the leaf guard and a later one fails.
    a = 4.0 * np.eye(5) - np.ones((5, 5))
    with mock.patch.object(linalg, "BLOCK_LEAF_ORDER", 2), mock.patch.object(
        linalg, "_block_inverse", wraps=linalg._block_inverse
    ) as spy:
        got = inverse(a)
    assert spy.call_count > 1
    assert np.array_equal(got, np.linalg.inv(a))


def _mp_monotone(m):
    """The monotonicity predicate on the 50-digit inverse of ``m``."""
    with mp.workdps(50):
        exact = _mp_inverse(m)
        entries = [exact[i, j] for i in range(exact.rows) for j in range(exact.cols)]
        return min(entries) >= -MONOTONE_RTOL * max(abs(x) for x in entries)


@contextmanager
def _certified_verdicts():
    """Collect (probe matrix, verdict) for every probe of the threshold
    search that takes no inverse, so that a residual certificate decided."""
    decided, inverted = [], []
    checked_inverse, monotone_inverse = buffoni._checked_inverse, buffoni._monotone_inverse

    def counted(*args):
        inverted.append(args)
        return monotone_inverse(*args)

    def recorded(pair, v, residual):
        before = len(inverted)
        verdict, inv = checked_inverse(pair, v, residual)
        if len(inverted) == before:
            decided.append((buffoni._perturbed(pair.m, pair.pert, v), verdict))
        return verdict, inv

    with mock.patch.object(buffoni, "_monotone_inverse", counted), mock.patch.object(
        buffoni, "_checked_inverse", recorded
    ):
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
    pair = buffoni._validated_pair(*pair)
    vstar = buffoni._rank_one_vstar(pair).vstar / pair.unit
    assume(np.isfinite(vstar))
    residual = buffoni._search_residual(pair)
    with _certified_verdicts() as decided:
        for k in NEAR_THRESHOLD:
            buffoni._checked_inverse(pair, vstar * k, residual)
    assert decided
    for probe, verdict in decided:
        assert bool(verdict) == _mp_monotone(probe)


def _mp_residual_norm(m, z):
    """||I - m z||_inf in 50 digits."""
    with mp.workdps(50):
        r = mp.eye(len(m)) - mp.matrix(m.tolist()) * mp.matrix(z.tolist())
        return max(mp.fsum(abs(r[i, j]) for j in range(r.cols)) for i in range(r.rows))


@settings(max_examples=25, deadline=None)
@given(
    rank_one_pairs(),
    st.integers(-500, 500),
    st.integers(-500, 500),
    st.sampled_from([None, "p", "q", "s"]),
    st.sampled_from([1e-6, -1e-9, 1e-13]),
)
def test_probe_residual_bounds_the_exact_residual(pair, k_a, k_e, wrong, error):
    # The O(1) bound of a rank-one probe must cover the residual of the
    # candidate against the probed matrix, for a pair in any power-of-two
    # scale and for Sherman-Morrison terms off by a relative ``error``: a
    # wrong term may only cost the certificate, never a wrong verdict.
    a, e = pair
    pair = buffoni._validated_pair(2.0**k_a * a, 2.0**k_e * e)
    vstar = buffoni._rank_one_vstar(pair).vstar / pair.unit
    assume(np.isfinite(vstar))
    if wrong is not None:
        term = getattr(pair.rank_one, wrong)
        pair = pair._replace(rank_one=pair.rank_one._replace(**{wrong: term * (1.0 + error)}))
    residual = buffoni._search_residual(pair)
    for k in NEAR_THRESHOLD:
        v = vstar * k
        probe = buffoni._perturbed(pair.m, pair.pert, v)
        rho = buffoni._probe_residual(residual, v).rho
        assert _mp_residual_norm(probe, buffoni._candidate(pair, v)) <= rho
    with _certified_verdicts() as decided:
        for k in NEAR_THRESHOLD:
            buffoni._checked_inverse(pair, vstar * k, residual)
    for probe, verdict in decided:
        assert bool(verdict) == _mp_monotone(probe)


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
    for probe, verdict in decided:
        assert bool(verdict) == _mp_monotone(probe)
