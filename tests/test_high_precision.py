"""High-precision oracle: a 50-digit mpmath inverse, independent of both the
LAPACK inverse and the reference elimination of ``test_linalg.py``, checks
the monotonicity verdict and the inverse statistics on small
ill-conditioned inputs whose exact inverse has one entry at +-1e-8 of its
largest."""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from mpmath import mp

from monobound import inverse_stats, is_monotone
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
