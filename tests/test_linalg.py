"""Factorization, inverse and determinant checks.

``lu_solve(lu_factor(a), I)``, the blocked elimination, is the labelled
reference that the LAPACK-backed ``inverse`` is compared with."""

import numpy as np
import pytest
from conftest import SAMPLE_A, SAMPLE_A_INV_4DP, random_well_conditioned

from monobound import (
    DimensionMismatch,
    SingularMatrix,
    determinant,
    inverse,
    is_monotone,
    linalg,
    lu_factor,
    lu_solve,
)


def test_identity_factors_trivially():
    f = lu_factor(np.eye(3))
    assert np.array_equal(f.lower, np.eye(3))
    assert np.array_equal(f.upper, np.eye(3))
    assert list(f.perm) == [0, 1, 2]
    assert f.sign == 1


def test_antidiagonal_needs_one_swap():
    f = lu_factor([[0.0, 1.0], [1.0, 0.0]])
    assert f.sign == -1
    assert list(f.perm) == [1, 0]


def test_factors_reconstruct_sample():
    f = lu_factor(SAMPLE_A)
    assert np.max(np.abs(SAMPLE_A[f.perm] - f.lower @ f.upper)) <= 1e-12


def test_pivot_ties_break_low_and_repeat_bit_identically():
    ties = np.array([[2.0, 1.0], [2.0, 3.0]])
    f1 = lu_factor(ties)
    f2 = lu_factor(ties)
    assert f1.perm[0] == 0  # tied magnitudes resolve to the lowest row index
    assert np.array_equal(f1.lower, f2.lower)
    assert np.array_equal(f1.upper, f2.upper)
    assert np.array_equal(f1.perm, f2.perm)


def test_singular_raises():
    with pytest.raises(SingularMatrix):
        lu_factor([[1.0, 2.0], [2.0, 4.0]])
    with pytest.raises(SingularMatrix):
        lu_factor(np.zeros((2, 2)))


def test_rejects_nonsquare_and_nonfinite():
    with pytest.raises(DimensionMismatch):
        lu_factor(np.ones((2, 3)))
    with pytest.raises(ValueError):
        lu_factor(np.array([[1.0, np.inf], [0.0, 1.0]]))


def test_lu_solve_vector_and_matrix():
    rng = np.random.default_rng(7)
    a = random_well_conditioned(rng, 6)
    f = lu_factor(a)
    b = rng.normal(size=6)
    x = lu_solve(f, b)
    assert x.shape == (6,)
    assert np.allclose(a @ x, b, atol=1e-10)
    bs = rng.normal(size=(6, 4))
    xs = lu_solve(f, bs)
    assert xs.shape == (6, 4)
    assert np.allclose(a @ xs, bs, atol=1e-10)
    with pytest.raises(DimensionMismatch):
        lu_solve(f, np.ones(5))


def _reference_inverse(a):
    """Reference: the blocked elimination's solve against the identity."""
    return lu_solve(lu_factor(a), np.eye(len(a)))


def test_inverse_matches_reference_values():
    assert np.max(np.abs(inverse(SAMPLE_A) - SAMPLE_A_INV_4DP)) <= 5e-5


def test_inverse_identity():
    assert np.array_equal(inverse(np.eye(4)), np.eye(4))


def test_inverse_residual_and_oracle():
    rng = np.random.default_rng(11)
    for _ in range(20):
        a = random_well_conditioned(rng, 6)
        inv = inverse(a)
        assert np.max(np.abs(a @ inv - np.eye(6))) <= 1e-10
        assert np.allclose(inv, _reference_inverse(a), atol=1e-10)


SINGULAR_3X3 = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 9.0]])


@pytest.mark.parametrize("scale", [1.0, 2.0**500, 2.0**-500])
def test_inverse_rejects_singular_at_any_scale(scale):
    with pytest.raises(SingularMatrix, match="singular"):
        inverse(scale * SINGULAR_3X3)


def test_is_monotone_reports_singular():
    check = is_monotone(SINGULAR_3X3)
    assert not check.monotone
    assert check.singular


@pytest.mark.parametrize("k", range(10, 18))
def test_inverse_and_lu_factor_share_the_threshold_on_diagonals(k):
    a = np.diag([1.0, 10.0**-k])
    if k <= 13:
        assert inverse(a)[1, 1] == pytest.approx(10.0**k, rel=1e-15)
        lu_factor(a)
    else:
        with pytest.raises(SingularMatrix, match="singular"):
            inverse(a)
        with pytest.raises(SingularMatrix):
            lu_factor(a)


@pytest.mark.parametrize("n", range(2, 14))
def test_inverse_and_lu_factor_on_hilbert_matrices(n):
    # Both accept n <= 10 and refuse n >= 12.  At n = 11 (condition about
    # 5e14) max|A| * max|A^-1| is 1.17e14: inverse refuses, while every
    # pivot of lu_factor stays above 1e-14.
    h = 1.0 / (np.arange(n)[:, None] + np.arange(n)[None, :] + 1.0)
    if n <= 10:
        inverse(h)
        lu_factor(h)
    elif n == 11:
        lu_factor(h)
        with pytest.raises(SingularMatrix, match="singular"):
            inverse(h)
    else:
        with pytest.raises(SingularMatrix, match="singular"):
            inverse(h)
        with pytest.raises(SingularMatrix):
            lu_factor(h)


def test_inverse_refuses_an_inverse_that_overflows():
    # 1 / 1e-310 is past the largest float; LAPACK returns NaN and inf
    # entries here, and neither may be returned.
    with pytest.raises(SingularMatrix, match="singular"):
        inverse(1e-310 * np.eye(2))


def test_inverse_of_entries_near_the_largest_float():
    # Unscaled, the elimination overflows and LAPACK returns the singular
    # [[1e-308, 0], [0, -0]] with a condition product far below the limit.
    inv = inverse(np.array([[1e308, 1e308], [1e308, -1e308]]))
    assert np.allclose(inv, 5e-309 * np.array([[1.0, 1.0], [1.0, -1.0]]), rtol=1e-15, atol=0.0)


def test_inverse_repeats_bit_identically():
    rng = np.random.default_rng(19)
    for n in (3, 40, 225):
        a = rng.normal(size=(n, n))
        assert np.array_equal(inverse(a), inverse(a.copy()))


def test_determinant_examples():
    assert determinant(np.eye(4)) == 1.0
    assert determinant(np.diag([2.0, 3.0, 4.0])) == pytest.approx(24.0)
    assert determinant(SAMPLE_A) == pytest.approx(3.32, rel=1e-12)


def test_determinant_never_raises_on_singular():
    assert determinant(np.zeros((3, 3))) == 0.0
    assert determinant([[1.0, 2.0], [2.0, 4.0]]) == pytest.approx(0.0, abs=1e-12)


def test_determinant_of_inverse_is_reciprocal():
    rng = np.random.default_rng(13)
    for _ in range(20):
        a = random_well_conditioned(rng, 5)
        assert determinant(a) * determinant(inverse(a)) == pytest.approx(1.0, rel=1e-8)


def _unblocked_perm_sign(a):
    """Reference: plain column-by-column elimination with the same pivot rule
    (largest magnitude, lowest row index on ties) and no blocking."""
    m = np.array(a, dtype=float)
    n = m.shape[0]
    perm = np.arange(n)
    sign = 1
    for col in range(n):
        piv = col + int(np.argmax(np.abs(m[col:, col])))
        if piv != col:
            m[[col, piv]] = m[[piv, col]]
            perm[[col, piv]] = perm[[piv, col]]
            sign = -sign
        if m[col, col] != 0.0:
            m[col + 1 :, col] /= m[col, col]
            m[col + 1 :, col + 1 :] -= np.outer(m[col + 1 :, col], m[col, col + 1 :])
    return perm, sign


BLOCK = linalg.BLOCK


@pytest.mark.parametrize("n", [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3, 225])
def test_blocked_factor_matches_unblocked_pivoting(n):
    rng = np.random.default_rng(n)
    # Gaussian entries swap rows in most columns; the diagonally dominant
    # matrix in few or none.
    for a in (rng.normal(size=(n, n)), random_well_conditioned(rng, n)):
        f = lu_factor(a)
        perm, sign = _unblocked_perm_sign(a)
        assert np.array_equal(f.perm, perm)
        assert f.sign == sign
        scale = np.max(np.abs(a))
        assert np.max(np.abs(a[f.perm] - f.lower @ f.upper)) <= 1e-13 * n * scale
        expected = lu_solve(f, np.eye(n))
        assert np.max(np.abs(inverse(a) - expected)) <= 1e-11 * np.max(np.abs(expected))


def test_pivot_tie_in_second_panel_breaks_low():
    # n = BLOCK + 4 factors as panels of 4 and BLOCK columns.  In
    # [[I, C], [D, B]] with |D| <= 1/2 the first panel keeps its diagonal
    # pivots and leaves the Schur complement S = B - D C for the second
    # panel; S's first column ties rows 1 and 2 (magnitude 3).  Halves times
    # small integers keep every step exact.
    rng = np.random.default_rng(5)
    s = np.diag(np.full(BLOCK, 8.0))
    s[:4, 0] = [1.0, -3.0, 3.0, 2.0]
    c = rng.integers(-2, 3, size=(4, BLOCK)).astype(float)
    d = rng.integers(-1, 2, size=(BLOCK, 4)) / 2.0
    a = np.block([[np.eye(4), c], [d, s + d @ c]])
    f = lu_factor(a)
    assert list(f.perm[:5]) == [0, 1, 2, 3, 5]
    assert f.upper[4, 4] == -3.0
    assert np.array_equal(f.perm, _unblocked_perm_sign(a)[0])


def test_zero_pivot_in_later_panel():
    # Panels of 3, BLOCK and BLOCK columns: column BLOCK + 3 opens the third.
    # A zero column stays exactly zero through every update, so its pivot is 0.
    n, col = 2 * BLOCK + 3, BLOCK + 3
    a = random_well_conditioned(np.random.default_rng(3), n)
    a[:, col] = 0.0
    with pytest.raises(SingularMatrix, match=f"in column {col} "):
        lu_factor(a)
    assert determinant(a) == 0.0
