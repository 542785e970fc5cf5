"""Inverse checks.

``lu_factor`` below is an unblocked Python elimination with partial
pivoting, kept here as the second engine that the LAPACK-backed ``inverse``
is compared with, beside the 50-digit mpmath oracle of
``test_high_precision.py``."""

import numpy as np
import pytest
from conftest import SAMPLE_A, SAMPLE_A_INV_4DP, random_well_conditioned

from monobound import DimensionMismatch, SingularMatrix, inverse, is_monotone, linalg


def lu_factor(a):
    """Reference: P A = L U, returned as (L, U, perm, sign) with A[perm] = L U.
    The pivot is the largest magnitude, the lowest row index on ties, and a
    pivot at or below SINGULARITY_RTOL * max|A| raises SingularMatrix."""
    m = np.array(a, dtype=float)
    n = m.shape[0]
    threshold = linalg.SINGULARITY_RTOL * np.max(np.abs(m))
    perm, sign = np.arange(n), 1
    for col in range(n):
        piv = col + int(np.argmax(np.abs(m[col:, col])))
        if abs(m[piv, col]) <= threshold:
            raise SingularMatrix(f"pivot in column {col} is at or below {threshold:.3e}")
        if piv != col:
            m[[col, piv]], perm[[col, piv]], sign = m[[piv, col]], perm[[piv, col]], -sign
        m[col + 1 :, col] /= m[col, col]
        m[col + 1 :, col + 1 :] -= np.outer(m[col + 1 :, col], m[col, col + 1 :])
    return np.tril(m, -1) + np.eye(n), np.triu(m), perm, sign


def _reference_inverse(a):
    """Reference: forward and back substitution of lu_factor against I."""
    lower, upper, perm, _ = lu_factor(a)
    x = np.eye(len(perm))[perm]
    for i in range(len(perm)):
        x[i] -= lower[i, :i] @ x[:i]
    for i in reversed(range(len(perm))):
        x[i] = (x[i] - upper[i, i + 1 :] @ x[i + 1 :]) / upper[i, i]
    return x


def test_identity_factors_trivially():
    lower, upper, perm, sign = lu_factor(np.eye(3))
    assert np.array_equal(lower, np.eye(3))
    assert np.array_equal(upper, np.eye(3))
    assert list(perm) == [0, 1, 2]
    assert sign == 1


def test_antidiagonal_needs_one_swap():
    _, _, perm, sign = lu_factor([[0.0, 1.0], [1.0, 0.0]])
    assert sign == -1
    assert list(perm) == [1, 0]


def test_factors_reconstruct_sample():
    lower, upper, perm, _ = lu_factor(SAMPLE_A)
    assert np.max(np.abs(SAMPLE_A[perm] - lower @ upper)) <= 1e-12


def test_pivot_ties_break_low_and_repeat_bit_identically():
    ties = np.array([[2.0, 1.0], [2.0, 3.0]])
    f1 = lu_factor(ties)
    f2 = lu_factor(ties)
    assert f1[2][0] == 0  # tied magnitudes resolve to the lowest row index
    for x, y in zip(f1[:3], f2[:3]):
        assert np.array_equal(x, y)


def test_singular_raises():
    for a in ([[1.0, 2.0], [2.0, 4.0]], np.zeros((2, 2))):
        with pytest.raises(SingularMatrix):
            inverse(a)
        with pytest.raises(SingularMatrix):
            lu_factor(a)


def test_rejects_nonsquare_and_nonfinite():
    with pytest.raises(DimensionMismatch):
        inverse(np.ones((2, 3)))
    with pytest.raises(ValueError):
        inverse(np.array([[1.0, np.inf], [0.0, 1.0]]))


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




def _reference_determinant(a):
    _, upper, _, sign = lu_factor(a)
    return sign * float(np.prod(np.diagonal(upper)))


def test_determinant_examples():
    assert _reference_determinant(np.eye(4)) == 1.0
    assert _reference_determinant(np.diag([2.0, 3.0, 4.0])) == pytest.approx(24.0)
    assert _reference_determinant(SAMPLE_A) == pytest.approx(3.32, rel=1e-12)


def test_determinant_of_inverse_is_reciprocal():
    rng = np.random.default_rng(13)
    for _ in range(20):
        a = random_well_conditioned(rng, 5)
        product = _reference_determinant(a) * _reference_determinant(inverse(a))
        assert product == pytest.approx(1.0, rel=1e-8)


@pytest.mark.parametrize("n", [1, 31, 32, 33, 67, 225])
def test_inverse_matches_reference_elimination(n):
    rng = np.random.default_rng(n)
    # Gaussian entries swap rows in most columns; the diagonally dominant
    # matrix in few or none.
    for a in (rng.normal(size=(n, n)), random_well_conditioned(rng, n)):
        lower, upper, perm, _ = lu_factor(a)
        scale = np.max(np.abs(a))
        assert np.max(np.abs(a[perm] - lower @ upper)) <= 1e-13 * n * scale
        expected = _reference_inverse(a)
        assert np.max(np.abs(inverse(a) - expected)) <= 1e-11 * np.max(np.abs(expected))


@pytest.mark.parametrize("k", [-257, -256, -255, -254, 255, 256, 257, 258])
def test_inverse_scaling_is_bit_exact_on_both_sides_of_the_window(k):
    # max|A| lies in [0.5, 1), so max|2^k A| lies in [2^(k-1), 2^k): inverse
    # passes 2^k A to LAPACK as it is for -255 <= k <= 256 and scales it
    # back to A outside.  Either way the result is inverse(A) / 2^k exactly.
    rng = np.random.default_rng(257)
    for n in (3, 40, 225):
        a = random_well_conditioned(rng, n)
        a *= 2.0 ** -np.frexp(np.abs(a).max())[1]
        assert np.array_equal(inverse(2.0**k * a), inverse(a) / 2.0**k)
