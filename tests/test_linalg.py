"""Factorization, inverse, determinant, and rank-one update checks."""

import numpy as np
import pytest
from conftest import SAMPLE_A, SAMPLE_A_INV_4DP, random_well_conditioned

from monobound import (
    DimensionMismatch,
    SingularMatrix,
    UpdateSingular,
    determinant,
    inverse,
    linalg,
    lu_factor,
    lu_solve,
    sherman_morrison,
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
        assert np.allclose(inv, np.linalg.inv(a), atol=1e-10)


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


def test_sherman_morrison_unit_example():
    e1 = np.array([1.0, 0.0])
    updated = sherman_morrison(np.eye(2), e1, e1, 1.0)
    assert np.allclose(updated, [[0.5, 0.0], [0.0, 1.0]])


def test_sherman_morrison_zero_coefficient_returns_copy():
    inv = inverse(SAMPLE_A)
    out = sherman_morrison(inv, np.ones(3), np.ones(3), 0.0)
    assert np.array_equal(out, inv)
    assert out is not inv


def test_sherman_morrison_matches_direct_inverse():
    rng = np.random.default_rng(17)
    for _ in range(20):
        a = random_well_conditioned(rng, 8)
        u = rng.uniform(-0.5, 0.5, size=8)
        v = rng.uniform(-0.5, 0.5, size=8)
        b = rng.uniform(-0.2, 0.2)
        updated = sherman_morrison(inverse(a), u, v, b)
        assert np.allclose(updated, np.linalg.inv(a + b * np.outer(u, v)), atol=1e-9)


def test_sherman_morrison_detects_singular_update():
    # I2 with u = v = e1 and b = -1 zeroes out the (1,1) pivot exactly.
    e1 = np.array([1.0, 0.0])
    with pytest.raises(UpdateSingular):
        sherman_morrison(np.eye(2), e1, e1, -1.0)


def test_sherman_morrison_rejects_bad_shapes():
    with pytest.raises(DimensionMismatch):
        sherman_morrison(np.eye(3), np.ones(2), np.ones(3), 1.0)


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
        expected = np.linalg.inv(a)
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
