"""Inverse checks.

``lu_factor`` below is an unblocked Python elimination with partial
pivoting, kept here as the second engine that ``inverse`` (one LAPACK call,
or block elimination for a Z-matrix above ``linalg.BLOCK_LEAF_ORDER``) is
compared with, beside the 50-digit mpmath oracle of
``test_high_precision.py``.  ``_dense_block_inverse`` is the block
elimination with every product over whole blocks, the reference for the
block path's products over the nonzero spans.  ``_leaf_guard_rule`` and
``_classify_rule`` are the two monotonicity rules that
``linalg._monotone_check`` replaced, kept as references for it."""

import math
import warnings
from unittest import mock

import numpy as np
import pytest
from conftest import (
    SAMPLE_A,
    SAMPLE_A_INV_4DP,
    column_span_scans,
    grid_laplacian,
    matmul_shapes,
    random_sdd_m_matrix,
    random_well_conditioned,
    whole_span,
)
from hypothesis import given, settings
from hypothesis import strategies as st

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
    with pytest.raises(DimensionMismatch, match="at least one row"):
        inverse(np.zeros((0, 0)))
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


def _leaf_guard_rule(inv):
    """Reference: the block inverse's own leaf guard before it called the
    shared verdict, a finite largest entry and the smallest at least
    -MONOTONE_RTOL times it."""
    low, high = float(inv.min()), float(inv.max())
    return math.isfinite(high) and low >= -linalg.MONOTONE_RTOL * high


def _classify_rule(inv):
    """Reference: classify's verdict before it moved beside the inverse,
    (monotone, location, value), with no test that max|Z| is finite."""
    flat = int(np.argmin(inv))
    location = (flat // inv.shape[0], flat % inv.shape[0])
    value = float(inv[location])
    slack = linalg.MONOTONE_RTOL * max(float(inv.max()), -value)
    return value >= -slack, location, value


_AWKWARD_ENTRIES = [
    0.0, -0.0, 1.0, -1.0, 2.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-300,
    1e-10, -1e-10, 1e308, -1e308, 1.7976931348623157e308, math.inf, -math.inf, math.nan,
]


@st.composite
def verdict_inputs(draw):
    """Square arrays of negative, zero, subnormal, huge, infinite and NaN
    entries; half of them nonnegative but for one entry near the slack."""
    n = draw(st.integers(1, 4))
    entry = st.one_of(st.sampled_from(_AWKWARD_ENTRIES), st.floats())
    z = np.array(draw(st.lists(entry, min_size=n * n, max_size=n * n))).reshape(n, n)
    if draw(st.booleans()):
        np.abs(z, out=z)
        top = float(z.max())
        if math.isfinite(top):
            ratio = draw(st.sampled_from([0.0, 0.5, 1.0, 1.0 + 1e-15, 2.0]))
            z.flat[draw(st.integers(0, n * n - 1))] = -ratio * linalg.MONOTONE_RTOL * top
    return z


@settings(max_examples=300, deadline=None)
@given(verdict_inputs())
def test_monotone_check_agrees_with_the_two_rules_it_replaced(z):
    check = linalg._monotone_check(z)
    assert check.monotone == _leaf_guard_rule(z)
    monotone, location, value = _classify_rule(z)
    assert check.location == location
    assert np.array_equal(check.value, value, equal_nan=True)
    z_max = max(float(z.max()), -float(z.min()))
    assert np.array_equal(check._z_max, z_max, equal_nan=True)
    # classify's old rule took an infinite max|Z| as an infinite slack; the
    # verdict reports it as not monotone, as the leaf guard did.
    if math.isinf(z_max):
        assert not check.monotone
    else:
        assert check.monotone == monotone


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
    for a in [rng.normal(size=(n, n)) for n in (3, 40, 225)] + [random_sdd_m_matrix(rng, 225)]:
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
    # back to A outside.  Either way the result is inverse(A) / 2^k exactly,
    # on the block path too (the M-matrices), with its products over whole
    # blocks (the dense one) or over the nonzero spans (the grid).
    rng = np.random.default_rng(257)
    for a in [random_well_conditioned(rng, n) for n in (3, 40, 225)] + [
        random_sdd_m_matrix(rng, 225),
        grid_laplacian(15, 15, 0.1),
    ]:
        a *= 2.0 ** -np.frexp(np.abs(a).max())[1]
        assert np.array_equal(inverse(2.0**k * a), inverse(a) / 2.0**k)


def _ring_laplacian(n):
    """Laplacian of the n-cycle: a singular M-matrix."""
    return 2.0 * np.eye(n) - np.roll(np.eye(n), 1, axis=1) - np.roll(np.eye(n), -1, axis=1)


def _block_calls():
    """Patch that counts calls of linalg._block_inverse, recursive ones
    included."""
    return mock.patch.object(linalg, "_block_inverse", wraps=linalg._block_inverse)


#: Grid shapes of each order; halving 65, 127 and 129 splits unevenly.
GRIDS = {65: (5, 13), 127: (1, 127), 128: (8, 16), 129: (3, 43), 225: (15, 15), 500: (20, 25)}


def _dense_block_inverse(a, out):
    """Reference: the block elimination of linalg._block_inverse with every
    product over whole blocks, no zero row or column of A21 and A12
    skipped, and no leaf guard (it is called on M-matrices only)."""
    n = a.shape[0]
    if n <= linalg.BLOCK_LEAF_ORDER:
        out[...] = np.linalg.inv(a)
        return
    k = n // 2
    x, s_inv, lower = out[:k, :k], out[k:, k:], out[k:, :k]
    _dense_block_inverse(a[:k, :k], x)
    neg_c = -(a[k:, :k] @ x)
    _dense_block_inverse(a[k:, k:] + neg_c @ a[:k, k:], s_inv)
    lower[...] = s_inv @ neg_c
    neg_x_a12 = -(x @ a[:k, k:])
    out[:k, k:] = neg_x_a12 @ s_inv
    x += neg_x_a12 @ lower


def _sparse_m_matrices(n):
    """M-matrices of order n whose off-diagonal blocks at the first split
    k = n // 2 have zero rows and columns, with the blocks of their inverse
    that must be exactly zero: block diagonal (no span), block lower
    triangular (A12 = 0), zero in its first n // 3 rows beyond column
    n // 3 (A12 has a partial span), grid Laplacians (every span partial),
    and a grid whose two corner entries make both spans of the first split
    full."""
    rng = np.random.default_rng(n)
    k, third = n // 2, n // 3
    diagonal, triangular, reducible = (random_sdd_m_matrix(rng, n) for _ in range(3))
    diagonal[:k, k:] = diagonal[k:, :k] = 0.0
    triangular[:k, k:] = 0.0
    reducible[:third, third:] = 0.0
    corners = grid_laplacian(*GRIDS[n], 0.5)
    corners[0, -1] = corners[-1, 0] = -0.25
    cases = [
        (diagonal, [np.s_[:k, k:], np.s_[k:, :k]]),
        (triangular, [np.s_[:k, k:]]),
        (reducible, [np.s_[:third, third:]]),
        (corners, []),
    ]
    return cases + [(grid_laplacian(*GRIDS[n], shift), []) for shift in (0.5, 1e-3, 1e-6)]


@pytest.mark.parametrize("n", sorted(GRIDS))
def test_block_inverse_of_dense_m_matrices_is_the_dense_elimination(n):
    # No off-diagonal block has a zero row or column at either end, so every
    # product runs over whole blocks, bit for bit.
    a = random_sdd_m_matrix(np.random.default_rng(n + 1), n)
    dense = np.empty_like(a)
    _dense_block_inverse(a, dense)
    got = inverse(a)
    assert np.array_equal(got, dense)
    expected = _reference_inverse(a)
    assert np.max(np.abs(got - expected)) <= 1e-11 * np.max(np.abs(expected))


@pytest.mark.parametrize("n", sorted(GRIDS))
def test_block_inverse_of_m_matrices_matches_reference_elimination(n):
    for a, zero_blocks in _sparse_m_matrices(n):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = inverse(a)
        # Every leaf passes the guard, so the block result is returned.
        blocks = np.empty_like(a)
        linalg._block_inverse(a, blocks)
        assert np.array_equal(got, blocks)
        dense = np.empty_like(a)
        _dense_block_inverse(a, dense)
        for expected in (_reference_inverse(a), dense):
            assert np.max(np.abs(got - expected)) <= 1e-11 * np.max(np.abs(expected))
        for block in zero_blocks:
            assert not np.any(got[block])


def _splits(n):
    """Number of 2x2 splits that linalg._block_inverse makes at order n."""
    return 0 if n <= linalg.BLOCK_LEAF_ORDER else 1 + _splits(n // 2) + _splits(n - n // 2)


def _inner_dimensions(a):
    """Inner dimension of each matrix product of linalg._block_inverse on
    ``a``, in call order."""
    shapes = matmul_shapes(lambda: linalg._block_inverse(a, np.empty_like(a)))
    return [inner for _, inner, _ in shapes]


@pytest.mark.parametrize("n", sorted(GRIDS))
def test_block_products_run_over_the_nonzero_spans(n):
    # Six products per split.  A banded matrix keeps its bandwidth in every
    # leading block and Schur complement, and each span of a split is at
    # most that wide; products over whole blocks would have inner dimension
    # n // 2 at the first split, above every grid's bandwidth.
    rows, cols = GRIDS[n]
    dims = _inner_dimensions(grid_laplacian(rows, cols, 0.5))
    assert len(dims) == 6 * _splits(n)
    assert max(dims) <= (cols if rows > 1 else 1)
    # A block diagonal matrix: the first split's six products are empty.
    diagonal, _ = _sparse_m_matrices(n)[0]
    assert _inner_dimensions(diagonal).count(0) == 6


@pytest.mark.parametrize("n", [65, 128, 225])
def test_each_span_scans_its_block_only_over_the_rows_that_hold_a_nonzero(n):
    # Per split, the rows of A12 (rr) and of A21 (r) come from whole blocks,
    # then the columns of A12 (c) from its rows rr alone and those of A21
    # (cc) from its rows r.  Each span is the one a pass over the whole block
    # finds, on empty (block diagonal), partial (grids) and full (dense)
    # blocks.
    cases = [a for a, _ in _sparse_m_matrices(n)]
    cases.append(random_sdd_m_matrix(np.random.default_rng(n), n))
    first_split = []
    for a in cases:
        scans = column_span_scans(linalg, lambda: linalg._block_inverse(a, np.empty_like(a)))
        assert len(scans) == 4 * _splits(n)
        for i in range(0, len(scans), 4):
            (a12_t, rr), (a21_t, r), (a12_rows, c), (a21_rows, cc) = scans[i : i + 4]
            blocks = ((a12_t.T, rr, a12_rows, c), (a21_t.T, r, a21_rows, cc))
            for block, rows, scanned, cols in blocks:
                assert rows == whole_span(block.T) and cols == whole_span(block)
                assert np.array_equal(scanned, block[rows])
        first_split.append([span for _, span in scans[:4]])
    k = n // 2
    assert first_split[0] == [slice(0, 0)] * 4
    assert first_split[-1] == [slice(0, k), slice(0, n - k), slice(0, n - k), slice(0, k)]


def _z_not_m(rng, n):
    # 50 I - (J - I): off-diagonal -1, eigenvalues 51 and 50 - (n - 1) = -49.
    # Its leading block of order 50 is an M-matrix, and the Schur
    # complement fails the leaf guard.
    return 51.0 * np.eye(n) - np.ones((n, n))


def _z_overflowing(rng, n):
    # A leading block of order n / 2 at 1e-305 times a shifted ring
    # Laplacian: its leaf inverse is finite, about 1e305, and the Schur
    # complement's product overflows before the next leaf fails the guard.
    k = n // 2
    a = -rng.uniform(0.2, 1.0, (n, n))
    a[:k, :k] = 1e-305 * (_ring_laplacian(k) + 0.01 * np.eye(k))
    a[range(k, n), range(k, n)] = 100.0
    return a


@pytest.mark.parametrize(
    "make, n, attempts_blocks",
    [
        (random_well_conditioned, 225, False),
        (_z_not_m, 100, True),
        (_z_overflowing, 100, True),
        (random_sdd_m_matrix, 64, False),
        (random_sdd_m_matrix, 2, False),
    ],
)
def test_inverse_is_lapack_off_the_block_path(make, n, attempts_blocks):
    a = make(np.random.default_rng(n), n)
    with _block_calls() as spy, warnings.catch_warnings():
        warnings.simplefilter("error")
        got = inverse(a)
    assert spy.called == attempts_blocks
    assert np.array_equal(got, np.linalg.inv(a))


def test_block_path_refuses_singular_inverses():
    n = 100
    ring = _ring_laplacian(n)
    # The ring Laplacian's last Schur complement is singular up to roundoff.
    # A pivot of 1e-307 gives a finite block inverse with entries near
    # 1e307: every leaf passes, and the singularity rule refuses the result.
    tiny = random_sdd_m_matrix(np.random.default_rng(3), n)
    tiny[0] = 0.0
    tiny[0, 0] = 1e-307
    for a in (ring, tiny):
        with _block_calls() as spy, warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularMatrix, match="singular"):
                inverse(a)
        assert spy.called
