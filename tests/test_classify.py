"""Structure predicates and the two monotonicity certificates."""

import numpy as np
import pytest
from conftest import (
    SAMPLE_A,
    random_qds_matrix,
    random_sdd_m_matrix,
    random_symmetric_sdd_m_matrix,
)

from monobound import (
    NotSymmetric,
    OrderOutOfRange,
    ZeroDiagonal,
    classify_matrix,
    gavrilov_check,
    inverse,
    is_irreducible,
    is_irreducibly_diag_dominant,
    is_m_matrix,
    is_monotone,
    is_quasi_doubly_stochastic,
    is_strictly_diag_dominant,
    is_z_matrix,
    main_bound,
    sigma_vector,
    strict_dominance_set,
    verify_kuttler,
)


def test_sigma_of_sample(sample_a):
    assert np.allclose(sigma_vector(sample_a), [0.375, 2.0 / 7.0, 0.375])
    assert strict_dominance_set(sigma_vector(sample_a)) == (0, 1, 2)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("k", [-1023, 1023])
def test_sigma_near_the_float_range_ends(k):
    # Row sums of 2^1023 * SAMPLE_A overflow unless the ratios are taken at
    # a smaller scale; the ratios themselves do not depend on the scale.
    scaled = 2.0**k * SAMPLE_A
    assert np.array_equal(sigma_vector(scaled), sigma_vector(SAMPLE_A))
    report, reference = classify_matrix(scaled), classify_matrix(SAMPLE_A)
    assert report.is_strictly_diag_dominant == reference.is_strictly_diag_dominant
    assert report.is_irreducibly_diag_dominant == reference.is_irreducibly_diag_dominant
    assert report.strict_set == reference.strict_set
    bound, reference_bound = main_bound(scaled), main_bound(SAMPLE_A)
    assert bound.preconditions_ok == reference_bound.preconditions_ok
    assert bound.precondition_detail == reference_bound.precondition_detail


def test_sigma_zero_diagonal():
    with pytest.raises(ZeroDiagonal):
        sigma_vector(np.array([[0.0, 1.0], [1.0, 1.0]]))


def test_monotone_sample(sample_a):
    check = is_monotone(sample_a)
    assert check
    assert check.location == (0, 1)
    assert check.value == pytest.approx(0.24 / 3.32, rel=1e-12)
    assert not check.singular


def test_monotone_boundary_case(sample_a):
    # just inside the uniform threshold 6/65: smallest entry barely positive
    check = is_monotone(sample_a + 0.0923 * np.ones((3, 3)))
    assert check.monotone
    assert 0.0 <= check.value < 1e-4


def test_not_monotone_with_witness():
    check = is_monotone(np.array([[1.0, 2.0], [0.0, 1.0]]))
    assert not check
    assert check.location == (0, 1)
    assert check.value == pytest.approx(-2.0)
    assert not check.singular


def test_singular_is_not_monotone():
    check = is_monotone(np.ones((2, 2)))
    assert not check
    assert check.singular
    assert check.location is None and check.value is None


def test_z_and_m_matrix(sample_a):
    assert is_z_matrix(sample_a)
    assert is_m_matrix(sample_a)
    assert not is_z_matrix(np.array([[1.0, 0.5], [-0.1, 1.0]]))
    # monotone but not Z: permutations invert to themselves
    flip = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert is_monotone(flip)
    assert not is_m_matrix(flip)


def test_dominance_flags(sample_a):
    assert is_strictly_diag_dominant(sample_a)
    assert is_irreducibly_diag_dominant(sample_a)
    # boundary rows plus one strict row: irreducibly but not strictly dominant
    a = np.array([[1.0, -1.0, 0.0], [-0.5, 1.0, -0.5], [0.0, -0.9, 1.0]])
    assert not is_strictly_diag_dominant(a)
    assert is_irreducibly_diag_dominant(a)
    # reducible chain fails the irreducible half
    assert not is_irreducibly_diag_dominant(np.array([[1.0, -0.5], [0.0, 1.0]]))


def test_irreducible(sample_a):
    assert is_irreducible(sample_a)
    assert is_irreducible(np.ones((1, 1)))
    assert not is_irreducible(np.eye(2))


def test_quasi_doubly_stochastic(sample_a):
    assert is_quasi_doubly_stochastic(sample_a)
    assert not is_quasi_doubly_stochastic(1.1 * np.eye(2))


def test_sdd_z_with_positive_diagonal_is_m_matrix():
    rng = np.random.default_rng(37)
    for _ in range(25):
        a = random_sdd_m_matrix(rng, int(rng.integers(2, 9)))
        assert is_strictly_diag_dominant(a)
        assert is_z_matrix(a)
        assert is_m_matrix(a)


def test_qds_inverse_closure():
    rng = np.random.default_rng(41)
    for _ in range(25):
        a = random_qds_matrix(rng, int(rng.integers(2, 9)))
        assert np.all(np.abs(a.sum(axis=0) - 1.0) <= 1e-10)
        assert np.all(np.abs(a.sum(axis=1) - 1.0) <= 1e-10)
        assert is_quasi_doubly_stochastic(inverse(a))


def test_kuttler_self_certificate(sample_a):
    # M = A is monotone and A 1 = row sums = 1 > 0
    assert verify_kuttler(sample_a, sample_a, np.ones(3))


def test_kuttler_rejects_bad_witness(sample_a):
    assert not verify_kuttler(sample_a, sample_a, np.zeros(3))
    assert not verify_kuttler(sample_a, sample_a, np.array([1.0, -1.0, 1.0]))


def test_kuttler_rejects_non_dominating_certificate(sample_a):
    m = sample_a.copy()
    m[0, 0] -= 1.0
    assert not verify_kuttler(sample_a, m, np.ones(3))


def test_kuttler_requires_strictly_positive_product():
    a = np.array([[1.0, -1.0], [0.0, 1.0]])  # A 1 = (0, 1), not strictly positive
    assert not verify_kuttler(a, np.eye(2), np.ones(2))


def test_kuttler_soundness_fuzz():
    rng = np.random.default_rng(43)
    fired = 0
    for _ in range(60):
        n = int(rng.integers(2, 7))
        m = random_sdd_m_matrix(rng, n)
        assert verify_kuttler(m, m, np.ones(n))  # self-certificate always fires
        delta = rng.uniform(0.0, 0.1, size=(n, n)) * (rng.uniform(size=(n, n)) < 0.4)
        a = m - delta
        if verify_kuttler(a, m, np.ones(n)):
            fired += 1
            assert is_monotone(a)
    assert fired > 0


def test_gavrilov_on_symmetric_m_matrices():
    rng = np.random.default_rng(47)
    for _ in range(10):
        n = int(rng.integers(3, 7))
        a = random_symmetric_sdd_m_matrix(rng, n)
        for order in range(2, n):
            assert gavrilov_check(a, order)
        assert is_monotone(a)


def test_gavrilov_rejects_asymmetric(sample_a):
    with pytest.raises(NotSymmetric):
        gavrilov_check(sample_a, 2)


def test_gavrilov_order_range():
    a = np.eye(4)
    with pytest.raises(OrderOutOfRange):
        gavrilov_check(a, 1)
    with pytest.raises(OrderOutOfRange):
        gavrilov_check(a, 4)


def test_gavrilov_fails_on_indefinite():
    assert not gavrilov_check(np.diag([1.0, -1.0, 1.0]), 2)


def test_gavrilov_needs_the_last_leading_minor_positive():
    # 1.9 I - 0.9 J: every 2x2 principal submatrix is a monotone M-matrix
    # and the first two leading minors are positive, but the determinant is
    # -2.888, so the matrix is not positive definite (and not monotone).
    a = 1.9 * np.eye(3) - 0.9 * np.ones((3, 3))
    assert not gavrilov_check(a, 2)
    assert not is_monotone(a)


def test_gavrilov_detects_bad_submatrix():
    # positive definite, but the {0,1} block has a positive off-diagonal
    a = np.array([[2.0, 0.5, 0.0], [0.5, 2.0, 0.0], [0.0, 0.0, 2.0]])
    assert not gavrilov_check(a, 2)


def test_gavrilov_soundness_fuzz():
    # random symmetric matrices rarely pass; the point is: no false proof
    rng = np.random.default_rng(53)
    for _ in range(40):
        n = int(rng.integers(3, 6))
        b = 0.4 * rng.normal(size=(n, n))
        a = rng.uniform(1.0, 2.0) * np.eye(n) + (b + b.T) / 2.0
        if gavrilov_check(a, 2):
            assert is_monotone(a)


def test_classify_identity_flags():
    rep = classify_matrix(np.eye(3))
    assert rep.is_z_matrix and rep.is_m_matrix and rep.is_monotone
    assert rep.is_strictly_diag_dominant
    assert rep.is_quasi_doubly_stochastic
    assert not rep.is_irreducible
    assert not rep.is_irreducibly_diag_dominant
    assert rep.strict_set == (0, 1, 2)
    assert np.array_equal(rep.sigma, np.zeros(3))


def test_classify_sample(sample_a):
    rep = classify_matrix(sample_a)
    assert rep.is_z_matrix and rep.is_m_matrix and rep.is_monotone
    assert rep.is_strictly_diag_dominant and rep.is_irreducibly_diag_dominant
    assert rep.is_irreducible and rep.is_quasi_doubly_stochastic
    assert rep.monotone_witness.location == (0, 1)


def test_classify_zero_diagonal_raises():
    with pytest.raises(ZeroDiagonal):
        classify_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
