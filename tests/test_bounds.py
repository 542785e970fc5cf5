"""Closed-form bound routines and their cross-checks."""

import math
import warnings

import numpy as np
import pytest
from conftest import (
    SAMPLE_A,
    random_qds_m_matrix,
    random_sdd_m_matrix,
    random_tridiagonal_m_matrix,
    random_well_conditioned,
)

from monobound import (
    BandwidthViolation,
    EmptyPerturbation,
    IndexOutOfRange,
    NotTridiagonal,
    SingularMatrix,
    SingularSubmatrix,
    ZeroMarginal,
    bisection_vstar,
    bouchon_bound,
    bouchon_quantities,
    buffoni_vstar,
    corollary_bound,
    inverse,
    inverse_stats,
    is_monotone,
    main_bound,
    sigma_via_determinant,
    tridiagonal_bound,
)


def test_inverse_stats_sample(sample_a):
    stats = inverse_stats(sample_a)
    assert stats.total == pytest.approx(3.0, abs=1e-12)
    assert np.allclose(stats.row_sums, 1.0)
    assert np.allclose(stats.col_sums, 1.0)
    assert stats.buffoni_number == pytest.approx(6.0 / 83.0, rel=1e-12)
    assert stats.ratio_argmin == (0, 1)


def test_inverse_stats_marginals_are_consistent():
    rng = np.random.default_rng(59)
    for _ in range(15):
        stats = inverse_stats(random_sdd_m_matrix(rng, 6))
        assert stats.row_sums.sum() == pytest.approx(stats.total, rel=1e-10)
        assert stats.col_sums.sum() == pytest.approx(stats.total, rel=1e-10)
        # for inverse-positive matrices the number-times-total never exceeds 1
        assert stats.buffoni_number * stats.total <= 1.0 + 1e-12


def test_inverse_stats_singular():
    with pytest.raises(SingularMatrix):
        inverse_stats(np.ones((2, 2)))


def test_inverse_stats_zero_marginal():
    # inverse of [[1,1],[-1,1]] has a zero row sum
    with pytest.raises(ZeroMarginal):
        inverse_stats(np.array([[1.0, 1.0], [-1.0, 1.0]]))


def test_sigma_via_determinant_examples(sample_a):
    assert sigma_via_determinant(sample_a) == pytest.approx(3.0, abs=1e-10)
    assert sigma_via_determinant(np.eye(2)) == pytest.approx(2.0, abs=1e-12)
    with pytest.raises(SingularMatrix):
        sigma_via_determinant(np.ones((2, 2)))


def test_sigma_routes_agree():
    rng = np.random.default_rng(61)
    for _ in range(20):
        a = random_well_conditioned(rng, int(rng.integers(2, 9)))
        assert sigma_via_determinant(a) == pytest.approx(inverse_stats(a).total, rel=1e-8)


def test_sigma_via_determinant_survives_overflowing_determinants():
    # det(A) and det(A + J) of this 400x400 block both overflow.
    n = 400
    a = 20.1 * np.eye(n) - 10.0 * (np.eye(n, k=1) + np.eye(n, k=-1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        total = sigma_via_determinant(a)
    assert total == pytest.approx(inverse_stats(a).total, rel=1e-8)


def _hilbert(n):
    return 1.0 / (np.arange(n)[:, None] + np.arange(n)[None, :] + 1.0)


@pytest.mark.parametrize("n", [10, 11, 12])
def test_sigma_via_determinant_refuses_what_inverse_refuses(n):
    # One singularity rule: the Hilbert matrix of order 11 (condition about
    # 5e14) is refused by inverse and by the determinant route alike.
    h = _hilbert(n)
    if n <= 10:
        inverse(h)
        sigma_via_determinant(h)
    else:
        with pytest.raises(SingularMatrix, match="singular"):
            inverse(h)
        with pytest.raises(SingularMatrix, match="singular"):
            sigma_via_determinant(h)


@pytest.mark.parametrize("k", [-600, -300, -53, -1, 1, 53, 300, 600])
def test_sigma_via_determinant_is_scale_covariant(k):
    # The total of the inverse entries of cA is the total for A over c.
    # det(cA) and det(cA + J) over- or underflow at |k| = 600.
    rng = np.random.default_rng(71)
    c = 2.0**k
    for a in (SAMPLE_A, random_sdd_m_matrix(rng, 7), random_tridiagonal_m_matrix(rng, 12)):
        assert sigma_via_determinant(c * a) == pytest.approx(
            sigma_via_determinant(a) / c, rel=1e-12
        )


def test_main_bound_sample(sample_a):
    res = main_bound(sample_a)
    assert res.value == pytest.approx(6.0 / 65.0, rel=1e-12)
    assert res.method == "main" and res.bound_kind == "componentwise"
    assert res.preconditions_ok


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("k", [-1000, -600, -500, -300, 300, 500, 600, 1000])
def test_main_bound_scales_exactly(k):
    # Powers of two scale the inverse without rounding, so the bound scales
    # exactly; the marginal floor must scale with it.  Beyond 2^+-512 the
    # product of two inverse sums over- or underflows unless the ratios are
    # taken at unit scale.
    scale = 2.0**k
    assert main_bound(scale * SAMPLE_A).value == scale * main_bound(SAMPLE_A).value


def test_main_bound_identity_is_zero():
    # zero entries in the inverse give a zero bound, and indeed any uniform
    # perturbation of the identity immediately breaks monotonicity
    res = main_bound(np.eye(3))
    assert res.value == 0.0
    assert res.preconditions_ok


def test_main_bound_flags_non_m_matrix():
    res = main_bound(np.array([[1.0, 0.5], [0.2, 1.0]]))
    assert not res.preconditions_ok
    assert res.value >= 0.0


def test_main_bound_equals_uniform_threshold(sample_a):
    vstar = buffoni_vstar(sample_a, np.ones((3, 3))).vstar
    assert main_bound(sample_a).value == pytest.approx(vstar, rel=1e-9)


def test_main_bound_sound_and_tight_random():
    rng = np.random.default_rng(67)
    for _ in range(20):
        a = random_sdd_m_matrix(rng, int(rng.integers(3, 8)))
        v = main_bound(a).value
        ones = np.ones(a.shape)
        assert is_monotone(a + v * ones)
        assert not is_monotone(a + 1.01 * v * ones)


def test_corollary_sample(sample_a):
    res = corollary_bound(sample_a)
    assert res.preconditions_ok  # the sample is quasi-doubly-stochastic
    assert res.value == pytest.approx(6.0 / 65.0, rel=1e-12)
    assert res.method == "corollary"


def test_corollary_matches_main_on_qds_matrices():
    rng = np.random.default_rng(71)
    for _ in range(15):
        a = random_qds_m_matrix(rng, int(rng.integers(3, 8)))
        c = corollary_bound(a)
        m = main_bound(a)
        assert c.preconditions_ok and m.preconditions_ok
        assert c.value == pytest.approx(m.value, rel=1e-12)


def test_corollary_flags_non_qds():
    res = corollary_bound(np.diag([2.0, 2.0]))
    assert not res.preconditions_ok
    assert res.value == 0.0


def test_bouchon_quantities_sample(sample_a):
    q = bouchon_quantities(sample_a, np.ones((3, 3)))
    assert q.min_diag == pytest.approx(1.4)
    assert q.eta == pytest.approx(4.0)
    assert q.distance_max == 2
    assert q.coefficient == pytest.approx(1.0 / (32.0 * math.e), rel=1e-12)


def test_bouchon_bound_sample(sample_a):
    res = bouchon_bound(sample_a, np.ones((3, 3)))
    assert res.value == pytest.approx(1.4 / (32.0 * math.e), rel=1e-12)
    assert res.preconditions_ok
    assert res.bound_kind == "inf-norm"


def test_bouchon_bound_cycle_shift():
    # 2 (I - cycle/2) on three nodes: eta = 2, largest distance 2
    cycle = np.roll(np.eye(3), 1, axis=1)
    res = bouchon_bound(2.0 * np.eye(3) - cycle, np.ones((3, 3)))
    assert res.value == pytest.approx(2.0 / (8.0 * math.e), rel=1e-12)
    assert res.preconditions_ok


def test_bouchon_bound_is_safe(sample_a):
    v = bouchon_bound(sample_a, np.ones((3, 3))).value
    assert is_monotone(sample_a + 0.999 * v * np.ones((3, 3)))


def test_bouchon_error_passthrough(sample_a):
    with pytest.raises(EmptyPerturbation):
        bouchon_bound(sample_a, np.eye(3))


def test_bouchon_coefficient_underflows_to_zero():
    # eta^M = 2^1099 overflows a float; the coefficient underflows to 0.0.
    n = 1100
    a = 2.0 * np.eye(n) - np.eye(n, k=1)
    e = np.zeros((n, n))
    e[0, n - 1] = 1.0
    q = bouchon_quantities(a, e)
    assert (q.eta, q.distance_max, q.coefficient) == (2.0, n - 1, 0.0)


def test_eta_matches_row_loop():
    rng = np.random.default_rng(37)
    for _ in range(20):
        n = int(rng.integers(2, 9))
        a = np.where(rng.random((n, n)) < 0.4, rng.choice([1e-12, -0.5, 2.0], (n, n)), 0.0)
        a[0, 1] = -1.0  # keep one supported pair reachable
        np.fill_diagonal(a, rng.uniform(1.0, 3.0, n))
        expected = 0.0
        for i in range(n):
            off = np.abs(np.delete(a[i], i))
            off = off[off > 0.0]
            if off.size:
                expected = max(expected, abs(a[i, i]) / float(off.max()))
        e = np.zeros((n, n))
        e[0, 1] = 1.0
        assert bouchon_quantities(a, e).eta == expected


def test_componentwise_dominates_norm_bound_here(sample_a):
    assert main_bound(sample_a).value > bouchon_bound(sample_a, np.ones((3, 3))).value


def test_tridiagonal_sample_both_directions():
    a = np.array([[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 2.0]])
    up = tridiagonal_bound(a, 0, 2)
    down = tridiagonal_bound(a, 2, 0)
    assert up.value == pytest.approx(0.5)
    assert down.value == pytest.approx(0.5)
    assert up.preconditions_ok and up.bound_kind == "single-entry"


def test_tridiagonal_is_sharp():
    rng = np.random.default_rng(73)
    for _ in range(10):
        n = int(rng.integers(4, 8))
        a = random_tridiagonal_m_matrix(rng, n)
        h = tridiagonal_bound(a, 0, n - 1).value
        e = np.zeros((n, n))
        e[0, n - 1] = 1.0
        assert is_monotone(a + h * e)
        assert not is_monotone(a + 1.01 * h * e)


def test_tridiagonal_against_bisection_oracle():
    rng = np.random.default_rng(79)
    a = random_tridiagonal_m_matrix(rng, 5)
    for l, k in [(0, 2), (0, 3), (1, 4), (3, 0), (4, 1)]:
        h = tridiagonal_bound(a, l, k).value
        e = np.zeros((5, 5))
        e[l, k] = 1.0
        # tighten the monotonicity slack so the oracle can localize the
        # threshold below the comparison tolerance
        oracle = bisection_vstar(a, e, abs_tol=1e-10 * h, tol=1e-13)
        assert h == pytest.approx(oracle, rel=1e-8)


def test_tridiagonal_matches_buffoni_on_single_entries():
    # A single entry e_l e_k^T is rank one, so buffoni_vstar takes the
    # Sherman-Morrison route, independent of the chain/determinant formula.
    # A quarter of the draws zero two subdiagonal entries: a broken chain
    # gives 0.  Neither side can be infinite on a nonsingular tridiagonal
    # M-matrix; if one is, both must be.
    rng = np.random.default_rng(113)
    failures = []
    for trial in range(150):
        n = int(rng.integers(3, 21))
        a = random_tridiagonal_m_matrix(rng, n)
        if trial % 4 == 0:
            cut = rng.integers(0, n - 1, size=2)
            a[cut + 1, cut] = 0.0
        l, k = 0, 0
        while abs(l - k) < 2:
            l, k = (int(x) for x in rng.integers(0, n, size=2))
        h = tridiagonal_bound(a, l, k).value
        e = np.zeros((n, n))
        e[l, k] = 1.0
        vstar = buffoni_vstar(a, e).vstar
        if math.isinf(vstar) or math.isinf(h):
            ok = vstar == h
        else:
            ok = abs(vstar - h) <= max(1e-6, 1e-6 * vstar)
        if not ok:
            failures.append((n, l, k, h, vstar))
    assert not failures, failures


def test_tridiagonal_survives_overflowing_determinant():
    # The chain product 10^999 and the block determinant both overflow.
    n = 1000
    a = 20.1 * np.eye(n) - 10.0 * (np.eye(n, k=1) + np.eye(n, k=-1))
    res = tridiagonal_bound(a, 0, n - 1)
    assert res.preconditions_ok
    assert res.value == pytest.approx(8.582437412178166e-44, rel=1e-9)  # from slogdet


def test_tridiagonal_zero_chain_entry_gives_positive_zero():
    # The chain for (2, 0) is (-0.0, 1.0): the value is 0, reported as 0.0.
    a = np.array([[2.0, -1.0, 0.0], [0.0, 2.0, -1.0], [0.0, -1.0, 2.0]])
    assert math.copysign(1.0, tridiagonal_bound(a, 2, 0).value) == 1.0


def test_tridiagonal_singular_block_raises():
    # The block strictly between (0, 3) is [[1, 1], [1, 1]].
    a = np.array(
        [
            [2.0, -1.0, 0.0, 0.0],
            [-1.0, 1.0, 1.0, 0.0],
            [0.0, 1.0, 1.0, -1.0],
            [0.0, 0.0, -1.0, 2.0],
        ]
    )
    with pytest.raises(SingularSubmatrix, match="principal block 1..2"):
        tridiagonal_bound(a, 0, 3)


@pytest.mark.parametrize("k", range(10, 18))
def test_tridiagonal_block_follows_the_inverse_singularity_rule(k):
    # The block strictly between (0, 3) is [[1, -1], [0, 10^-k]], with
    # max|B| * max|B^-1| = 10^k: inverse refuses it from k = 14 on, and so
    # must tridiagonal_bound.
    a = np.array(
        [
            [2.0, -1.0, 0.0, 0.0],
            [-1.0, 1.0, -1.0, 0.0],
            [0.0, 0.0, 10.0**-k, -1.0],
            [0.0, 0.0, -1.0, 2.0],
        ]
    )
    if k <= 13:
        inverse(a[1:3, 1:3])
        assert tridiagonal_bound(a, 0, 3).value == pytest.approx(10.0**k, rel=1e-12)
    else:
        with pytest.raises(SingularMatrix):
            inverse(a[1:3, 1:3])
        with pytest.raises(SingularSubmatrix):
            tridiagonal_bound(a, 0, 3)


@pytest.mark.parametrize("k", [-600, -300, -53, -1, 1, 53, 300, 600])
def test_tridiagonal_is_scale_covariant(k):
    # The chain product and the block determinant of cA scale by c^(j+1)
    # and c^j for a block of order j, so the value scales by c; at
    # |k| = 600 both over- or underflow.
    rng = np.random.default_rng(73)
    c = 2.0**k
    for n in (5, 12, 30):
        a = random_tridiagonal_m_matrix(rng, n)
        for l, j in [(0, n - 1), (n - 1, 0), (1, 3)]:
            value = tridiagonal_bound(a, l, j).value
            assert tridiagonal_bound(c * a, l, j).value == pytest.approx(c * value, rel=1e-12)


def test_tridiagonal_reversal_maps_the_entry():
    # J A J reverses rows and columns, so (l, k) of A is (n-1-l, n-1-k) there.
    rng = np.random.default_rng(83)
    for n in (4, 9, 20):
        a = random_tridiagonal_m_matrix(rng, n)
        reversed_a = a[::-1, ::-1]
        for l in range(n):
            for k in range(n):
                if abs(l - k) >= 2:
                    assert tridiagonal_bound(reversed_a, n - 1 - l, n - 1 - k).value == (
                        pytest.approx(tridiagonal_bound(a, l, k).value, rel=1e-12)
                    )


def test_tridiagonal_errors():
    a = np.array([[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 2.0]])
    with pytest.raises(BandwidthViolation):
        tridiagonal_bound(a, 0, 1)
    with pytest.raises(BandwidthViolation):
        tridiagonal_bound(a, 1, 1)
    with pytest.raises(IndexOutOfRange):
        tridiagonal_bound(a, 0, 3)
    spoiled = a.copy()
    spoiled[0, 2] = -0.1
    with pytest.raises(NotTridiagonal):
        tridiagonal_bound(spoiled, 0, 2)


def test_tridiagonal_flags_non_m_matrix():
    a = np.array([[2.0, 1.0, 0.0], [1.0, 2.0, 1.0], [0.0, 1.0, 2.0]])
    res = tridiagonal_bound(a, 0, 2)
    assert not res.preconditions_ok
    assert res.value >= 0.0
