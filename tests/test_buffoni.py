"""Ratio iteration for the exact monotonicity-breaking threshold."""

import numpy as np
import pytest
from conftest import (
    INFINITE_THRESHOLD_PAIRS,
    SAMPLE_A,
    SAMPLE_A_VSTAR_UNIFORM,
    random_nonneg_perturbation,
    random_sdd_m_matrix,
    random_tridiagonal_m_matrix,
)

from monobound import (
    DimensionMismatch,
    NegativePerturbation,
    NotMonotone,
    SingularMatrix,
    bisection_vstar,
    buffoni,
    buffoni_vstar,
    inverse,
    inverse_stats,
    is_monotone,
    main_bound,
    tridiagonal_bound,
)
from monobound.classify import DEFAULT_MONOTONE_TOL


def _unit(n, i, j):
    e = np.zeros((n, n))
    e[i, j] = 1.0
    return e


def _iterate(a, e):
    """The ratio iteration alone, the reference for pairs that
    buffoni_vstar solves in closed form."""
    m, pert, z = buffoni._validated_pair(a, e, DEFAULT_MONOTONE_TOL)
    return buffoni._ratio_iteration(m, pert, z, buffoni._cap(m, pert, z))


def test_single_entry_12(sample_a):
    trace = buffoni_vstar(sample_a, _unit(3, 0, 1))
    assert trace.status == "converged"
    assert trace.vstar == pytest.approx(0.15, abs=1e-10)
    assert trace.iteration_count <= 10


def test_single_entry_13(sample_a):
    trace = buffoni_vstar(sample_a, _unit(3, 0, 2))
    assert trace.status == "converged"
    assert trace.vstar == pytest.approx(0.6, abs=1e-10)


def test_uniform_perturbation(sample_a):
    trace = buffoni_vstar(sample_a, np.ones((3, 3)))
    assert trace.status == "converged"
    assert trace.vstar == pytest.approx(SAMPLE_A_VSTAR_UNIFORM, rel=1e-12)


def test_trace_is_monotone_increasing(sample_a):
    trace = _iterate(sample_a, np.ones((3, 3)))
    assert trace.iteration_count > 1
    vs = [step.v for step in trace.iterates]
    assert vs[0] == 0.0
    assert all(b >= a for a, b in zip(vs, vs[1:]))
    assert all(step.increment >= 0.0 for step in trace.iterates)


def test_diagonal_perturbation_never_breaks():
    # adding mass to the diagonal of the identity keeps the inverse positive
    trace = buffoni_vstar(np.eye(3), np.eye(3))
    assert trace.status == "diverged_infinite"
    assert trace.vstar == np.inf


@pytest.fixture
def probes(monkeypatch):
    """Record each probe of the threshold search as (v, verdict); fail past
    500 instead of running on."""
    seen = []
    checked_inverse = buffoni._checked_inverse

    def counted(m, pert, v, *args):
        verdict, inv = checked_inverse(m, pert, v, *args)
        seen.append((v, verdict))
        if len(seen) > 500:
            pytest.fail("the search made more than 500 probes")
        return verdict, inv

    monkeypatch.setattr(buffoni, "_checked_inverse", counted)
    return seen


def _reference_search(a, e, seed, abs_tol, tol):
    """Reference for the threshold search: the same bracket expansion as
    buffoni._bisect_from, narrowed by plain midpoint bisection.  Returns
    (value, number of probes)."""
    m, pert, z = buffoni._validated_pair(a, e, tol)
    h = buffoni._pair_scale(m, pert)
    if np.isinf(h):
        return np.inf, 0
    cap = buffoni._cap(m, pert, z)
    count = 0

    def monotone_at(v):
        nonlocal count
        count += 1
        return bool(is_monotone(m + v * pert, tol))

    if 0.0 < seed < np.inf:
        step = abs_tol
    else:
        seed, step = 0.0, h / m.shape[0]
    if seed == 0.0 or monotone_at(seed):
        lo, hi = seed, seed + step
        while hi <= cap and monotone_at(hi):
            lo = hi
            step *= 2.0
            hi = seed + step
        if hi > cap:
            return np.inf, count
    else:
        lo, hi = max(seed - step, 0.0), seed
        while lo > 0.0 and not monotone_at(lo):
            hi = lo
            step *= 2.0
            lo = max(seed - step, 0.0)
    while hi > lo + abs_tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if monotone_at(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi), count


def _final_bracket(probes):
    """(lo, hi) of a finished search: the last probes each way, and lo = 0
    when no probe was monotone.  Each monotone probe lies above the ones
    before it and each failing probe below them."""
    monotone = [0.0] + [v for v, ok in probes if ok]
    failing = [v for v, ok in probes if not ok]
    assert monotone == sorted(monotone) and failing == sorted(failing, reverse=True)
    return monotone[-1], failing[-1]


def test_zero_perturbation_is_infinite(sample_a, probes):
    zero = np.zeros((3, 3))
    trace = buffoni_vstar(sample_a, zero)
    assert trace.status == "diverged_infinite"
    assert bisection_vstar(sample_a, zero) == np.inf
    z = inverse(sample_a)
    assert buffoni._bisect_from(sample_a, zero, z, np.inf, 1e-9, DEFAULT_MONOTONE_TOL) == np.inf
    assert not probes


def test_identity_plus_ones_starts_broken():
    # eye + J is monotone only marginally; v* = 0 because the inverse of
    # I + v J already has negative entries for every v > 0... check it is not:
    # actually (I + vJ)^{-1} = I - v/(1+nv) J which goes negative off-diagonal
    # for any v > 0, so the threshold is exactly zero.
    trace = buffoni_vstar(np.eye(3), np.ones((3, 3)))
    assert trace.status == "converged"
    assert trace.vstar == pytest.approx(0.0, abs=1e-12)


def test_validation_errors(sample_a):
    with pytest.raises(NegativePerturbation):
        buffoni_vstar(sample_a, -np.ones((3, 3)))
    with pytest.raises(NotMonotone):
        buffoni_vstar(np.array([[1.0, 2.0], [0.0, 1.0]]), np.ones((2, 2)))
    with pytest.raises(DimensionMismatch):
        buffoni_vstar(sample_a, np.ones((2, 2)))


def test_negative_ratio_denominator_is_not_monotone():
    # tol=0.5 lets this non-monotone A through validation; W = Z E Z then
    # has negative entries, which a monotone iterate cannot give.
    a = np.array([[1.0, 0.3], [0.2, 1.0]])
    with pytest.raises(NotMonotone):
        buffoni_vstar(a, _unit(2, 0, 0), tol=0.5)


def test_negative_ratio_denominator_floor_is_scale_free():
    # Scaling A by 2^20 scales W by 2^-40; the verdict must not change.
    a = 2.0**20 * np.array([[1.0, 0.3], [0.2, 1.0]])
    with pytest.raises(NotMonotone):
        buffoni_vstar(a, _unit(2, 0, 0), tol=0.5)


def test_negative_ratio_denominator_in_the_iteration():
    # E_11 above is rank one and takes the closed form; E = I is rank two.
    for scale in (1.0, 2.0**20):
        with pytest.raises(NotMonotone):
            buffoni_vstar(scale * np.array([[1.0, 0.3], [0.2, 1.0]]), np.eye(2), tol=0.5)


def test_bisection_matches_iteration(sample_a):
    for e in [_unit(3, 0, 1), _unit(3, 0, 2), np.ones((3, 3))]:
        exact = buffoni_vstar(sample_a, e).vstar
        assert bisection_vstar(sample_a, e) == pytest.approx(exact, abs=1e-6)


def test_bisection_detects_infinite():
    assert bisection_vstar(np.eye(3), np.eye(3)) == np.inf


def test_bisection_stops_at_float_spacing(sample_a, probes):
    # v* = 9.23e6, where adjacent floats are 1.9e-9 apart: wider than abs_tol.
    a, e = 1e8 * sample_a, np.ones((3, 3))
    assert bisection_vstar(a, e) == pytest.approx(buffoni_vstar(a, e).vstar, rel=1e-8)


def _search_pairs():
    """(A, E, abs_tol, tol): full-rank E with n = 2..30, rank-one E, and
    single-entry tridiagonal pairs with criterion 8's settings."""
    rng = np.random.default_rng(101)
    pairs = []
    for n in np.linspace(2, 30, 12).astype(int):
        a, e = random_sdd_m_matrix(rng, int(n)), random_nonneg_perturbation(rng, int(n))
        pairs.append((a, e, buffoni.BISECT_ABS_TOL, DEFAULT_MONOTONE_TOL))
    for a, e in _rank_one_pairs(6, 103):
        pairs.append((a, e, buffoni.BISECT_ABS_TOL, DEFAULT_MONOTONE_TOL))
    for _ in range(6):
        n = int(rng.integers(4, 12))
        a = random_tridiagonal_m_matrix(rng, n)
        l, k = (int(x) for x in rng.choice(n, 2, replace=False))
        while abs(l - k) < 2:
            l, k = (int(x) for x in rng.choice(n, 2, replace=False))
        pairs.append((a, _unit(n, l, k), 1e-9 * tridiagonal_bound(a, l, k).value, 1e-13))
    return pairs


def _check_search(a, e, abs_tol, tol, probes):
    """Run bisection_vstar on the pair and check it against the reference
    search; return (its result, its probes, the reference's probes)."""
    probes.clear()
    got = bisection_vstar(a, e, abs_tol=abs_tol, tol=tol)
    want, reference = _reference_search(a, e, 0.0, abs_tol, tol)
    assert len(probes) <= reference + 1
    if np.isinf(want):
        assert got == np.inf
    else:
        assert abs(got - want) <= abs_tol
        lo, hi = _final_bracket(probes)
        assert hi - lo <= abs_tol * (1 + 1e-6)
        assert is_monotone(a + lo * e, tol) and not is_monotone(a + hi * e, tol)
        assert got == pytest.approx(0.5 * (lo + hi), abs=1e-15 * hi)
    return got, len(probes), reference


def test_search_takes_at_most_one_probe_beyond_bisection(probes):
    # The narrowing places each probe by ITP instead of at the midpoint.  It
    # must keep plain bisection's bracket and result, never cost more than
    # one probe beyond it, and on these pairs save at least half its probes.
    # Scaling the pair by 2^20 or 2^-20 leaves v* and every verdict as they
    # are, so the interpolation must not depend on the scale either.
    total = reference_total = checked = 0
    for a, e, abs_tol, tol in _search_pairs():
        counts = {
            scale: _check_search(scale * a, scale * e, abs_tol, tol, probes)[1:]
            for scale in (1.0, 2.0**20, 2.0**-20)
        }
        assert len(set(counts.values())) == 1
        total += sum(taken for taken, _ in counts.values())
        reference_total += sum(reference for _, reference in counts.values())
        checked += len(counts)
    assert checked >= 60
    assert 2 * total <= reference_total


def test_search_bound_holds_when_only_a_is_scaled(probes):
    # With A and abs_tol alone scaled by c = 2^k, v* scales by c, and so does
    # the first candidate max|A| / (n max E).  Every probe then scales by c
    # exactly, so the result is c times the unscaled one with the same probe
    # count, still at most one probe more than plain bisection.
    for a, e, abs_tol, tol in _search_pairs():
        value, count, _ = _check_search(a, e, abs_tol, tol, probes)
        for k in (20, -20, 40, -40):
            scale = 2.0**k
            got, taken, _ = _check_search(scale * a, e, scale * abs_tol, tol, probes)
            assert (got, taken) == (scale * value, count)


def test_cap_scales_with_the_pair(sample_a, probes):
    # v* = 3.25e12 lies above V_CAP; the cap is relative to max|A| / max|E|.
    a, e = 2.0**45 * sample_a, np.ones((3, 3))
    exact = main_bound(a).value  # tight for E all-ones
    assert buffoni_vstar(a, e).vstar == pytest.approx(exact, rel=1e-12)
    assert bisection_vstar(a, e) == pytest.approx(exact, rel=1e-8)


@pytest.mark.parametrize("pair", INFINITE_THRESHOLD_PAIRS.values(), ids=INFINITE_THRESHOLD_PAIRS)
def test_infinite_threshold_near_the_singularity_rule(pair, probes):
    # Both searches report inf: no probe or iterate reaches the singularity
    # rule, which the bisection would read as a break.
    a, e = pair
    assert buffoni_vstar(a, e).vstar == np.inf
    assert bisection_vstar(a, e) == np.inf
    assert all(verdict or not verdict.singular for _, verdict in probes)


def test_iteration_stops_before_the_singularity_rule():
    # The iteration itself, without the diagonal-E shortcut, stops at the cap
    # before an iterate the singularity rule would refuse (about 2.8e12).
    a, e = INFINITE_THRESHOLD_PAIRS["near-singular-e11-e22"]
    trace = _iterate(a, e)
    assert (trace.status, trace.vstar) == ("diverged_infinite", np.inf)


def test_cap_keeps_half_the_singularity_budget():
    # max|A| * max|A^-1| = 1 / 3e-14 uses two thirds of the rule's 1e14, so
    # the cap falls from 1e12 to 0.5: past it A + v E could be refused.
    a = np.array([[1.0, -1.0], [0.0, 3e-14]])
    z = inverse(a)
    cap = buffoni._cap(a, _unit(2, 0, 1), z)
    assert cap == pytest.approx(0.5, rel=1e-12)
    for k in (-40, 30):
        assert buffoni._cap(2.0**k * a, _unit(2, 0, 1), 2.0**-k * z) == 2.0**k * cap
    # Where A alone uses more than half the budget, V_CAP * h stands.
    a[1, 1] = 1.5e-14
    assert buffoni._cap(a, _unit(2, 0, 1), inverse(a)) == buffoni.V_CAP


def test_closed_form_past_the_cap_is_infinite():
    # v* = 1 exactly ((A + v E)^-1 has (1 - v) / 3e-14 at (1, 2)), past the
    # cap of 0.5 above: the closed form keeps its one step and reports inf,
    # and the bisection stops doubling at the cap.
    a, e = np.array([[1.0, -1.0], [0.0, 3e-14]]), _unit(2, 0, 1)
    trace = buffoni_vstar(a, e)
    assert trace.iterates == (buffoni.IterationStep(v=0.0, increment=1.0, argmin=(0, 1)),)
    assert (trace.status, trace.vstar) == ("diverged_infinite", np.inf)
    assert bisection_vstar(a, e) == np.inf


def test_diagonal_perturbation_of_a_z_matrix_takes_no_iterate(monkeypatch):
    # A validated Z-matrix is an M-matrix, and so is A + v E for a diagonal
    # E >= 0 and every v >= 0: no iterate is needed to report inf.
    def no_iteration(*args):
        raise AssertionError("the ratio iteration ran")

    a = random_sdd_m_matrix(np.random.default_rng(47), 6)
    reference = _iterate(a, np.eye(6)).vstar
    monkeypatch.setattr(buffoni, "_ratio_iteration", no_iteration)
    for e in (np.eye(6), np.diag([0.0, 1.0, 2.0, 0.0, 0.5, 1.0])):
        trace = buffoni_vstar(a, e)
        assert (trace.status, trace.vstar, trace.iterates) == ("diverged_infinite", np.inf, ())
    assert reference == np.inf


def test_diagonal_perturbation_of_a_non_z_matrix_takes_the_iteration():
    # Monotone but not a Z-matrix: the shortcut does not apply.
    a = np.array([[2.0, 0.1, -1.0], [-1.0, 2.0, 0.0], [0.0, -1.0, 2.0]])
    assert is_monotone(a)
    trace = buffoni_vstar(a, np.eye(3))
    assert trace.iteration_count > 1
    assert trace.vstar == pytest.approx(bisection_vstar(a, np.eye(3)), rel=1e-6)


def test_convergence_is_relative(sample_a):
    # Below v* = 1 an absolute floor stopped this after one step at 7.2289e-14.
    a, e = 1e-12 * sample_a, np.ones((3, 3))
    for trace in (_iterate(a, e), buffoni_vstar(a, e)):
        assert trace.status == "converged"
        assert trace.vstar == pytest.approx(1e-12 * SAMPLE_A_VSTAR_UNIFORM, rel=1e-12, abs=0.0)


def test_iteration_scales_with_the_pair():
    rng = np.random.default_rng(31)
    for _ in range(20):
        n = int(rng.integers(3, 12))
        a = random_sdd_m_matrix(rng, n)
        e = random_nonneg_perturbation(rng, n)
        assert buffoni_vstar(2.0**-30 * a, e).vstar == 2.0**-30 * buffoni_vstar(a, e).vstar


def _rank_one_pairs(count, seed):
    """Random (A, E = u w^T) with n = 3..30; u and w each dense or sparse."""
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(count):
        n = int(rng.integers(3, 31))

        def factor():
            v = rng.uniform(0.1, 2.0, n)
            if rng.random() < 0.5:
                v *= rng.random(n) < 0.3
                v[rng.integers(n)] = rng.uniform(0.5, 2.0)
            return v

        pairs.append((random_sdd_m_matrix(rng, n), np.outer(factor(), factor())))
    return pairs


def test_closed_form_matches_iteration():
    for a, e in _rank_one_pairs(50, 43):
        closed = buffoni_vstar(a, e)
        assert (closed.status, closed.iteration_count) == ("converged", 1)
        assert closed.iterates[0].v == 0.0
        assert closed.iterates[0].increment == closed.vstar
        assert closed.vstar == pytest.approx(_iterate(a, e).vstar, rel=1e-12, abs=0.0)


def test_closed_form_on_a_diagonal_entry_is_infinite():
    # A + v E_kk is an M-matrix for every v >= 0.
    a = random_sdd_m_matrix(np.random.default_rng(47), 6)
    closed = buffoni_vstar(a, _unit(6, 2, 2))
    assert (closed.status, closed.vstar) == ("diverged_infinite", np.inf)
    assert _iterate(a, _unit(6, 2, 2)).vstar == np.inf


def test_closed_form_uniform_matches_main_bound(sample_a):
    rng = np.random.default_rng(53)
    for a in [sample_a] + [random_sdd_m_matrix(rng, int(rng.integers(3, 20))) for _ in range(10)]:
        n = a.shape[0]
        assert buffoni_vstar(a, np.ones((n, n))).vstar == pytest.approx(
            main_bound(a).value, rel=1e-12, abs=0.0
        )


def test_closed_form_single_entry_matches_tridiagonal_bound():
    rng = np.random.default_rng(59)
    for _ in range(10):
        n = int(rng.integers(4, 12))
        a = random_tridiagonal_m_matrix(rng, n)
        l, k = (int(x) for x in rng.choice(n, 2, replace=False))
        while abs(l - k) < 2:
            l, k = (int(x) for x in rng.choice(n, 2, replace=False))
        closed = buffoni_vstar(a, _unit(n, l, k))
        assert closed.iteration_count == 1
        assert closed.vstar == pytest.approx(tridiagonal_bound(a, l, k).value, rel=1e-12, abs=0.0)


def test_closed_form_scales_with_the_pair():
    for a, e in _rank_one_pairs(20, 61):
        for k in (-30, 7):
            assert buffoni_vstar(2.0**k * a, e).vstar == 2.0**k * buffoni_vstar(a, e).vstar


def test_near_rank_one_takes_the_iteration():
    for a, e in _rank_one_pairs(10, 67):
        n = a.shape[0]
        near = e + 1e-8 * e.max() * np.outer(np.arange(n) + 1.0, np.ones(n))
        trace = buffoni_vstar(a, near)
        assert trace.iteration_count > 1
        assert trace.vstar == pytest.approx(bisection_vstar(a, near), abs=1e-6)


def _pairs():
    rng = np.random.default_rng(97)
    pairs = [(SAMPLE_A, np.ones((3, 3))), (SAMPLE_A, _unit(3, 0, 1))]
    for n in (4, 9):
        pairs.append((random_sdd_m_matrix(rng, n), random_nonneg_perturbation(rng, n)))
    return pairs


@pytest.mark.parametrize("pair", _pairs())
@pytest.mark.parametrize("seed", ["exact", "just_above", "half", "double", "inf"])
def test_seeded_bisection_brackets_the_threshold(pair, seed, probes):
    a, e = pair
    abs_tol = buffoni.BISECT_ABS_TOL
    exact = buffoni_vstar(a, e).vstar
    unseeded = bisection_vstar(a, e)
    start = {
        "exact": exact,
        "just_above": exact + 4 * abs_tol,
        "half": 0.5 * exact,
        "double": 2.0 * exact,
        "inf": np.inf,
    }[seed]
    if seed == "just_above":
        assert not is_monotone(a + start * e)  # the search has to step down
    probes.clear()
    got = buffoni._bisect_from(a, e, inverse(a), start, abs_tol, DEFAULT_MONOTONE_TOL)
    assert abs(got - unseeded) <= abs_tol
    lo, hi = _final_bracket(probes)
    assert hi - lo <= abs_tol * (1 + 1e-6)
    assert is_monotone(a + lo * e) and not is_monotone(a + hi * e)
    assert got == pytest.approx(0.5 * (lo + hi), abs=1e-15)
    _, reference = _reference_search(a, e, start, abs_tol, DEFAULT_MONOTONE_TOL)
    assert len(probes) <= reference + 1
    if seed in ("exact", "just_above"):
        assert len(probes) <= 5  # a good seed saves most of the unseeded search's probes


@pytest.mark.parametrize("scale", [2.0**10, 2.0**11, 2.0**13])
def test_exact_seed_takes_two_probes(sample_a, scale, probes):
    # For v* near 1e-5..1e-4, v* + abs_tol rounds to more than abs_tol above
    # v*; that rounding must not cost a third probe.
    e = scale * np.ones((3, 3))
    exact = buffoni_vstar(sample_a, e).vstar
    probes.clear()
    got = buffoni._bisect_from(
        sample_a, e, inverse(sample_a), exact, buffoni.BISECT_ABS_TOL, DEFAULT_MONOTONE_TOL
    )
    assert [bool(verdict) for _, verdict in probes] == [True, False]
    assert got == 0.5 * (exact + (exact + buffoni.BISECT_ABS_TOL))


def test_threshold_separates_monotone_regime(sample_a):
    v = buffoni_vstar(sample_a, np.ones((3, 3))).vstar
    assert is_monotone(sample_a + 0.99 * v * np.ones((3, 3)))
    assert not is_monotone(sample_a + 1.01 * v * np.ones((3, 3)))


def test_random_pairs_agree_with_oracle():
    rng = np.random.default_rng(83)
    for _ in range(12):
        n = int(rng.integers(3, 7))
        a = random_sdd_m_matrix(rng, n)
        e = random_nonneg_perturbation(rng, n)
        trace = buffoni_vstar(a, e)
        oracle = bisection_vstar(a, e)
        if trace.vstar == np.inf:
            assert oracle == np.inf
        else:
            assert oracle == pytest.approx(trace.vstar, abs=max(1e-6, 1e-6 * trace.vstar))


def test_uniform_inverse_update_matches_direct(sample_a):
    stats = inverse_stats(sample_a)
    v = 0.05
    direct = inverse(sample_a + v * np.ones((3, 3)))
    # Sherman-Morrison for A + v J from the inverse statistics of A.
    updated = stats.inv - (v / (1.0 + v * stats.total)) * np.outer(stats.row_sums, stats.col_sums)
    assert np.max(np.abs(updated - direct)) <= 1e-10


def test_uniform_inverse_update_at_zero(sample_a):
    stats = inverse_stats(sample_a)
    assert np.array_equal(inverse(sample_a + 0.0 * np.ones((3, 3))), stats.inv)


def test_uniform_inverse_vanishes_at_threshold(sample_a):
    updated = inverse(sample_a + SAMPLE_A_VSTAR_UNIFORM * np.ones((3, 3)))
    assert updated.min() == pytest.approx(0.0, abs=1e-12)


def test_uniform_inverse_update_singular():
    a = -np.eye(2)
    # total is -2, so v = 0.5 zeroes the denominator 1 + v * total
    assert 1.0 + 0.5 * inverse_stats(a).total == 0.0
    with pytest.raises(SingularMatrix, match="singular"):
        inverse(a + 0.5 * np.ones((2, 2)))


def test_threshold_grid_random():
    rng = np.random.default_rng(89)
    for _ in range(8):
        n = int(rng.integers(3, 6))
        a = random_sdd_m_matrix(rng, n)
        ones = np.ones((n, n))
        v = buffoni_vstar(a, ones).vstar
        for frac in (0.25, 0.5, 0.9):
            updated = inverse(a + frac * v * ones)
            assert updated.min() >= -1e-10
