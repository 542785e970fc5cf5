"""Ratio iteration for the exact monotonicity-breaking threshold."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from conftest import (
    INFINITE_THRESHOLD_PAIRS,
    NOT_MONOTONE_WITHIN_SLACK,
    SAMPLE_A,
    SAMPLE_A_VSTAR_UNIFORM,
    column_span_scans,
    grid_laplacian,
    matmul_shapes,
    random_nonneg_perturbation,
    random_sdd_m_matrix,
    random_tridiagonal_m_matrix,
    whole_span,
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
    linalg,
    main_bound,
    tridiagonal_bound,
)
from monobound.classify import MONOTONE_RTOL, MonotoneCheck, _monotone_check
from monobound.linalg import SINGULARITY_RTOL, _unit_scale


def _unit(n, i, j):
    e = np.zeros((n, n))
    e[i, j] = 1.0
    return e


def _iterate(a, e):
    """The ratio iteration alone, the reference for pairs that
    buffoni_vstar solves in closed form."""
    return buffoni._ratio_iteration(buffoni._validated_pair(a, e))


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
    """Record each probe of the threshold search as (v, verdict), with v in
    the caller's units; fail past 500 instead of running on."""
    seen = []
    checked_inverse = buffoni._checked_inverse

    def counted(pair, v, residual):
        verdict, inv = checked_inverse(pair, v, residual)
        seen.append((v * pair.unit, verdict))
        if len(seen) > 500:
            pytest.fail("the search made more than 500 probes")
        return verdict, inv

    monkeypatch.setattr(buffoni, "_checked_inverse", counted)
    return seen


def _reference_search(a, e, seed, abs_tol):
    """Reference for the threshold search: the same bracket expansion as
    buffoni._bisect_from, narrowed by plain midpoint bisection, in the
    caller's units (the pair's scale h and cap times its unit).  Returns
    (value, number of probes)."""
    pair = buffoni._validated_pair(a, e)
    if np.isinf(pair.h):
        return np.inf, 0
    h, cap = pair.h * pair.unit, pair.cap * pair.unit
    count = 0

    def monotone_at(v):
        nonlocal count
        count += 1
        return bool(is_monotone(a + v * e))

    if 0.0 < seed < np.inf:
        step = abs_tol
    else:
        seed, step = 0.0, h / a.shape[0]
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
    pair = buffoni._validated_pair(sample_a, zero)
    assert buffoni._bisect_from(pair, np.inf, 1e-9) == np.inf
    assert not probes


def test_iteration_stops_where_w_vanishes():
    # A is monotone but not a Z-matrix, so a zero E takes the iteration,
    # whose first W = Z E Z is zero: no ratio is usable, and v* is infinite
    # after no step.
    a, zero = np.array([[0.0, 1.0], [1.0, 0.0]]), np.zeros((2, 2))
    trace = buffoni_vstar(a, zero)
    assert trace == _iterate(a, zero)
    assert (trace.status, trace.iteration_count, trace.vstar) == ("diverged_infinite", 0, math.inf)
    assert bisection_vstar(a, zero) == math.inf


def test_singular_bracket_end_narrows_by_the_midpoint(monkeypatch):
    # det(A + v E) = 9 - (v - 1)^2 and (A + v E)^-1 >= 0 exactly for
    # 0 <= v <= 1.  The first probe, h / n = 4, is exactly singular, so the
    # first narrowing probe has no inverse at hi and is the midpoint.
    a = np.array([[8.0, -1.0], [-1.0, 1.125]])
    e = np.array([[0.0, 1.0], [1.0, 0.0]])
    points, itp_point = [], buffoni._itp_point

    def spy(lo, hi, at_lo, at_hi, width, reach):
        v = itp_point(lo, hi, at_lo, at_hi, width, reach)
        points.append((at_hi[1] is None, v == 0.5 * (lo + hi)))
        return v

    monkeypatch.setattr(buffoni, "_itp_point", spy)
    assert bisection_vstar(a, e) == pytest.approx(1.0, abs=buffoni.BISECT_ABS_TOL)
    assert points[0] == (True, True)
    trace = buffoni_vstar(a, e)
    assert trace.status == "converged"
    assert trace.vstar == pytest.approx(1.0, rel=1e-12)


def test_identity_plus_ones_starts_broken():
    # (I + vJ)^-1 = I - v/(1+nv) J is negative off the diagonal for every
    # v > 0, so the threshold is exactly zero.
    trace = buffoni_vstar(np.eye(3), np.ones((3, 3)))
    assert trace.status == "converged"
    assert trace.vstar == pytest.approx(0.0, abs=1e-12)
    assert bisection_vstar(np.eye(3), np.ones((3, 3))) <= buffoni.BISECT_ABS_TOL


def test_validation_errors(sample_a):
    with pytest.raises(NegativePerturbation):
        buffoni_vstar(sample_a, -np.ones((3, 3)))
    with pytest.raises(NotMonotone):
        buffoni_vstar(np.array([[1.0, 2.0], [0.0, 1.0]]), np.ones((2, 2)))
    with pytest.raises(DimensionMismatch):
        buffoni_vstar(sample_a, np.ones((2, 2)))


def test_negative_ratio_denominator_is_not_monotone():
    # The slack lets this non-monotone A through validation; W = Z E Z then
    # has negative entries, which a monotone iterate cannot give.
    with pytest.raises(NotMonotone):
        buffoni_vstar(NOT_MONOTONE_WITHIN_SLACK, _unit(2, 1, 1))


def test_negative_ratio_denominator_floor_is_scale_free():
    # Scaling A by 2^+-20 scales W by 2^-+40; the verdict must not change.
    for scale in (2.0**20, 2.0**-20):
        with pytest.raises(NotMonotone):
            buffoni_vstar(scale * NOT_MONOTONE_WITHIN_SLACK, _unit(2, 1, 1))


def test_negative_ratio_denominator_in_the_iteration():
    # E_22 above is rank one and takes the closed form; this E is rank two.
    for scale in (1.0, 2.0**20, 2.0**-20):
        with pytest.raises(NotMonotone):
            buffoni_vstar(scale * NOT_MONOTONE_WITHIN_SLACK, np.diag([1e-6, 1.0]))


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
    """(A, E, abs_tol): full-rank E with n = 2..30, rank-one E, and
    single-entry tridiagonal pairs with criterion 8's width."""
    rng = np.random.default_rng(101)
    pairs = []
    for n in np.linspace(2, 30, 12).astype(int):
        a, e = random_sdd_m_matrix(rng, int(n)), random_nonneg_perturbation(rng, int(n))
        pairs.append((a, e, buffoni.BISECT_ABS_TOL))
    for a, e in _rank_one_pairs(6, 103):
        pairs.append((a, e, buffoni.BISECT_ABS_TOL))
    for _ in range(6):
        n = int(rng.integers(4, 12))
        a = random_tridiagonal_m_matrix(rng, n)
        l, k = (int(x) for x in rng.choice(n, 2, replace=False))
        while abs(l - k) < 2:
            l, k = (int(x) for x in rng.choice(n, 2, replace=False))
        pairs.append((a, _unit(n, l, k), 1e-9 * tridiagonal_bound(a, l, k).value))
    return pairs


def _check_search(a, e, abs_tol, probes):
    """Run bisection_vstar on the pair and check it against the reference
    search; return (its result, its probes, the reference's probes)."""
    probes.clear()
    got = bisection_vstar(a, e, abs_tol=abs_tol)
    want, reference = _reference_search(a, e, 0.0, abs_tol)
    assert len(probes) <= reference + 1
    if np.isinf(want):
        assert got == np.inf
    else:
        assert abs(got - want) <= abs_tol
        lo, hi = _final_bracket(probes)
        assert hi - lo <= abs_tol * (1 + 1e-6)
        assert is_monotone(a + lo * e) and not is_monotone(a + hi * e)
        assert got == pytest.approx(0.5 * (lo + hi), abs=1e-15 * hi)
    return got, len(probes), reference


def test_search_takes_at_most_one_probe_beyond_bisection(probes):
    # The narrowing places each probe by ITP instead of at the midpoint.  It
    # must keep plain bisection's bracket and result, never cost more than
    # one probe beyond it, and on these pairs save at least half its probes.
    # Scaling the pair by 2^20 or 2^-20 leaves v* and every verdict as they
    # are, so the interpolation must not depend on the scale either.
    total = reference_total = checked = 0
    for a, e, abs_tol in _search_pairs():
        counts = {
            scale: _check_search(scale * a, scale * e, abs_tol, probes)[1:]
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
    # the first candidate max|A| / (n max E).  The search runs on the
    # unit-scaled pair, so every probe scales by c exactly, even where the
    # square of a bracket in the caller's units would overflow or underflow:
    # the result is c times the unscaled one with the same probe count, still
    # at most one probe more than plain bisection.
    for a, e, abs_tol in _search_pairs():
        value, count, _ = _check_search(a, e, abs_tol, probes)
        for k in (20, -20, 40, -40, 600, -600, 1000, -1000):
            scale = 2.0**k
            got, taken, _ = _check_search(scale * a, e, scale * abs_tol, probes)
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
    def cap(a):
        pair = buffoni._validated_pair(a, _unit(2, 0, 1))
        return pair.cap * pair.unit

    a = np.array([[1.0, -1.0], [0.0, 3e-14]])
    assert cap(a) == pytest.approx(0.5, rel=1e-12)
    for k in (-40, 30, 1000):
        assert cap(2.0**k * a) == 2.0**k * cap(a)
    # Where A alone uses more than half the budget, V_CAP * h stands.
    a[1, 1] = 1.5e-14
    assert cap(a) == buffoni.V_CAP


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
        for k in (-30, 600, -600):
            assert buffoni_vstar(2.0**k * a, e).vstar == 2.0**k * buffoni_vstar(a, e).vstar


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
        for k in (-30, 7, 600, -600):
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
    got = buffoni._bisect_from(buffoni._validated_pair(a, e), start, abs_tol)
    assert abs(got - unseeded) <= abs_tol
    lo, hi = _final_bracket(probes)
    assert hi - lo <= abs_tol * (1 + 1e-6)
    assert is_monotone(a + lo * e) and not is_monotone(a + hi * e)
    assert got == pytest.approx(0.5 * (lo + hi), abs=1e-15)
    _, reference = _reference_search(a, e, start, abs_tol)
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
    pair = buffoni._validated_pair(sample_a, e)
    got = buffoni._bisect_from(pair, exact, buffoni.BISECT_ABS_TOL)
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


def test_narrowing_scales_exactly_at_2_to_the_600(sample_a, probes):
    # The search on (c A, E, c abs_tol) and on (A, E / c, c abs_tol) is the
    # unscaled one, probe for probe, where the square of a bracket in the
    # caller's units would overflow (c = 2^600) or underflow (c = 2^-600).
    ones, abs_tol = np.ones((3, 3)), buffoni.BISECT_ABS_TOL
    value = bisection_vstar(sample_a, ones)
    unscaled = [(v, bool(verdict)) for v, verdict in probes]
    for c in (2.0**600, 2.0**-600):
        for a, e in ((c * sample_a, ones), (sample_a, ones / c)):
            probes.clear()
            assert bisection_vstar(a, e, abs_tol=c * abs_tol) == c * value
            assert [(v / c, bool(verdict)) for v, verdict in probes] == unscaled


@pytest.mark.parametrize("k", [1000, -1000])
def test_threshold_past_the_float_range_reads_inf_or_zero(sample_a, k):
    # max|A| / max E = 2^(2k), so t / s is no float and the threshold,
    # 2^(2k) times that of (A, J), overflows or underflows: both searches
    # report it as inf or 0, with no warning and no NaN on the way.
    a, e = 2.0**k * sample_a, 2.0**-k * np.ones((3, 3))
    full_rank = 2.0**-k * (np.eye(3) + np.eye(3)[::-1])
    status, want = ("diverged_infinite", np.inf) if k > 0 else ("converged", 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        trace = buffoni_vstar(a, e)
        assert (trace.status, trace.vstar) == (status, want)
        assert _iterate(a, full_rank).vstar == want
        assert bisection_vstar(a, e) == bisection_vstar(a, full_rank) == want


@pytest.mark.parametrize("k", [-1060, -1072])
def test_subnormal_rank_one_perturbation_takes_the_iteration(sample_a, k):
    # E = 2^k u w^T rounds to subnormals, so it is rank one only to about
    # 2^-1075 / max E, and a product u_i w_j recomputed in that range loses
    # as much: the closed form would answer for u w^T.  E takes the
    # iteration, which agrees with the bisection.
    rng = np.random.default_rng(3)
    a, e = 2.0**-1000 * sample_a, 2.0**k * np.outer(rng.uniform(0.1, 2.0, 3), rng.uniform(0.1, 2.0, 3))
    assert buffoni._validated_pair(a, e).rank_one is None
    scale = 2.0 ** (-1000 - k)
    exact = buffoni_vstar(a, e).vstar / scale
    assert exact == pytest.approx(bisection_vstar(a, e, abs_tol=1e-9 * scale) / scale, rel=1e-8)


def _rank_one_sample(n, seed):
    """A rank-one pair with a finite threshold: (A, E, the validated pair,
    v* in the unit-scaled pair's units)."""
    rng = np.random.default_rng(seed)
    a = random_sdd_m_matrix(rng, n)
    e = np.outer(rng.uniform(0.1, 2.0, n), rng.uniform(0.1, 2.0, n))
    pair = buffoni._validated_pair(a, e)
    vstar = buffoni._buffoni_from(pair).vstar / pair.unit
    assert math.isfinite(vstar)
    return a, e, pair, vstar


def _peak_arrays(fn, n):
    """Most memory that ``fn()`` held at once, its result included, in units
    of one n x n float array (tracemalloc sees numpy's data buffers)."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        if not tracing:
            tracemalloc.stop()
    return (peak - before) / (n * n * 8)


#: numpy's ufuncs take up to 128 KiB of broadcast buffers for an outer
#: product: under 0.3 of an n x n array at this size, but as much as two at
#: n = 60, where they would hide the arrays counted here.
WORKING_SET_N = 240


@pytest.mark.parametrize(
    "stage, budget",
    [
        ("certified probe", 1.3),
        ("rank-one terms", 1.3),
        ("closed form", 2.1),
        ("validated pair", 3.0),
        ("seeded search", 3.3),
        ("unseeded search", 4.0),
    ],
)
def test_threshold_search_working_set(stage, budget, monkeypatch):
    # Each stage holds a fixed number of n x n arrays beyond its inputs, so
    # a long-running process reuses the same heap from op to op.  A certified
    # probe takes no inverse and forms no A + v E.  The validated pair holds
    # the scaled copies of A and E and the inverse; E's rank-one factors are
    # found before they exist.  A search holds the matrices tested at both
    # bracket ends and the next candidate, and before its first probe its one
    # residual product.  The unseeded search's last probe lands so near v*
    # that no certificate has the margin, so it inverts A + v E.
    n = WORKING_SET_N
    a, e, pair, vstar = _rank_one_sample(n, 101)
    if stage not in ("validated pair", "unseeded search"):
        monkeypatch.setattr(buffoni, "_analyse", lambda *args: pytest.fail("inverted"))
    residual = buffoni._search_residual(pair)
    t, abs_tol = _unit_scale(float(e.max())), buffoni.BISECT_ABS_TOL
    run = {
        "certified probe": lambda: buffoni._checked_inverse(pair, vstar, residual),
        "rank-one terms": lambda: buffoni._rank_one_terms(buffoni._rank_one_factors(e), t, pair.z),
        "closed form": lambda: buffoni._buffoni_from(pair),
        "validated pair": lambda: buffoni._validated_pair(a, e),
        "seeded search": lambda: buffoni._bisect_from(pair, vstar * pair.unit, abs_tol),
        "unseeded search": lambda: buffoni._bisect_from(pair, 0.0, abs_tol),
    }[stage]
    assert _peak_arrays(run, n) <= budget + 0.1


def _grow_and_gamma(n):
    """buffoni._grow(n) and the gamma_{n+1} of buffoni._residual_bound."""
    return 1.0 + 4.0 * (n + 2) * buffoni._UNIT_ROUNDOFF, 1.01 * (n + 1) * buffoni._UNIT_ROUNDOFF


def _reference_residual(m, z):
    """Reference for buffoni._residual_bound: the whole product m z, and a
    fresh array for each of the residual, |m| and |z|."""
    n = m.shape[0]
    grow, gamma = _grow_and_gamma(n)
    with np.errstate(all="ignore"):
        residual = m @ z
        residual.flat[:: n + 1] -= 1.0
        abs_m, abs_z = np.abs(m), np.abs(z)
        r_norm = float(np.abs(residual, out=residual).sum(axis=1).max())
        m_norm = float(abs_m.sum(axis=1).max())
        z_norm = float(abs_z.sum(axis=1).max())
    rho = grow * (r_norm + gamma * (1.0 + m_norm * z_norm))
    return buffoni._Residual(rho, m_norm, float(abs_m.max()), z_norm)


def _reference_certified_check(m, z):
    """Reference for the certificate of ``z`` as an inverse of ``m`` from one
    residual product (buffoni._residual_bound, then buffoni._certified_verdict):
    the same certificate from :func:`_reference_residual`."""
    grow, _ = _grow_and_gamma(m.shape[0])
    rho, _, m_max, z_norm = _reference_residual(m, z)
    if not rho < 1.0:
        return None
    delta = grow * z_norm * rho / (1.0 - rho)
    z_max = float(np.abs(z).max())
    check = _monotone_check(z)
    slack = MONOTONE_RTOL * z_max
    margin = abs(check.value + slack)
    bound = grow * ((1.0 + MONOTONE_RTOL) * delta + buffoni._UNIT_ROUNDOFF * slack) + 8.0 * math.ulp(0.0)
    regular = grow * SINGULARITY_RTOL * m_max * (z_max + delta) < 1.0
    return check if margin > bound and regular else None


def _candidate_probes():
    """(m, z) pairs for the certificate: Sherman-Morrison candidates of
    seeded rank-one pairs near v*, ones it declines (residual, margin and
    singularity rule), and a non-finite candidate where 1 + v s = 0."""
    cases = []
    for n, seed in ((3, 1), (8, 2), (30, 3), (60, 4)):
        _, _, (base, pert, z, *_, (_, _, p, q, s, _)), vstar = _rank_one_sample(n, seed)
        m = base.m
        for k in (1.0, 1 + 1e-13, 1 - 1e-13, 1 + 1e-6, 1 - 1e-6):
            v = vstar * k
            cases.append((m + v * pert, z - np.outer(p * v / (1.0 + v * s), q)))
        cases.append((m, 2.0 * z))
        v = -1.0 / s
        if 1.0 + v * s == 0.0:
            with np.errstate(all="ignore"):
                cases.append((m + v * pert, z - np.outer(p * v / (1.0 + v * s), q)))
    assert any(not np.isfinite(z).all() for _, z in cases)
    cases.append((np.eye(2), np.array([[1.0, -MONOTONE_RTOL], [0.0, 1.0]])))
    cases.append((np.diag([1.0, 1e-14]), np.diag([1.0, 1e14])))
    # max|m| and max|z| far apart: the singularity rule must read max|m|.
    cases.append((1e-7 * np.eye(3), 1e7 * np.eye(3)))
    return cases


def test_certificate_matches_its_reference():
    decided = declined = 0
    for m, z in _candidate_probes():
        got = buffoni._certified_verdict(z, buffoni._residual_bound(m, z))
        assert got == _reference_certified_check(m, z)
        assert got is None or isinstance(got, MonotoneCheck)
        decided += got is not None
        declined += got is None
    assert decided >= 16 and declined >= 10


def _banded(rng, n, width):
    """Strictly diagonally dominant M-matrix of bandwidth ``width``."""
    a = random_sdd_m_matrix(rng, n)
    a[np.abs(np.subtract.outer(np.arange(n), np.arange(n))) > width] = 0.0
    np.fill_diagonal(a, 0.0)
    np.fill_diagonal(a, -1.5 * a.sum(axis=1) + 0.1)
    return a


def _column_spans(m):
    """Width of the span of nonzero columns of each row block of m that
    buffoni._residual_bound multiplies."""
    step = linalg.BLOCK_LEAF_ORDER
    widths = []
    for i in range(0, m.shape[0], step):
        cols = np.flatnonzero(m[i : i + step].any(axis=0))
        widths.append(int(cols[-1] - cols[0] + 1))
    return widths


@pytest.mark.parametrize(
    "make",
    [
        lambda rng: grid_laplacian(15, 15, 0.1),
        lambda rng: grid_laplacian(1, 200, 1e-3),
        lambda rng: _banded(rng, 150, 20),
    ],
)
def test_residual_bound_over_spans_matches_the_whole_product(make):
    # Each row block of m is multiplied over the span of its nonzero
    # columns only; the norms are the same and rho, whose products sum in
    # another order, moves within the gamma term that covers that rounding.
    rng = np.random.default_rng(29)
    a = make(rng)
    n = a.shape[0]
    m = a * _unit_scale(float(np.abs(a).max()))
    z = inverse(m)
    grow, gamma = _grow_and_gamma(n)
    for candidate in (z, z * (1.0 + 1e-9 * rng.standard_normal(z.shape))):
        shapes = matmul_shapes(lambda: buffoni._residual_bound(m, candidate))
        got, want = buffoni._residual_bound(m, candidate), _reference_residual(m, candidate)
        assert [inner for _, inner, _ in shapes] == _column_spans(m)
        assert max(inner for _, inner, _ in shapes) < n
        assert got[1:] == want[1:]
        assert abs(got.rho - want.rho) <= grow * gamma * (1.0 + got.m_norm * got.z_norm)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_row_outside_every_span_gets_no_certificate(bad):
    # Column n - 1 of m is zero, so no row block's span reaches row n - 1
    # of the candidate and the product never reads it: ||z|| does.
    m = grid_laplacian(10, 10, 0.5) / 8.5
    z = inverse(m)
    m[:, -1] = 0.0
    z[-1, 3] = bad
    assert max(_column_spans(m)) < 99
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        residual = buffoni._residual_bound(m, z)
        assert not math.isfinite(residual.rho)
        assert buffoni._certified_verdict(z, residual) is None


def _reference_rank_one_factors(e):
    """Reference for buffoni._rank_one_factors: |E - u w^T| formed over all
    of E."""
    i, j = divmod(int(np.argmax(e)), e.shape[1])
    top = float(e[i, j])
    if top <= 0.0:
        return None
    u, w = e[:, j], e[i, :] / top
    gap_max = float(np.abs(e - np.outer(u, w)).max())
    if gap_max + math.ulp(0.0) > buffoni.RANK_ONE_RTOL * top:
        return None
    n = e.shape[0]
    grow, _ = _grow_and_gamma(n)
    return u, w, n * (grow * (gap_max + buffoni._UNIT_ROUNDOFF * top) + math.ulp(0.0))


def _perturbations(n):
    """Nonnegative E of order n: sparse rank one, rank one with its
    nonzeros in the four corners, two opposite corners (rank two), one
    entry, dense rank one, and each of those rank-one E with a roundoff-level
    change inside its span."""
    rng = np.random.default_rng(n)
    u, w = np.zeros(n), np.zeros(n)
    u[rng.choice(n, 4, replace=False)] = rng.uniform(0.5, 2.0, 4)
    w[rng.choice(n, 3, replace=False)] = rng.uniform(0.5, 2.0, 3)
    ends = np.zeros(n)
    ends[[0, -1]] = [0.7, 1.3]
    opposite = np.zeros((n, n))
    opposite[0, -1], opposite[-1, 0] = 1.0, 2.0
    rank_one = [
        np.outer(u, w),
        np.outer(ends, ends[::-1]),
        _unit(n, n // 2, n // 3),
        np.outer(rng.uniform(0.1, 2.0, n), rng.uniform(0.1, 2.0, n)),
    ]
    nudged = []
    for e in rank_one:
        e = e.copy()
        e.flat[int(np.argmax(e > 0.0))] *= 1.0 + 2e-16
        nudged.append(e)
    return rank_one + nudged + [opposite]


@pytest.mark.parametrize("n", [5, 64, 225])
def test_rank_one_factors_scan_columns_only_over_the_rows_of_e(n):
    for e in _perturbations(n):
        scans = column_span_scans(buffoni, lambda: buffoni._rank_one_factors(e))
        (e_t, rows), (scanned, cols) = scans
        assert rows == whole_span(e.T) and cols == whole_span(e)
        assert np.array_equal(e_t, e.T) and np.array_equal(scanned, e[rows])


@pytest.mark.parametrize("n", [5, 64, 225])
def test_rank_one_factors_over_the_span_match_the_whole_matrix(n):
    decided = 0
    for e in _perturbations(n):
        got, want = buffoni._rank_one_factors(e), _reference_rank_one_factors(e)
        assert (got is None) == (want is None)
        if got is not None:
            decided += 1
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
            assert got[2] == want[2]
    assert decided >= 4
