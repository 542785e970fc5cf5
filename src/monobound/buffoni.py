"""Exact monotonicity thresholds: the quadratically convergent ratio
iteration, its Sherman-Morrison closed form for a rank-one perturbation,
and an independent bracketing oracle over the monotonicity predicate
(bisection whose probes are placed by ITP interpolation between the
inverses at the bracket ends).

For a rank-one E a probe of the oracle first tries a certified verdict: a
bound on the residual of the Sherman-Morrison candidate for (A + v E)^-1
proves, when the margin allows, that the predicate on the candidate gives
the predicate on the exact inverse (:func:`_certified_verdict`).  A search
forms one residual, that of A^-1, with one matrix product
(:func:`_search_residual`); each probe then bounds its own residual from it
in O(1) (:func:`_probe_residual`).  Otherwise the probe inverts A + v E
through its record (:func:`linalg._analyse`), as for a general E.  Every term of the bound is
measured or bounded from the operation that produced it, so the proof holds
for the matrix whatever the candidate, and the oracle stays independent of
the closed form.

The threshold of interest is v* = sup { v >= 0 : A + v E is monotone } for a
monotone A and an entrywise-nonnegative E.  Both searches run on the pair
scaled once by powers of two (:func:`_validated_pair`), so the threshold of
(c A, E) is exactly c times that of (A, E), and that of (A, c E) 1/c times,
across the float range unless a value is subnormal.  The iteration and
search settings are the fixed module constants below.  Every monotonicity
verdict, certified or not, is the package's one verdict
(:func:`linalg._monotone_check`, with the one fixed slack
:data:`linalg.MONOTONE_RTOL`) on an inverse or a candidate, and the cap, the
certificate's slack and the narrowing probes read max|Z| from the verdicts
they hold rather than from Z.

The base A, each Buffoni iterate and each probe that inverts is one matrix
record (:func:`linalg._analyse`): its inverse, its verdict or refusal, and
for A the Z flag that the diagonal-E shortcut reads, are found once.  The
ratio iteration masks W = Z E Z with the structural pattern of A + E
(:func:`_ratio_iteration`), so a roundoff-level W entry where W is exactly
zero cannot end it at a false threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    DimensionMismatch,
    NegativePerturbation,
    NotMonotone,
    SingularIterate,
)
from .graphdist import _compose, _reach_powers
from .linalg import (
    BLOCK_LEAF_ORDER,
    MONOTONE_RTOL,
    SINGULARITY_RTOL,
    MonotoneCheck,
    _analyse,
    _Analysis,
    _column_span,
    _monotone_check,
    _unit_scale,
    as_square_matrix,
)

CONVERGENCE_RTOL = 1e-12
MAX_ITER = 100
V_CAP = 1e12
W_FLOOR = 1e-14
#: E counts as rank one when max|E - u w^T| <= RANK_ONE_RTOL * max E.
RANK_ONE_RTOL = 1e-14
BISECT_ABS_TOL = 1e-9
#: Unit roundoff of IEEE double precision.
_UNIT_ROUNDOFF = 2.0**-53
#: The smallest subnormal: at most what one product loses to underflow.
_UNDERFLOW = math.ulp(0.0)


class IterationStep(NamedTuple):
    """One step of the ratio iteration: the iterate it started from, the
    increment it chose, and the (0-based) entry attaining the minimum ratio."""

    v: float
    increment: float
    argmin: tuple[int, int]


@dataclass(frozen=True)
class BuffoniTrace:
    """Iteration history of the threshold search.

    ``vstar`` is the final iterate (math.inf when the sequence diverges);
    ``status`` is "converged", "diverged_infinite", or "max_iterations".
    """

    iterates: tuple[IterationStep, ...]
    status: str
    vstar: float

    @property
    def iteration_count(self) -> int:
        return len(self.iterates)


class _RankOne(NamedTuple):
    """A rank-one E in unit scale, pert = u w^T + H with ||H||_inf <= ``h``
    (infinity norms), and its Sherman-Morrison terms against ``z`` = m^-1 as
    computed in floats: p = z u, q^T = w^T z and s = w^T p."""

    u: np.ndarray
    w: np.ndarray
    p: np.ndarray
    q: np.ndarray
    s: float
    h: float


class _Pair(NamedTuple):
    """A validated pair (A, E) in unit scale and what both threshold searches
    read from it, each found once: ``base``, the record (:func:`linalg._analyse`)
    of m = s A, and ``pert`` = t E, with s and t the powers of two that bring
    max|A| and max E into [0.5, 1) (:func:`linalg._unit_scale`); ``z`` = m^-1,
    read from the record, whose verdict on it validated m and whose Z flag
    :func:`_buffoni_from` reads; ``unit`` = t / s, so A + v E is monotone exactly
    when m + (v / unit) pert is; ``h`` = max|m| / max pert (math.inf for a
    zero E); the ``cap`` past which both searches report math.inf; and the
    :func:`_rank_one_terms` of E (None unless E is rank one)."""

    base: _Analysis
    pert: np.ndarray
    z: np.ndarray
    unit: float
    h: float
    cap: float
    rank_one: _RankOne | None


def _validated_pair(a, e) -> _Pair:
    """Check the pair and return it in unit scale; A must be monotone.

    The cap is h * min(V_CAP, 0.5 / (SINGULARITY_RTOL * max|m| * max|z|) - 1):
    while m + v pert is monotone its inverse stays <= z entrywise
    (dZ/dv = -Z E Z), so :func:`inverse` refuses no probe or iterate below
    the second term, which keeps half of the rule's budget for roundoff;
    where m alone uses more, it is V_CAP * h.  Where max|A| / max E lies
    beyond about 2^+-1022, t moves towards s until t / s is a normal float
    and the cap falls to where cap * unit is finite: such a threshold reads
    0 or math.inf, never NaN.

    E's rank-one factors are found on E as given, before the scaled copies
    exist, so the pair holds at most three n x n arrays at once besides its
    inputs and the inverse's own work.  Scaling by t is exact, so the factors
    of t E are t u and w, unless an entry of t E or t u is subnormal."""
    a = as_square_matrix(a)
    e = as_square_matrix(e)
    if e.shape != a.shape:
        raise DimensionMismatch(
            f"perturbation shape {e.shape} does not match matrix shape {a.shape}"
        )
    if e.min() < 0.0:
        raise NegativePerturbation("perturbation must be entrywise nonnegative")
    factors = _rank_one_factors(e)
    a_max, e_max = float(max(a.max(), -a.min())), float(e.max())
    s = _unit_scale(a_max)
    t = min(max(_unit_scale(e_max), s * 2.0**-1022), s * 2.0**1023)
    unit = t / s
    base = _analyse(a * s)
    z, verdict = base.inverted
    if not verdict:
        raise NotMonotone("base matrix is not monotone")
    pert = e * t
    # Scaling by a power of two is exact and rounding is monotone, so these
    # are max|m| and max pert exactly; the verdict holds max|z|.
    m_max, e_max = s * a_max, t * e_max
    h = m_max / e_max if e_max > 0.0 else math.inf
    headroom = 0.5 / (SINGULARITY_RTOL * m_max * verdict._z_max) - 1.0
    cap = h * (min(V_CAP, headroom) if headroom > 0.0 else V_CAP)
    cap = min(cap, float(np.finfo(float).max) / unit)
    rank_one = None if factors is None else _rank_one_terms(factors, t, z)
    return _Pair(base, pert, z, unit, h, cap, rank_one)


def buffoni_vstar(a, e) -> BuffoniTrace:
    """Threshold v* by the ratio iteration
    v <- v + min { z_ij / w_ij : w_ij > 0 }, with Z = (A + v E)^-1 and
    W = Z E Z (minus the derivative of Z in v).

    It runs on the unit-scaled pair, so W neither overflows nor underflows
    and the trace scales exactly with A and E (see the module docstring).
    Converges quadratically to a finite v* and diverges past the pair's cap
    (``V_CAP * max|A| / max|E|``, lowered to where the singularity rule
    could refuse an iterate) when A + v E is monotone for every v.
    :data:`W_FLOOR` (relative to the largest W entry) keeps roundoff-level
    denominators out of the minimum; convergence is declared when an
    increment is at most ``CONVERGENCE_RTOL * v`` (relative, so the search
    scales with the pair; a zero increment at v = 0 converges), and
    :data:`MAX_ITER` iterates at most.
    A W entry below -MONOTONE_RTOL * max W raises :class:`NotMonotone`:
    the slack :data:`linalg.MONOTONE_RTOL` let a non-monotone A through
    validation.

    A rank-one E = u w^T (to :data:`RANK_ONE_RTOL`) skips the iteration:
    Sherman-Morrison gives v* exactly from the inverse of A, reported as one
    step from v = 0.  A diagonal E on a Z-matrix A skips it too: A is then an
    M-matrix, A + v E stays one for every v >= 0, and v* = math.inf is
    reported after no step.
    """
    return _buffoni_from(_validated_pair(a, e))


def _buffoni_from(pair: _Pair) -> BuffoniTrace:
    """:func:`buffoni_vstar` on a pair from :func:`_validated_pair`."""
    if pair.rank_one is not None:
        return _rank_one_vstar(pair)
    pert = pair.pert
    if np.count_nonzero(pert) == np.count_nonzero(np.diagonal(pert)) and pair.base.z_matrix:
        return BuffoniTrace((), "diverged_infinite", math.inf)
    return _ratio_iteration(pair)


def _rank_one_factors(e: np.ndarray) -> tuple[np.ndarray, np.ndarray, float] | None:
    """(u, w, h) with E = u w^T + H and ||H||_inf <= h, w scaled to 1 at E's
    largest entry, or None when E is zero or not rank one to
    :data:`RANK_ONE_RTOL`.

    Each entry of |E - fl(u w^T)| as formed in floats is grown by what that
    product can lose (the unit roundoff times max|u w^T| = max E, plus
    underflow) and by the rounding of the subtraction; h is n times the
    largest.  The test counts the underflow too, so E is not taken as rank
    one where that loss alone could exceed the tolerance: where max E is
    subnormal, or nearly so.  |E - u w^T| is formed only over the span of
    E's nonzero rows and columns: u, a column of E, is zero outside the
    one and w, a row, outside the other, so outside that span both E and
    fl(u w^T) are exactly 0, and h is the same as over all of E.  The
    columns are scanned only over that span's rows."""
    i, j = divmod(int(np.argmax(e)), e.shape[1])
    top = float(e[i, j])
    if top <= 0.0:
        return None
    u, w = e[:, j], e[i, :] / top
    # |E - u w^T| is formed in the one array that holds u w^T.
    rows = _column_span(e.T)
    cols = _column_span(e[rows])
    gap = np.outer(u[rows], w[cols])
    np.subtract(e[rows, cols], gap, out=gap)
    gap_max = float(np.abs(gap, out=gap).max())
    if gap_max + _UNDERFLOW > RANK_ONE_RTOL * top:
        return None
    n = e.shape[0]
    return u, w, n * (_grow(n) * (gap_max + _UNIT_ROUNDOFF * top) + _UNDERFLOW)


def _rank_one_terms(
    factors: tuple[np.ndarray, np.ndarray, float], t: float, z: np.ndarray
) -> _RankOne:
    """The :class:`_RankOne` record of pert = t E from E's
    :func:`_rank_one_factors` (u, w, h) and ``z`` = m^-1, found once per
    pair.  u and h scale by t; where an entry of t E or t u rounds to a
    subnormal, each row of H moves by at most n 2^-1074 more."""
    u, w, h = factors
    u = u * t
    p = z @ u
    return _RankOne(u, w, p, w @ z, float(w @ p), t * h + u.size * _UNDERFLOW)


def _usable_denominators(w: np.ndarray, v: float) -> np.ndarray:
    """Entries of W = Z E Z above :data:`W_FLOOR` (relative to max W); none
    when W vanishes."""
    w_max = float(w.max())
    # Z >= 0 and E >= 0 keep W nonnegative (up to roundoff) below v*.
    if not float(w.min()) >= -MONOTONE_RTOL * w_max:
        raise NotMonotone(f"negative ratio denominator at v={v!r}: A + v E is not monotone")
    return w > W_FLOOR * w_max


def _min_ratio(
    num: np.ndarray, den: np.ndarray, where: np.ndarray
) -> tuple[float, tuple[int, int]]:
    """Smallest num / den over ``where`` (math.inf when empty), clamped at 0,
    and its entry (first in row-major order)."""
    ratios = np.full_like(num, math.inf)
    np.divide(num, den, out=ratios, where=where)
    pick = divmod(int(np.argmin(ratios)), num.shape[1])
    return max(float(ratios[pick]), 0.0), pick


def _rank_one_vstar(pair: _Pair) -> BuffoniTrace:
    """Exact v* for E = u w^T from Z = A^-1 and its terms p = Z u,
    q^T = w^T Z and s = w^T p (the pair's ``rank_one``).

    Sherman-Morrison gives (A + v E)^-1 = Z - v p q^T / (1 + v s), whose
    (i, j) entry stays nonnegative exactly while v (p_i q_j - s z_ij) <= z_ij.
    W = Z E Z is p q^T, masked and checked as in the iteration."""
    p, q, s = pair.rank_one.p, pair.rank_one.q, pair.rank_one.s
    den = np.outer(p, q)
    usable = _usable_denominators(den, 0.0)
    # W turns into the denominators p q^T - s Z in place.
    den -= s * pair.z
    usable &= den > 0.0
    vstar, pick = _min_ratio(pair.z, den, usable)
    if math.isinf(vstar):
        return BuffoniTrace((), "diverged_infinite", math.inf)
    steps = (IterationStep(v=0.0, increment=vstar * pair.unit, argmin=pick),)
    if vstar > pair.cap:
        return BuffoniTrace(steps, "diverged_infinite", math.inf)
    return BuffoniTrace(steps, "converged", vstar * pair.unit)


def _ratio_iteration(pair: _Pair) -> BuffoniTrace:
    """The iteration of :func:`buffoni_vstar` on the unit-scaled pair from
    v = 0, stopping past the cap; steps and result are in the pair's units.

    W is set to 0 outside P = C [pert != 0] C, found once per call, with C
    the reachability closure of the sparsity graph of m + pert.  For every
    v the graph of m + v pert lies in that of m + pert, and the inverse of
    a matrix vanishes from i to j when its graph has no path from i to j
    (it is block triangular in the graph's strong components), so W = Z
    pert Z is exactly zero outside P.  What roundoff leaves there could
    only meet an exact zero of Z and stop the iteration at a false
    threshold.  For an M-matrix the inverse is positive exactly on C, so P
    is the pattern of W itself (Berman and Plemmons, Nonnegative Matrices
    in the Mathematical Sciences, 1994, ch. 6)."""
    m, pert, z, unit = pair.base.m, pair.pert, pair.z, pair.unit
    support = pert != 0.0
    closure = _reach_powers(support | (m != 0.0))[-1]
    outside = ~_compose(_compose(closure, support), closure)
    steps: list[IterationStep] = []
    v = 0.0
    while True:
        w = z @ pert @ z
        np.copyto(w, 0.0, where=outside)
        usable = _usable_denominators(w, v * unit)
        if not usable.any():
            return BuffoniTrace(tuple(steps), "diverged_infinite", math.inf)
        increment, pick = _min_ratio(z, w, usable)
        steps.append(IterationStep(v=v * unit, increment=increment * unit, argmin=pick))
        v += increment
        if increment <= CONVERGENCE_RTOL * v:
            return BuffoniTrace(tuple(steps), "converged", v * unit)
        if v > pair.cap:
            return BuffoniTrace(tuple(steps), "diverged_infinite", math.inf)
        if len(steps) == MAX_ITER:
            return BuffoniTrace(tuple(steps), "max_iterations", v * unit)
        z, check = _analyse(_perturbed(m, pert, v)).inverted
        if check.singular:
            # z is then the SingularMatrix that refused the iterate.
            raise SingularIterate(f"iterate at v={v * unit!r} is singular: {z}")


def bisection_vstar(a, e, *, abs_tol: float = BISECT_ABS_TOL) -> float:
    """Independent threshold oracle: double an upper candidate from
    ``max|A| / (n max E)`` until monotonicity fails (returning math.inf once
    past the pair's cap, and at once for a zero E), then narrow the
    predicate boundary until the bracket is at most ``abs_tol`` wide or no
    float lies strictly between its ends.  It runs on the unit-scaled pair
    with ``abs_tol`` in its units, so the search on (c A, E, c abs_tol)
    returns exactly c times the search on (A, E, abs_tol), probe for probe,
    and on (A, c E, abs_tol / c) 1/c times, for c a power of two.

    Each narrowing probe is an ITP step (interpolate, truncate, project)
    towards the earliest entrywise secant crossing of the inverses at the
    bracket ends, so a search never takes more than one probe beyond plain
    bisection of the same bracket, and usually takes about a third of its
    probes.  Only the predicate's verdicts move the bracket ends.

    For a rank-one E a probe takes no inverse when a residual bound
    proves its verdict on the Sherman-Morrison candidate, and inverts A + v E
    otherwise.  The search forms one residual, I - A Z for the inverse Z
    that validated A (one matrix product), and bounds each probe's residual
    from it and the rank-one terms in O(1) (:func:`_probe_residual`).  A
    certified verdict is a fact about A + v E itself, whatever the
    candidate, so the oracle still never takes the closed form's word for
    v*: a wrong candidate costs an inverse, not a wrong verdict.
    """
    return _bisect_from(_validated_pair(a, e), 0.0, abs_tol)


def _checked_inverse(
    pair: _Pair, v: float, residual: _SearchResidual | None
) -> tuple[MonotoneCheck, np.ndarray | None]:
    """One probe of the search: the monotonicity verdict on m + v pert (v in
    the unit-scaled pair's units) and the matrix it tested (None when
    m + v pert is singular).

    With ``residual``, the search's bound for a rank-one E
    (:func:`_search_residual`), the tested matrix is the Sherman-Morrison
    candidate (:func:`_candidate`) when its O(1) residual bound
    (:func:`_probe_residual`) proves its verdict; otherwise, and for a
    general E, it is the inverse of m + v pert, which only then is formed."""
    if residual is not None:
        candidate = _candidate(pair, v)
        verdict = _certified_verdict(candidate, _probe_residual(residual, v))
        if verdict is not None:
            return verdict, candidate
        # Freed before the inverse takes its own arrays.
        del candidate
    inv, verdict = _analyse(_perturbed(pair.base.m, pair.pert, v)).inverted
    return verdict, None if verdict.singular else inv


def _candidate(pair: _Pair, v: float) -> np.ndarray:
    """z - v p q^T / (1 + v s) in one new array: the Sherman-Morrison
    candidate for (m + v pert)^-1 from the pair's rank-one terms.  A zero or
    overflowing 1 + v s gives a non-finite candidate, without a warning."""
    p, q, s = pair.rank_one.p, pair.rank_one.q, pair.rank_one.s
    with np.errstate(all="ignore"):
        candidate = np.outer(p * v / (1.0 + v * s), q)
        np.subtract(pair.z, candidate, out=candidate)
    return candidate


def _perturbed(m: np.ndarray, pert: np.ndarray, v: float) -> np.ndarray:
    """A + v E in one new array: v E is formed in it and A added in place."""
    out = np.multiply(pert, v)
    out += m
    return out


def _grow(n: int) -> float:
    """1 + 4 (n + 2) u, with u the unit roundoff: the factor that covers the
    rounding of a norm, sum or product of a few terms taken in floats (a
    row sum of n terms is within gamma_{n-1} of the exact sum)."""
    return 1.0 + 4.0 * (n + 2) * _UNIT_ROUNDOFF


class _Residual(NamedTuple):
    """Bounds for a matrix M and a candidate Z~ for M^-1, up to the rounding
    that :func:`_grow` covers: ``rho`` >= ||I - M Z~||, ``m_norm`` >= ||M||,
    ``m_max`` >= max|M| and ``z_norm`` >= ||Z~|| (infinity norms)."""

    rho: float
    m_norm: float
    m_max: float
    z_norm: float


def _residual_bound(m: np.ndarray, z: np.ndarray) -> _Residual:
    """The :class:`_Residual` of ``m`` and ``z`` from one matrix product.

    m z is formed in row blocks of :data:`linalg.BLOCK_LEAF_ORDER` rows, each
    multiplied only over the span of columns where its rows hold a nonzero
    of m (by one product of the whole matrices when every span is full).
    Each term left out is an exact zero of m times an entry of z, so every
    entry of m z only loses zero terms.  The computed residual I - m z is
    within gamma_{n+1} (I + |m| |z|) of the exact one for a conventional
    O(n^3) matrix product, whatever the order or number of the terms
    summed (Higham, Accuracy and Stability of Numerical Algorithms, 2002,
    sec. 3.5; Rump, Acta Numerica 19, 2010), so rho adds that term, and
    rho >= gamma_{n+1} also covers the product's underflow.  A non-finite
    ``z`` or residual gives a rho that fails ``rho < 1``, without a warning:
    an entry of z in a row that no span reaches still enters ||z||."""
    n = m.shape[0]
    # At least gamma_{n+1} = (n + 1) u / (1 - (n + 1) u) for n below 10^13.
    gamma = 1.01 * (n + 1) * _UNIT_ROUNDOFF
    step = BLOCK_LEAF_ORDER
    spans = [_column_span(m[i : i + step]) for i in range(0, n, step)]
    with np.errstate(all="ignore"):
        # One work array holds the residual, then |m|, then |z|; each is
        # reduced before the next overwrites it.
        if all(cols == slice(0, n) for cols in spans):
            work = m @ z
        else:
            work = np.empty_like(m)
            for i, cols in zip(range(0, n, step), spans):
                np.matmul(m[i : i + step, cols], z[cols], out=work[i : i + step])
        work.flat[:: n + 1] -= 1.0
        r_norm = float(np.abs(work, out=work).sum(axis=1).max())
        np.abs(m, out=work)
        m_norm, m_max = float(work.sum(axis=1).max()), float(work.max())
        np.abs(z, out=work)
        z_norm = float(work.sum(axis=1).max())
    rho = _grow(n) * (r_norm + gamma * (1.0 + m_norm * z_norm))
    return _Residual(rho, m_norm, m_max, z_norm)


def _certified_verdict(z: np.ndarray, residual: _Residual) -> MonotoneCheck | None:
    """:func:`linalg._monotone_check` of ``z`` when ``residual`` proves it
    is also the verdict on the exact inverse of the matrix M it bounds; None
    otherwise.

    With R = I - M z, every entry of M^-1 - z = z R (I - R)^-1 is at most
    delta = ||z|| rho / (1 - rho) in magnitude for any rho >= ||R|| below 1.
    The minimum entry and the slack MONOTONE_RTOL times the largest
    magnitude then move by at most (1 + MONOTONE_RTOL) delta from z to M^-1,
    and the verdict is kept only when its margin value + MONOTONE_RTOL max|z|
    is larger.  It is also kept only when
    SINGULARITY_RTOL max|M| (max|z| + delta) < 1, so no matrix that
    :func:`linalg.inverse` could refuse gets a certified verdict.

    Every norm, sum and product is grown by :func:`_grow`.  Where delta or
    the margin falls below the normal range, a few units of the smallest
    subnormal bound what their rounding loses.  A non-finite ``z`` fails
    the margin test, without a warning.
    """
    rho = residual.rho
    if not rho < 1.0:
        return None
    grow = _grow(z.shape[0])
    delta = grow * residual.z_norm * rho / (1.0 - rho)
    check = _monotone_check(z)
    slack = MONOTONE_RTOL * check._z_max
    margin = abs(check.value + slack)
    bound = grow * ((1.0 + MONOTONE_RTOL) * delta + _UNIT_ROUNDOFF * slack) + 8.0 * _UNDERFLOW
    regular = grow * SINGULARITY_RTOL * residual.m_max * (check._z_max + delta) < 1.0
    return check if margin > bound and regular else None


class _SearchResidual(NamedTuple):
    """What every rank-one probe of one search reads to bound its residual
    (:func:`_probe_residual`), found once by :func:`_search_residual`:
    ``base``, the :class:`_Residual` of (m, z); n; s; ``e_norm`` >= ||pert||
    and ``e_max`` >= max pert; ``h`` >= ||H||; ``pq`` = ||p|| ||q||_1 and
    ``uq`` = ||u|| ||q||_1; ``q_norm`` = ||q||_1; ``rq`` >= ||u - m p|| ||q||_1,
    ``ue`` >= ||u|| ||Z^T w - q||_1 and ``se`` >= |w^T p - s|, with p, q and s
    as the pair holds them."""

    base: _Residual
    n: int
    s: float
    e_norm: float
    e_max: float
    h: float
    pq: float
    uq: float
    q_norm: float
    rq: float
    ue: float
    se: float


def _search_residual(pair: _Pair) -> _SearchResidual:
    """The :class:`_SearchResidual` of a rank-one pair: one matrix product
    (:func:`_residual_bound` of m and z) and a few O(n^2) passes.

    q and s are formed again as the pair forms them and p is multiplied by
    m, and what each misses is measured, together with the gamma_n rounding
    of those products: gamma_n ||m|| ||p|| for m p, gamma_n ||w||_1 ||z||
    for w^T z and gamma_n |w|^T |p| for w^T p, each plus n 2^-1074 of
    underflow per entry.  So p, q and s need not be the ones their products
    give: a wrong term widens the bound of every probe, which then inverts.
    ||pert|| and max pert are bounded from pert = u w^T + H in O(n)."""
    m, z = pair.base.m, pair.z
    u, w, p, q, s, h = pair.rank_one
    n = m.shape[0]
    base = _residual_bound(m, z)
    gamma = 1.01 * n * _UNIT_ROUNDOFF
    tiny = n * _UNDERFLOW
    grow = _grow(n)
    with np.errstate(all="ignore"):
        u_max, w_max, p_max = float(u.max()), float(w.max()), float(np.abs(p).max())
        q_norm, w_norm = float(np.abs(q).sum()), float(w.sum())
        r_p = float(np.abs(u - m @ p).max()) + gamma * base.m_norm * p_max + tiny
        e_q = float(np.abs(w @ z - q).sum()) + gamma * w_norm * base.z_norm + n * tiny
        e_s = abs(float(w @ p) - s) + gamma * float(w @ np.abs(p)) + tiny
    return _SearchResidual(
        base, n, s, u_max * w_norm + h, u_max * w_max + h, h,
        pq=grow * p_max * q_norm,
        uq=grow * u_max * q_norm,
        q_norm=grow * q_norm,
        rq=grow * r_p * q_norm,
        ue=grow * u_max * e_q,
        se=grow * e_s,
    )


def _probe_residual(b: _SearchResidual, v: float) -> _Residual:
    """The :class:`_Residual` of the probe M = fl(m + v pert) and its
    candidate Z~ (:func:`_candidate`), in O(1) from the search's.

    With c = v / d, d = fl(1 + v s) as the candidate forms it, and
    Y = z - c p q^T, exact arithmetic gives
    I - M Z~ = R0 - c r q^T - v u e^T - k u q^T - (v H + F) Y - M G,
    where R0 = I - m z, r = u - m p, e = Z^T w - q, k = c (d - 1 - v w^T p),
    F = M - m - v pert and G = Z~ - Y.  So rho adds to rho0: |c| ||r|| ||q||_1;
    v ||u|| ||e||_1; |k| ||u|| ||q||_1 with
    |k| <= |c| (eps (|d| + v |s|) + v |w^T p - s| + 2^-1074); and
    (v ||H|| + ||F||) (||Z~|| + ||G||) + ||M|| ||G||, where
    ||F|| <= 2 eps (||m|| + v ||pert||) + n 2^-1074 (forming M) and
    ||G|| <= eps ||Z~|| + 3 eps |c| ||p|| ||q||_1 + (2 (1 + 1/|d|) ||q||_1 + n) 2^-1074
    (forming the candidate), with eps the unit roundoff.  ||Z~|| is bounded by
    ||z|| + |c| ||p|| ||q||_1 plus that underflow term, and max|M| by
    max|m| + v max pert.  With p, q and s exact, the whole residual is
    R0 (I - c u q^T)."""
    unit, tiny = _UNIT_ROUNDOFF, _UNDERFLOW
    base = b.base
    d = 1.0 + v * b.s
    c = abs(v / d) if d != 0.0 else math.inf
    lost = (2.0 * (1.0 + 1.0 / abs(d)) * b.q_norm + b.n) * tiny if d != 0.0 else math.inf
    z_norm = base.z_norm + c * b.pq + lost
    g = unit * z_norm + 3.0 * unit * c * b.pq + lost
    m_norm = base.m_norm + v * b.e_norm
    f = 2.0 * unit * m_norm + b.n * tiny
    k = c * (unit * (abs(d) + v * abs(b.s)) + v * b.se + tiny)
    rho = (
        base.rho + c * b.rq + v * b.ue + k * b.uq
        + (v * b.h + f) * (z_norm + g) + (m_norm + f) * g
    )
    grow = _grow(b.n)
    m_max = grow * (base.m_max + v * b.e_max) + tiny
    return _Residual(grow * rho, grow * (m_norm + f), m_max, grow * z_norm)


def _bisect_from(pair: _Pair, seed: float, abs_tol: float) -> float:
    """The search of :func:`bisection_vstar` on a pair from
    :func:`_validated_pair`, with the bracket grown around ``seed``.
    ``seed``, ``abs_tol`` and the result are in the pair's units; the search
    itself runs in the unit-scaled pair's.

    A finite positive ``seed`` (the iteration's v*) is probed, then stepped
    from by ``abs_tol``, doubling the step until the predicate changes:
    upward when A + seed E is monotone, downward (at most to 0, where A was
    validated) when it is not.  A seed of 0 or math.inf takes the unseeded
    expansion from h / n, with h the pair's scale max|A| / max E.  No
    candidate past the pair's cap is probed.  The bracket is then narrowed
    by :func:`_itp_point` until it is at most ``abs_tol`` wide.  Either way
    the predicate alone confirms both ends of the final bracket, so a poor
    seed or a poor interpolant costs probes, not correctness.
    """
    if math.isinf(pair.h):
        return math.inf
    cap, unit = pair.cap, pair.unit
    seed, abs_tol = seed / unit, abs_tol / unit
    # lo is always the last monotone probe (or 0, before one is made) and hi
    # the last failing one, so these are the verdicts and the matrices tested
    # at the bracket ends, the matrix None at a singular hi.
    last = {True: (pair.base.check, pair.z), False: (None, None)}
    residual = None if pair.rank_one is None else _search_residual(pair)

    def monotone_at(v: float) -> bool:
        verdict, inv = _checked_inverse(pair, v, residual)
        last[bool(verdict)] = verdict, inv
        return bool(verdict)

    if 0.0 < seed < math.inf:
        step = abs_tol
    else:
        seed, step = 0.0, pair.h / pair.base.m.shape[0]
    if seed == 0.0 or monotone_at(seed):
        lo, hi = seed, seed + step
        while hi <= cap and monotone_at(hi):
            lo = hi
            step *= 2.0
            hi = seed + step
        if hi > cap:
            return math.inf
    else:
        lo, hi = max(seed - step, 0.0), seed
        while lo > 0.0 and not monotone_at(lo):
            hi = lo
            step *= 2.0
            lo = max(seed - step, 0.0)
    width = hi - lo
    # After k narrowing probes the bracket is at most 2 * width / 2^k wide,
    # so the search never takes more than one probe beyond plain bisection.
    reach = 2.0 * width
    while hi > lo + abs_tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        reach *= 0.5
        v = _itp_point(lo, hi, last[True], last[False], width, reach)
        if not lo < v < hi:
            v = mid
        if monotone_at(v):
            lo = v
        else:
            hi = v
    return 0.5 * (lo + hi) * unit


def _itp_point(
    lo: float,
    hi: float,
    at_lo: tuple[MonotoneCheck, np.ndarray],
    at_hi: tuple[MonotoneCheck | None, np.ndarray | None],
    width: float,
    reach: float,
) -> float:
    """Next probe of the narrowing: the ITP step (Oliveira and Takahashi,
    ACM TOMS 47(1), 2020) with n0 = 1, kappa2 = 2 and kappa1 = 0.2 / the
    bracket's initial ``width``.

    ``at_lo`` and ``at_hi`` are the verdict and the inverse tested at each
    end.  The interpolant is the earliest v at which some entry,
    interpolated linearly between the two inverses, crosses the tolerant
    floor -MONOTONE_RTOL * max|Z| (itself interpolated, from the max|Z| each
    verdict read); it is moved towards the midpoint by
    kappa1 * (hi - lo)^kappa2 and then kept close enough to it that the
    bracket it leaves is at most ``reach`` wide.  A singular ``hi`` (no
    inverse) gives the midpoint.
    """
    mid = 0.5 * (lo + hi)
    (check_lo, z_lo), (check_hi, z_hi) = at_lo, at_hi
    if z_hi is None:
        return mid
    floor_lo, floor_hi = MONOTONE_RTOL * check_lo._z_max, MONOTONE_RTOL * check_hi._z_max
    # z_hi + floor_hi rounds below 0 exactly when z_hi < -floor_hi, so only
    # the crossing entries are shifted.  A monotone lo keeps every shifted
    # entry at lo >= 0 and a failing hi puts some shifted entry at hi < 0,
    # so each crossing lies in [lo, hi).
    crossing = z_hi < -floor_hi
    above = z_lo[crossing] + floor_lo
    t = float(np.min(above / (above - (z_hi[crossing] + floor_hi))))
    v = lo + t * (hi - lo)
    # On a unit-scaled pair the bracket is at most the cap (below 2^41 for
    # normal entries) wide, so the square cannot overflow.
    shift = 0.2 * (hi - lo) ** 2 / width
    v = v + math.copysign(shift, mid - v) if shift <= abs(mid - v) else mid
    radius = max(reach - 0.5 * (hi - lo), 0.0)
    return min(max(v, mid - radius), mid + radius)
