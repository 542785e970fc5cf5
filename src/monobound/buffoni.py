"""Exact monotonicity thresholds: the quadratically convergent ratio
iteration, its Sherman-Morrison closed form for a rank-one perturbation,
and an independent bracketing oracle over the monotonicity predicate
(bisection whose probes are placed by ITP interpolation between the
inverses at the bracket ends).

For a rank-one E a probe of the oracle first tries a certified verdict: the
Sherman-Morrison candidate for (A + v E)^-1 and one residual product prove,
when the margin allows, that the predicate on the candidate gives the
predicate on the exact inverse (:func:`_certified_check`).  Otherwise the
probe inverts by LAPACK as for a general E.  The proof holds for the matrix
whatever the candidate, so the oracle stays independent of the closed form.

The threshold of interest is v* = sup { v >= 0 : A + v E is monotone } for a
monotone A and an entrywise-nonnegative E.  The iteration and search settings
are the fixed module constants below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .classify import (
    DEFAULT_MONOTONE_TOL,
    MonotoneCheck,
    _monotone_check,
    _monotone_inverse,
    is_z_matrix,
)
from .errors import (
    DimensionMismatch,
    NegativePerturbation,
    NotMonotone,
    SingularIterate,
    SingularMatrix,
)
from .linalg import SINGULARITY_RTOL, as_square_matrix, inverse

CONVERGENCE_RTOL = 1e-12
MAX_ITER = 100
V_CAP = 1e12
W_FLOOR = 1e-14
#: E counts as rank one when max|E - u w^T| <= RANK_ONE_RTOL * max E.
RANK_ONE_RTOL = 1e-14
BISECT_ABS_TOL = 1e-9
#: Unit roundoff of IEEE double precision.
_UNIT_ROUNDOFF = 2.0**-53


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


def _validated_pair(a, e, tol: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Check the pair and return (A, E, inverse of A); A must be monotone."""
    m = as_square_matrix(a)
    pert = as_square_matrix(e)
    if pert.shape != m.shape:
        raise DimensionMismatch(
            f"perturbation shape {pert.shape} does not match matrix shape {m.shape}"
        )
    if np.any(pert < 0.0):
        raise NegativePerturbation("perturbation must be entrywise nonnegative")
    verdict, inv = _monotone_inverse(m, tol)
    if not verdict:
        raise NotMonotone("base matrix is not monotone")
    return m, pert, inv


def _pair_scale(m: np.ndarray, pert: np.ndarray) -> float:
    """max|A| / max E, the scale of the pair's threshold; math.inf for a
    zero E."""
    e_max = float(pert.max())
    return float(max(m.max(), -m.min())) / e_max if e_max > 0.0 else math.inf


def _cap(m: np.ndarray, pert: np.ndarray, z: np.ndarray) -> float:
    """The v past which both searches report math.inf (math.inf for a zero
    E): h * min(V_CAP, 0.5 / (SINGULARITY_RTOL * max|A| * max|Z|) - 1), with
    Z = A^-1 and h = max|A| / max E.  While A + v E is monotone its inverse
    stays <= Z entrywise (dZ/dv = -Z E Z), so :func:`inverse` refuses no
    probe or iterate below the second term, which keeps half of the rule's
    budget for roundoff.  Where A alone uses more than that half the term is
    not positive, and the cap is V_CAP * h."""
    a_max = float(max(m.max(), -m.min()))
    headroom = 0.5 / (SINGULARITY_RTOL * a_max * float(max(z.max(), -z.min()))) - 1.0
    return _pair_scale(m, pert) * (min(V_CAP, headroom) if headroom > 0.0 else V_CAP)


def buffoni_vstar(a, e, *, tol: float = DEFAULT_MONOTONE_TOL) -> BuffoniTrace:
    """Threshold v* by the ratio iteration
    v <- v + min { z_ij / w_ij : w_ij > 0 }, with Z = (A + v E)^-1 and
    W = Z E Z (minus the derivative of Z in v).

    Converges quadratically to a finite v* and diverges past the cap of
    :func:`_cap` (``V_CAP * max|A| / max|E|``, lowered to where the
    singularity rule could refuse an iterate) when A + v E is monotone for
    every v.
    :data:`W_FLOOR` (relative to the largest W entry) keeps roundoff-level
    denominators out of the minimum; convergence is declared when an
    increment is at most ``CONVERGENCE_RTOL * v`` (relative, so the search
    scales with the pair; a zero increment at v = 0 converges), and
    :data:`MAX_ITER` iterates at most.
    A W entry below -1e-10 * max W raises :class:`NotMonotone`: a loose
    ``tol`` let a non-monotone A through validation.

    A rank-one E = u w^T (to :data:`RANK_ONE_RTOL`) skips the iteration:
    Sherman-Morrison gives v* exactly from the inverse of A, reported as one
    step from v = 0.  A diagonal E on a Z-matrix A skips it too: A is then an
    M-matrix, A + v E stays one for every v >= 0, and v* = math.inf is
    reported after no step.
    """
    m, pert, z = _validated_pair(a, e, tol)
    return _buffoni_from(m, pert, z, _rank_one_terms(pert, z))


def _buffoni_from(
    m: np.ndarray, pert: np.ndarray, z: np.ndarray, rank_one: _RankOneTerms | None
) -> BuffoniTrace:
    """:func:`buffoni_vstar` on a pair that already passed
    :func:`_validated_pair`, with ``z`` the inverse of A and ``rank_one``
    the :func:`_rank_one_terms` of the pair."""
    cap = _cap(m, pert, z)
    if rank_one is not None:
        return _rank_one_vstar(*rank_one, z, cap)
    if np.count_nonzero(pert) == np.count_nonzero(np.diagonal(pert)) and is_z_matrix(m):
        return BuffoniTrace((), "diverged_infinite", math.inf)
    return _ratio_iteration(m, pert, z, cap)


def _rank_one_factors(pert: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """(u, w) with E = u w^T, scaled so that w is 1 at E's largest entry, or
    None when E is zero or not rank one to :data:`RANK_ONE_RTOL`."""
    i, j = divmod(int(np.argmax(pert)), pert.shape[1])
    top = float(pert[i, j])
    if top <= 0.0:
        return None
    u, w = pert[:, j], pert[i, :] / top
    if float(np.abs(pert - np.outer(u, w)).max()) > RANK_ONE_RTOL * top:
        return None
    return u, w


#: (p, q, s) = (Z u, w^T Z, w^T Z u) for a rank-one E = u w^T and Z = A^-1.
_RankOneTerms = tuple[np.ndarray, np.ndarray, float]


def _rank_one_terms(pert: np.ndarray, z: np.ndarray) -> _RankOneTerms | None:
    """The Sherman-Morrison terms (p, q, s) of E against ``z`` = A^-1, found
    once per pair, or None when E is not rank one (:func:`_rank_one_factors`)."""
    factors = _rank_one_factors(pert)
    if factors is None:
        return None
    u, w = factors
    p = z @ u
    return p, w @ z, float(w @ p)


def _usable_denominators(w: np.ndarray, v: float) -> np.ndarray:
    """Entries of W = Z E Z above :data:`W_FLOOR` (relative to max W); none
    when W vanishes."""
    w_max = float(w.max())
    # Z >= 0 and E >= 0 keep W nonnegative (up to roundoff) below v*.
    if not float(w.min()) >= -1e-10 * w_max:
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


def _rank_one_vstar(
    p: np.ndarray, q: np.ndarray, s: float, z: np.ndarray, cap: float
) -> BuffoniTrace:
    """Exact v* for E = u w^T from Z = A^-1 and its terms p = Z u,
    q^T = w^T Z and s = w^T p.

    Sherman-Morrison gives (A + v E)^-1 = Z - v p q^T / (1 + v s), whose
    (i, j) entry stays nonnegative exactly while v (p_i q_j - s z_ij) <= z_ij.
    W = Z E Z is p q^T, masked and checked as in the iteration."""
    pq = np.outer(p, q)
    den = pq - s * z
    vstar, pick = _min_ratio(z, den, _usable_denominators(pq, 0.0) & (den > 0.0))
    if math.isinf(vstar):
        return BuffoniTrace((), "diverged_infinite", math.inf)
    steps = (IterationStep(v=0.0, increment=vstar, argmin=pick),)
    if vstar > cap:
        return BuffoniTrace(steps, "diverged_infinite", math.inf)
    return BuffoniTrace(steps, "converged", vstar)


def _ratio_iteration(m: np.ndarray, pert: np.ndarray, z: np.ndarray, cap: float) -> BuffoniTrace:
    """The iteration of :func:`buffoni_vstar` on a validated pair, starting
    from v = 0 with Z = A^-1 and stopping past ``cap``."""
    steps: list[IterationStep] = []
    v = 0.0
    while True:
        w = z @ pert @ z
        usable = _usable_denominators(w, v)
        if not usable.any():
            return BuffoniTrace(tuple(steps), "diverged_infinite", math.inf)
        increment, pick = _min_ratio(z, w, usable)
        steps.append(IterationStep(v=v, increment=increment, argmin=pick))
        v += increment
        if increment <= CONVERGENCE_RTOL * v:
            return BuffoniTrace(tuple(steps), "converged", v)
        if v > cap:
            return BuffoniTrace(tuple(steps), "diverged_infinite", math.inf)
        if len(steps) == MAX_ITER:
            return BuffoniTrace(tuple(steps), "max_iterations", v)
        try:
            z = inverse(m + v * pert)
        except SingularMatrix as exc:
            raise SingularIterate(f"iterate at v={v!r} is singular: {exc}") from None


def bisection_vstar(
    a, e, *, abs_tol: float = BISECT_ABS_TOL, tol: float = DEFAULT_MONOTONE_TOL
) -> float:
    """Independent threshold oracle: double an upper candidate from
    ``max|A| / (n max E)`` until monotonicity fails (returning math.inf once
    past the cap of :func:`_cap`, and at once for a zero E), then narrow
    the predicate boundary until the bracket is at most ``abs_tol`` wide or
    no float lies strictly between its ends.  The first candidate scales
    with A, so for c a power of two the search on (c A, E, c abs_tol)
    returns exactly c times the search on (A, E, abs_tol), probe for probe.

    Each narrowing probe is an ITP step (interpolate, truncate, project)
    towards the earliest entrywise secant crossing of the inverses at the
    bracket ends, so a search never takes more than one probe beyond plain
    bisection of the same bracket, and usually takes about a third of its
    probes.  Only the predicate's verdicts move the bracket ends.

    For a rank-one E a probe takes no LAPACK inverse when a residual bound
    proves its verdict (:func:`_certified_check` on the Sherman-Morrison
    candidate), and inverts A + v E otherwise.  A certified verdict is a
    fact about A + v E itself, whatever the candidate, so the oracle still
    never takes the closed form's word for v*: a wrong candidate costs an
    inverse, not a wrong verdict.
    """
    m, pert, z = _validated_pair(a, e, tol)
    return _bisect_from(m, pert, z, 0.0, abs_tol, tol, _rank_one_terms(pert, z))


def _checked_inverse(
    m: np.ndarray,
    pert: np.ndarray,
    v: float,
    tol: float,
    z: np.ndarray,
    rank_one: _RankOneTerms | None,
) -> tuple[MonotoneCheck, np.ndarray | None]:
    """One probe of the search: the monotonicity verdict on A + v E and the
    matrix it tested (None when A + v E is singular).

    With ``rank_one``, the :func:`_rank_one_terms` of E against ``z`` = A^-1,
    the tested matrix is the Sherman-Morrison candidate
    Z - v p q^T / (1 + v s) when :func:`_certified_check` proves its verdict;
    otherwise, and for a general E, it is the inverse of A + v E."""
    probe = m + v * pert
    if rank_one is not None:
        p, q, s = rank_one
        # A zero or overflowing 1 + v s gives a non-finite candidate, which
        # the certificate declines.
        with np.errstate(all="ignore"):
            candidate = z - np.outer(p * v / (1.0 + v * s), q)
        verdict = _certified_check(probe, candidate, tol)
        if verdict is not None:
            return verdict, candidate
    return _monotone_inverse(probe, tol)


def _certified_check(m: np.ndarray, z: np.ndarray, tol: float) -> MonotoneCheck | None:
    """:func:`classify._monotone_check` of ``z`` when a residual bound proves
    it is also the verdict on the exact inverse of ``m``; None otherwise.

    With R = I - m z, every entry of m^-1 - z = z R (I - R)^-1 is at most
    delta = ||z|| rho / (1 - rho) in magnitude for any rho >= ||R|| below 1
    (infinity norms).  The computed residual is within
    gamma_{n+1} (I + |m| |z|) of R for a conventional O(n^3) matrix product
    (Higham, Accuracy and Stability of Numerical Algorithms, 2002, sec. 3.5;
    Rump, Acta Numerica 19, 2010), so rho adds that term.  The minimum entry
    and tol times the largest magnitude then move by at most (1 + tol) delta
    from z to m^-1, and the verdict is kept only when its margin
    value + tol max|z| is larger.  It is also kept only when
    SINGULARITY_RTOL max|m| (max|z| + delta) < 1, so no matrix that
    :func:`linalg.inverse` could refuse gets a certified verdict.

    Every norm, sum and product below is taken in floats and then grown by
    the factor 1 + 4 (n + 2) u, with u the unit roundoff, which bounds its
    rounding (a row sum of n
    terms is within gamma_{n-1} of the exact sum) and the underflow of the
    residual product, since rho >= gamma_{n+1}.  Where delta or the margin
    falls below the normal range, a few units of the smallest subnormal
    bound what their rounding loses.  A non-finite ``z`` or residual fails
    ``rho < 1``, without a warning.
    """
    n = m.shape[0]
    grow = 1.0 + 4.0 * (n + 2) * _UNIT_ROUNDOFF
    # At least gamma_{n+1} = (n + 1) u / (1 - (n + 1) u) for n below 10^13.
    gamma = 1.01 * (n + 1) * _UNIT_ROUNDOFF
    with np.errstate(all="ignore"):
        residual = m @ z
        residual.flat[:: n + 1] -= 1.0
        abs_m, abs_z = np.abs(m), np.abs(z)
        r_norm = float(np.abs(residual, out=residual).sum(axis=1).max())
        m_norm = float(abs_m.sum(axis=1).max())
        z_norm = float(abs_z.sum(axis=1).max())
    rho = grow * (r_norm + gamma * (1.0 + m_norm * z_norm))
    if not rho < 1.0:
        return None
    delta = grow * z_norm * rho / (1.0 - rho)
    z_max = float(abs_z.max())
    check = _monotone_check(z, tol)
    slack = tol * z_max
    margin = abs(check.value + slack)
    bound = grow * ((1.0 + tol) * delta + _UNIT_ROUNDOFF * slack) + 8.0 * math.ulp(0.0)
    regular = grow * SINGULARITY_RTOL * float(abs_m.max()) * (z_max + delta) < 1.0
    return check if margin > bound and regular else None


def _bisect_from(
    m: np.ndarray,
    pert: np.ndarray,
    z: np.ndarray,
    seed: float,
    abs_tol: float,
    tol: float,
    rank_one: _RankOneTerms | None = None,
) -> float:
    """The search of :func:`bisection_vstar` on a pair that already passed
    :func:`_validated_pair`, with ``z`` the inverse of A and the bracket
    grown around ``seed``.  ``rank_one`` holds the :func:`_rank_one_terms`
    of the pair; without it every probe inverts.

    A finite positive ``seed`` (the iteration's v*) is probed, then stepped
    from by ``abs_tol``, doubling the step until the predicate changes:
    upward when A + seed E is monotone, downward (at most to 0, where A was
    validated) when it is not.  A seed of 0 or math.inf takes the unseeded
    expansion from h / n, with h = max|A| / max E the scale of the pair.
    No candidate past :func:`_cap` is probed.  The bracket is then narrowed
    by :func:`_itp_point` until it is at most ``abs_tol`` wide.  Either way
    the predicate alone confirms both ends of the final bracket, so a poor
    seed or a poor interpolant costs probes, not correctness.
    """
    h = _pair_scale(m, pert)
    if math.isinf(h):
        return math.inf
    cap = _cap(m, pert, z)
    # lo is always the last monotone probe (or 0, before one is made) and hi
    # the last failing one, so these are the matrices tested at the bracket
    # ends, or None at a singular hi.
    last = {True: z, False: None}

    def monotone_at(v: float) -> bool:
        verdict, inv = _checked_inverse(m, pert, v, tol, z, rank_one)
        last[bool(verdict)] = inv
        return bool(verdict)

    if 0.0 < seed < math.inf:
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
        v = _itp_point(lo, hi, last[True], last[False], tol, width, reach)
        if not lo < v < hi:
            v = mid
        if monotone_at(v):
            lo = v
        else:
            hi = v
    return 0.5 * (lo + hi)


def _itp_point(
    lo: float,
    hi: float,
    z_lo: np.ndarray,
    z_hi: np.ndarray | None,
    tol: float,
    width: float,
    reach: float,
) -> float:
    """Next probe of the narrowing: the ITP step (Oliveira and Takahashi,
    ACM TOMS 47(1), 2020) with n0 = 1, kappa2 = 2 and kappa1 = 0.2 / the
    bracket's initial ``width``.

    The interpolant is the earliest v at which some entry, interpolated
    linearly between the inverses at ``lo`` and ``hi``, crosses the tolerant
    floor -tol * max|Z| (itself interpolated); it is moved towards the
    midpoint by kappa1 * (hi - lo)^kappa2 and then kept close enough to it
    that the bracket it leaves is at most ``reach`` wide.  A singular ``hi``
    (no inverse) gives the midpoint.
    """
    mid = 0.5 * (lo + hi)
    if z_hi is None:
        return mid
    above = z_lo + tol * float(max(z_lo.max(), -z_lo.min()))
    below = z_hi + tol * float(max(z_hi.max(), -z_hi.min()))
    # A monotone lo keeps every entry of `above` >= 0 and a failing hi puts
    # some entry of `below` < 0, so each crossing lies in [lo, hi).
    crossing = below < 0.0
    t = float(np.min(above[crossing] / (above[crossing] - below[crossing])))
    v = lo + t * (hi - lo)
    shift = 0.2 * (hi - lo) ** 2 / width
    v = v + math.copysign(shift, mid - v) if shift <= abs(mid - v) else mid
    radius = max(reach - 0.5 * (hi - lo), 0.0)
    return min(max(v, mid - radius), mid + radius)
