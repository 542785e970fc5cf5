"""Closed-form monotonicity-preservation bounds: the componentwise bound
built from inverse statistics, its doubly-stochastic specialization, the
graph-distance norm bound, and the sharp tridiagonal single-entry bound.

All bound routines report their hypotheses, computed once per matrix
(irreducibility only when Bouchon's rule reaches it), through
:class:`BoundResult.preconditions_ok` instead of refusing to evaluate, so the
formulas can be inspected on exploratory inputs; only structural
impossibilities (wrong shape, singular matrix, broken bandwidth) raise.
The numerical floors are fixed module constants.

Each bound builds the matrix's record once (:func:`linalg._analyse`) and
hands it to the statistics and to the predicates of :mod:`classify`, so
the inverse, its verdict, the Z flag and the reachability closure are each
found once, whichever bounds a caller takes from the same record.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .classify import (
    _irreducible_dominance_rule,
    is_m_matrix,
    is_quasi_doubly_stochastic,
    sigma_vector,
)
from .errors import (
    BandwidthViolation,
    IndexOutOfRange,
    NotTridiagonal,
    SingularSubmatrix,
    ZeroDiagonal,
    ZeroMarginal,
)
from .graphdist import bouchon_M
from .linalg import _analyse, _unit_scale, as_square_matrix, inverse

#: Row/column sums of the inverse at or below this times the largest one in
#: magnitude are rejected as zero marginals (the ratios would blow up).
MARGINAL_FLOOR = 1e-14

#: Formula denominators at or below this yield an infinite bound value.
DENOMINATOR_FLOOR = 1e-12


@dataclass(frozen=True)
class InverseStats:
    """Inverse of a matrix together with its marginal sums and the
    worst-case ratio entry / (row sum * column sum).

    ``buffoni_number`` is min_ij inv_ij / (row_sums_i * col_sums_j), attained
    at ``ratio_argmin`` (0-based, first in row-major order); ``total`` is the
    sum of all inverse entries.
    """

    inv: np.ndarray
    row_sums: np.ndarray
    col_sums: np.ndarray
    total: float
    buffoni_number: float
    ratio_argmin: tuple[int, int]
    # buffoni_number * total, formed from the unit-scale ratio and sum, so it
    # stays finite where the total overflows.
    _buffoni_total: float = field(repr=False)


@dataclass(frozen=True)
class BoundResult:
    """A perturbation-size bound plus its hypothesis report.

    ``value`` is the bound itself, never negative, math.inf when the formula
    degenerates to an unlimited perturbation.  When ``preconditions_ok`` is
    False the value is still shown for inspection but carries no guarantee;
    ``precondition_detail`` says which hypothesis failed.
    """

    value: float
    method: str  # "main" | "corollary" | "bouchon" | "tridiagonal"
    bound_kind: str  # "componentwise" | "inf-norm" | "single-entry"
    preconditions_ok: bool
    precondition_detail: str


@dataclass(frozen=True)
class BouchonQuantities:
    """Ingredients of the graph-distance bound: the smallest diagonal
    magnitude, the row-wise diagonal-to-off-diagonal ratio eta, the largest
    relevant graph distance, and the resulting coefficient
    1 / (eta^distance_max * distance_max * e), which is 0.0 when it
    underflows and math.inf when eta is 0."""

    min_diag: float
    eta: float
    distance_max: int
    coefficient: float


def inverse_stats(a) -> InverseStats:
    """Invert ``a`` (a matrix or its record) and collect marginal sums,
    total, and Buffoni number.

    Raises :class:`SingularMatrix` for singular input and
    :class:`ZeroMarginal` when a row or column sum of the inverse is
    numerically zero relative to the largest one.
    """
    inv = inverse(a)
    row_sums = inv.sum(axis=1)
    col_sums = inv.sum(axis=0)
    marginals = np.abs(np.concatenate((row_sums, col_sums)))
    if np.any(marginals <= MARGINAL_FLOOR * marginals.max()):
        raise ZeroMarginal("a row or column sum of the inverse is numerically zero")
    # A product of two sums over- or underflows once A is scaled by about
    # 2^+-512.  Scaled by the power of two t that brings the largest sum
    # into [0.5, 1), every sum lies in (MARGINAL_FLOOR / 2, 1) in magnitude
    # and no product can.  Scaling by t is exact: the ratios of t * inv are
    # those of inv over t.
    scale = _unit_scale(float(marginals.max()))
    ratios = inv * scale
    # The total can exceed the largest float where its scaled sum cannot;
    # Python float division then gives inf without a numpy warning.
    scaled_total = float(ratios.sum())
    ratios /= np.outer(row_sums * scale, col_sums * scale)
    flat = int(np.argmin(ratios))
    n = inv.shape[0]
    loc = (flat // n, flat % n)
    min_ratio = float(ratios[loc])
    return InverseStats(
        inv=inv,
        row_sums=row_sums,
        col_sums=col_sums,
        total=scaled_total / scale,
        buffoni_number=min_ratio * scale,
        ratio_argmin=loc,
        _buffoni_total=min_ratio * scaled_total,
    )


def sigma_via_determinant(a) -> float:
    """Total of the inverse entries from two determinants:
    det(A + J) / det(A) - 1, with J the all-ones matrix.

    It computes the same total as :func:`inverse_stats` by another route,
    and is kept on purpose as the tests' independent check of that total;
    no command calls it.

    The total is taken for ``A`` scaled by the power of two that brings
    ``max|A|`` into [0.5, 1) and scaled back, so J is neither lost against a
    huge ``A`` nor swamps a tiny one, and ``cA`` gives exactly ``1/c`` times
    the total for ``c`` a power of two.  Both determinants come from ``numpy.linalg.slogdet`` and the
    quotient is taken in sign-and-log form, so it survives determinants that
    overflow or underflow.

    Raises :class:`SingularMatrix` when ``a`` is singular under the
    package's one rule, that of :func:`linalg.inverse`: unless
    ``SINGULARITY_RTOL * max|A| * max|A^-1| < 1``.  A + J may be singular
    (the total is then exactly -1).
    """
    record = _analyse(a)
    inverse(record)  # raises SingularMatrix under the one rule
    scale = _unit_scale(record.a_max)
    sign, logdet = np.linalg.slogdet(record.m * scale)
    shifted_sign, shifted_logdet = np.linalg.slogdet(record.m * scale + 1.0)
    ratio = _signed_exp(float(sign * shifted_sign), float(shifted_logdet - logdet))
    return (ratio - 1.0) * scale


def _formula_value(numerator: float, denominator: float) -> float:
    """num/den with the degenerate-denominator and nonnegativity conventions
    shared by the closed-form bounds."""
    if denominator <= DENOMINATOR_FLOOR:
        return math.inf
    return max(numerator / denominator, 0.0)


def _hypotheses(record) -> tuple[np.ndarray | None, bool]:
    """What the bounds' preconditions read, once per matrix record: the
    dominance ratios (None with a zero diagonal entry) and the M-matrix
    verdict."""
    try:
        sigma = sigma_vector(record)
    except ZeroDiagonal:
        sigma = None
    return sigma, is_m_matrix(record)


def _preconditions(sigma, m_matrix: bool, kind: str, dominant) -> tuple[bool, str]:
    """Main and Bouchon preconditions, on :func:`_hypotheses`, in one order:
    nonzero diagonal, M-matrix, then ``dominant(sigma)``, of the given kind."""
    if sigma is None:
        return False, "zero diagonal entry; dominance undefined"
    if not m_matrix:
        return False, "not a (nonsingular) M-matrix"
    if not dominant(sigma):
        return False, f"M-matrix but not {kind} diagonally dominant"
    return True, f"{kind} diagonally dominant M-matrix"


def main_bound(a) -> BoundResult:
    """Componentwise bound B / (1 - B * S), with B the Buffoni number and S
    the total of the inverse entries.

    Any perturbation with 0 <= e_ij below the value keeps A + E monotone
    when A is a strictly diagonally dominant M-matrix.  The bound is tight
    for the uniform perturbation: it equals the exact threshold for E
    all-ones.
    """
    record = _analyse(a)
    return _main_bound(inverse_stats(record), _hypotheses(record))


def _main_bound(stats: InverseStats, hypotheses) -> BoundResult:
    """:func:`main_bound` from precomputed statistics and hypotheses."""
    value = _formula_value(stats.buffoni_number, 1.0 - stats._buffoni_total)
    ok, detail = _preconditions(*hypotheses, "strictly", lambda s: bool(np.all(s < 1.0)))
    return BoundResult(value, "main", "componentwise", ok, detail)


def corollary_bound(a) -> BoundResult:
    """Specialized componentwise bound m / (1 - m * n) from the smallest
    inverse entry alone; for quasi-doubly-stochastic M-matrices it coincides
    with :func:`main_bound`."""
    record = _analyse(a)
    inverse(record)  # raises SingularMatrix under the one rule
    min_entry = record.check.value
    value = _formula_value(min_entry, 1.0 - min_entry * record.m.shape[0])
    if not is_m_matrix(record):
        ok, detail = False, "not a (nonsingular) M-matrix"
    elif not is_quasi_doubly_stochastic(record):
        ok, detail = False, "M-matrix but row/column sums differ from one"
    else:
        ok, detail = True, "quasi-doubly-stochastic M-matrix"
    return BoundResult(value, "corollary", "componentwise", ok, detail)


def _eta(m: np.ndarray) -> float:
    """Row-wise |diagonal| over largest off-diagonal magnitude, maximized
    over rows that have off-diagonal support (0.0 when no row has any)."""
    off = np.abs(m)
    np.fill_diagonal(off, 0.0)
    row_max = off.max(axis=1)
    supported = row_max > 0.0
    ratios = np.abs(np.diagonal(m))[supported] / row_max[supported]
    return float(np.max(ratios, initial=0.0))


def _bouchon_coefficient(eta: float, distance_max: int) -> float:
    """1 / (eta^M * M * e) without raising: 0.0 once eta^M overflows (the
    value would underflow anyway) and math.inf once the denominator
    underflows to zero (eta = 0 included)."""
    try:
        denominator = eta**distance_max * distance_max * math.e
    except OverflowError:
        return 0.0
    return 1.0 / denominator if denominator else math.inf


def bouchon_quantities(a, e_pattern) -> BouchonQuantities:
    """Assemble the ingredients of the graph-distance bound for ``a`` (a
    matrix or its record).

    Propagates :class:`DimensionMismatch`, :class:`EmptyPerturbation` and
    :class:`UnreachablePair` from :func:`bouchon_M`.
    """
    record = _analyse(a)
    distance_max = bouchon_M(record, e_pattern)
    eta = _eta(record.m)
    return BouchonQuantities(
        min_diag=float(np.min(np.abs(np.diagonal(record.m)))),
        eta=eta,
        distance_max=distance_max,
        coefficient=_bouchon_coefficient(eta, distance_max),
    )


def bouchon_bound(a, e_pattern) -> BoundResult:
    """Norm bound coefficient * min_i |a_ii| for perturbations supported on
    the given pattern.

    The guarantee is strict: A + E stays monotone whenever the inf-norm of E
    is strictly below the value, A is an irreducibly diagonally dominant
    M-matrix, and E has nonnegative row sums.
    """
    record = _analyse(a)
    e = as_square_matrix(e_pattern)
    quantities = bouchon_quantities(record, e)
    return _bouchon_bound(record, e, quantities, _hypotheses(record))


def _bouchon_bound(
    record, e: np.ndarray, quantities: BouchonQuantities, hypotheses
) -> BoundResult:
    """:func:`bouchon_bound` from precomputed quantities and hypotheses; a zero
    diagonal gives 0.0, also when eta = 0 makes the coefficient infinite."""
    value = quantities.coefficient * quantities.min_diag if quantities.min_diag else 0.0
    ok, detail = _preconditions(
        *hypotheses,
        "irreducibly",
        lambda s: _irreducible_dominance_rule(s, record),
    )
    if ok and not np.all(e.sum(axis=1) >= 0.0):
        ok, detail = False, "perturbation pattern has a negative row sum"
    elif ok:
        detail += ", pattern row sums nonnegative"
    return BoundResult(value, "bouchon", "inf-norm", ok, detail)


def _signed_exp(sign: float, log_value: float) -> float:
    """sign * exp(log_value), infinite once the exponential overflows."""
    try:
        return sign * math.exp(log_value)
    except OverflowError:
        return sign * math.inf


def tridiagonal_bound(a, l: int, k: int) -> BoundResult:
    """Sharp threshold for a single-entry perturbation h at position (l, k)
    of a tridiagonal M-matrix, with |l - k| >= 2 and 0-based indices:
    A + h E_lk stays monotone exactly for h up to the returned value.

    The value is the product of the off-diagonal magnitudes bridging l and k
    divided by the determinant of the principal block B strictly between
    them, both for ``A`` scaled by the power of two that brings ``max|A|``
    into [0.5, 1) (so ``cA`` gives exactly ``c`` times the value for ``c`` a
    power of two), and taken in sign-and-log form (``numpy.linalg.slogdet``),
    so that neither over- nor underflows.

    Raises :class:`SingularSubmatrix` when B is singular under the
    package's one rule, that of :func:`linalg.inverse`: unless
    ``SINGULARITY_RTOL * max|B| * max|B^-1| < 1``.
    """
    m = as_square_matrix(a)
    n = m.shape[0]
    if not (0 <= l < n and 0 <= k < n):
        raise IndexOutOfRange(f"entry ({l}, {k}) outside a {n}x{n} matrix")
    rows, cols = np.indices((n, n))
    if np.any(m[np.abs(rows - cols) >= 2] != 0.0):
        raise NotTridiagonal("entries beyond the first sub/superdiagonal must be zero")
    if abs(l - k) < 2:
        raise BandwidthViolation(
            f"perturbed entry must satisfy |l - k| >= 2, got ({l}, {k})"
        )
    if l < k:
        # Bridge along the superdiagonal, block strictly between l and k.
        chain = -m[np.arange(l, k), np.arange(l, k) + 1]
        lo, hi = l + 1, k - 1
    else:
        chain = -m[np.arange(k, l) + 1, np.arange(k, l)]
        lo, hi = k + 1, l - 1
    block = m[lo : hi + 1, lo : hi + 1]
    if _analyse(block).check.singular:
        raise SingularSubmatrix(
            f"principal block {lo}..{hi} strictly between the perturbed entry "
            "is singular"
        )
    if not np.all(chain):
        # A zero chain entry gives 0.0, never -0.0, and no log(0).
        value = 0.0
    else:
        scale = _unit_scale(float(max(m.max(), -m.min())))
        sign, logdet = np.linalg.slogdet(block * scale)
        sign = float(sign * np.prod(np.sign(chain)))
        log_chain = float(np.sum(np.log(np.abs(chain * scale))))
        value = max(0.0, _signed_exp(sign, log_chain - float(logdet))) / scale
    ok = is_m_matrix(m)
    detail = "tridiagonal M-matrix" if ok else "tridiagonal but not a (nonsingular) M-matrix"
    return BoundResult(value, "tridiagonal", "single-entry", ok, detail)
