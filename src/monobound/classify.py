"""Structural matrix predicates: sign pattern, diagonal dominance,
irreducibility, monotonicity (nonnegative inverse), and two
sufficient-condition certificates for monotonicity.  Irreducibility reads
the sparsity graph of the exact nonzeros.  Every monotonicity verdict,
both certificates' included, is the package's one verdict on the inverse,
:class:`MonotoneCheck` from :func:`linalg._monotone_check` with the one
fixed slack :data:`MONOTONE_RTOL`.  All three live in :mod:`linalg`, next
to the inverse whose block path reads the same verdict, and are exported
here.

Each predicate reads the matrix's record (:func:`linalg._analyse`): its Z
flag, its inverse and verdict, and its reachability closure, each found
once per record.  A predicate takes a matrix or its record, so
:func:`classify_matrix` and the bounds hand one record to every predicate
they apply, and the M-matrix rule (:func:`is_m_matrix`: the Z flag, then
the verdict) and the irreducibility rule are each one function."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import (
    DimensionMismatch,
    NotSymmetric,
    OrderOutOfRange,
    ZeroDiagonal,
)
from .linalg import (
    MONOTONE_RTOL,
    MonotoneCheck,
    _analyse,
    _monotone_check,
    _window_scale,
    as_square_matrix,
)

#: Absolute slack on row/column sums for the doubly-stochastic test.
DEFAULT_QDS_TOL = 1e-8


def is_monotone(a) -> MonotoneCheck:
    """Check that the inverse exists and is entrywise nonnegative.

    Small negative entries down to ``-MONOTONE_RTOL * max|inverse entry|``
    are attributed to roundoff and accepted; a singular matrix is reported
    as non-monotone with ``singular=True``.
    """
    return _analyse(a).check


def sigma_vector(a) -> np.ndarray:
    """Dominance ratios: off-diagonal absolute row sums over |diagonal|.

    Raises :class:`ZeroDiagonal` when some diagonal entry is exactly zero.
    The ratios are taken for ``A`` scaled by a power of two when ``max|A|``
    lies outside [2^-256, 2^256), so a row sum near the largest float cannot
    overflow.
    """
    magnitudes = np.abs(_analyse(a).m)
    scale = _window_scale(float(magnitudes.max()))
    if scale != 1.0:
        magnitudes *= scale
    diag = np.diagonal(magnitudes)
    if np.any(diag == 0.0):
        row = int(np.flatnonzero(diag == 0.0)[0])
        raise ZeroDiagonal(f"diagonal entry {row} is zero; dominance ratios undefined")
    off = np.sum(magnitudes, axis=1) - diag
    return off / diag


def strict_dominance_set(sigma) -> tuple[int, ...]:
    """Rows whose dominance ratio is strictly below one (0-based)."""
    return tuple(int(i) for i in np.flatnonzero(np.asarray(sigma, dtype=float) < 1.0))


def is_z_matrix(a) -> bool:
    """All off-diagonal entries nonpositive: every positive entry is diagonal."""
    return _analyse(a).z_matrix


def is_m_matrix(a) -> bool:
    """Nonsingular M-matrix test: Z sign pattern plus a nonnegative inverse,
    the inverse taken only for a Z-matrix."""
    record = _analyse(a)
    return record.z_matrix and record.check.monotone


def is_strictly_diag_dominant(a) -> bool:
    """Every dominance ratio strictly below one."""
    return bool(np.all(sigma_vector(a) < 1.0))


def is_irreducible(a) -> bool:
    """True when the directed sparsity graph is strongly connected."""
    return bool(_analyse(a).closure[-1].all())


def is_irreducibly_diag_dominant(a) -> bool:
    """Irreducible, all ratios at most one, at least one strictly below."""
    record = _analyse(a)
    return _irreducible_dominance_rule(sigma_vector(record), record)


def _irreducible_dominance_rule(sigma: np.ndarray, a) -> bool:
    """Irreducible dominance of ``a`` (a matrix or its record) from its
    dominance ratios ``sigma``: all at most one, at least one strictly
    below, and :func:`is_irreducible`.  That reads the sparsity graph, so it
    is taken only when the ratios pass."""
    return bool(np.all(sigma <= 1.0)) and bool(np.any(sigma < 1.0)) and is_irreducible(a)


def is_quasi_doubly_stochastic(a) -> bool:
    """All row sums and column sums within :data:`DEFAULT_QDS_TOL` of one."""
    m = _analyse(a).m
    return bool(
        np.all(np.abs(m.sum(axis=1) - 1.0) <= DEFAULT_QDS_TOL)
        and np.all(np.abs(m.sum(axis=0) - 1.0) <= DEFAULT_QDS_TOL)
    )


def verify_kuttler(a, m_cert, w) -> bool:
    """Comparison certificate: a monotone M >= A together with w > 0 and
    A w entrywise strictly positive proves A monotone.

    Returns True only when every condition holds, so a True result is a
    proof; False proves nothing about A.
    """
    base = as_square_matrix(a)
    cert = as_square_matrix(m_cert)
    wvec = np.asarray(w, dtype=float)
    if cert.shape != base.shape:
        raise DimensionMismatch(
            f"certificate shape {cert.shape} does not match matrix shape {base.shape}"
        )
    if wvec.shape != (base.shape[0],):
        raise DimensionMismatch(f"w must be a length-{base.shape[0]} vector, got {wvec.shape}")
    if not np.all(wvec >= 0.0) or not np.any(wvec > 0.0):
        return False
    if not np.all(cert >= base):
        return False
    if not np.all(base @ wvec > 0.0):
        return False
    return bool(is_monotone(cert))


def gavrilov_check(a, order: int) -> bool:
    """Symmetric certificate: positive definiteness (one Cholesky
    factorization) plus monotonicity of every principal submatrix of the
    given order proves monotonicity.

    Enumerates all C(n, order) principal submatrices, which is fine for n up
    to roughly a dozen.  Raises :class:`NotSymmetric` when
    max|A - A^T| > 1e-12 max|A| (relative, so the verdict on c A is that on
    A) and :class:`OrderOutOfRange` unless 2 <= order < n.
    """
    m = as_square_matrix(a)
    n = m.shape[0]
    if float(np.max(np.abs(m - m.T))) > 1e-12 * float(max(m.max(), -m.min())):
        raise NotSymmetric("matrix is not symmetric within 1e-12 of max|A|")
    if not 2 <= order < n:
        raise OrderOutOfRange(f"order must satisfy 2 <= order < {n}, got {order}")
    try:
        # Sylvester's criterion: Cholesky succeeds exactly when every
        # leading principal minor is positive.
        np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        return False
    for rows in combinations(range(n), order):
        idx = np.ix_(rows, rows)
        if not is_monotone(m[idx]):
            return False
    return True


@dataclass(frozen=True)
class ClassificationReport:
    """All structure flags at once, plus the data that witnesses them."""

    is_z_matrix: bool
    is_m_matrix: bool
    is_monotone: bool
    is_strictly_diag_dominant: bool
    is_irreducibly_diag_dominant: bool
    is_irreducible: bool
    is_quasi_doubly_stochastic: bool
    sigma: np.ndarray
    strict_set: tuple[int, ...]
    monotone_witness: MonotoneCheck


def classify_matrix(a) -> ClassificationReport:
    """Evaluate every structure predicate on one matrix.

    Raises :class:`ZeroDiagonal` when dominance ratios are undefined.
    """
    record = _analyse(a)
    sigma = sigma_vector(record)
    return ClassificationReport(
        is_z_matrix=is_z_matrix(record),
        is_m_matrix=is_m_matrix(record),
        is_monotone=record.check.monotone,
        is_strictly_diag_dominant=bool(np.all(sigma < 1.0)),
        is_irreducibly_diag_dominant=_irreducible_dominance_rule(sigma, record),
        is_irreducible=is_irreducible(record),
        is_quasi_doubly_stochastic=is_quasi_doubly_stochastic(record),
        sigma=sigma,
        strict_set=strict_dominance_set(sigma),
        monotone_witness=record.check,
    )
