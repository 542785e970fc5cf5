"""Dense linear algebra: the inverse, and an LU factorization with its
solve and determinant.

:func:`inverse` is one LAPACK call (``numpy.linalg.inv``: getrf and getri),
so every monotonicity verdict in the package comes from one engine.  Its
singularity test is relative: the inverse is refused unless
``SINGULARITY_RTOL * max|A| * max|A^-1| < 1``.

:func:`lu_factor` and :func:`determinant` keep a Python elimination because
their callers need what ``numpy.linalg`` does not expose: the pivots, their
order and a pivot threshold relative to the largest entry of the input.
Partial pivoting picks the largest-magnitude candidate and breaks ties by
the lowest row index, so repeated calls on identical input give
bit-identical results.  No iterative refinement is attempted; the intended
scale is dense matrices up to a few hundred rows.

The factorization and the triangular solves are right-looking blocked
algorithms over panels of :data:`BLOCK` rows or columns: the Python loop
runs per column or row only inside a panel, and one matrix product applies
each panel to the rows and columns not yet reached.  A matrix of at most
``BLOCK`` rows is a single panel.  Pivot choice and the singularity test are the unblocked
ones, applied column by column; blocking changes only the order in which
the updates are summed, so entries may differ from an unblocked elimination
in the last bits.  :func:`lu_solve` also serves the tests as the reference
that :func:`inverse` is checked against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, SingularMatrix

#: Pivots at or below this, relative to the largest entry magnitude of the
#: input, are treated as exactly singular; :func:`inverse` refuses a matrix
#: unless this times max|A| * max|A^-1| is below 1.
SINGULARITY_RTOL = 1e-14

#: Panel width of the blocked factorization and solves.
BLOCK = 32


def as_square_matrix(a) -> np.ndarray:
    """Coerce ``a`` to a float64 array and validate it is square and finite."""
    m = np.asarray(a, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
    if m.shape[0] == 0:
        raise DimensionMismatch("matrix must have at least one row")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    return m


@dataclass(frozen=True)
class LUFactors:
    """Partial-pivoting factorization P A = L U.

    ``perm`` maps factored positions to original rows: row ``perm[i]`` of A
    corresponds to row ``i`` of L U.  ``sign`` is the permutation parity, so
    det(A) = sign * prod(diag(upper)).
    """

    lower: np.ndarray
    upper: np.ndarray
    perm: np.ndarray
    sign: int

    @property
    def n(self) -> int:
        return len(self.perm)


def _panels(n: int) -> list[tuple[int, int]]:
    """Panel bounds (start, end), BLOCK wide except the first, which takes
    the remainder: just above BLOCK rows, the row-by-row U12 loop of the
    first panel is then short."""
    edges = [0, *range((n - 1) % BLOCK + 1, n + 1, BLOCK)]
    return list(zip(edges, edges[1:]))


def _eliminate(m: np.ndarray, raise_on_singular: bool) -> tuple[np.ndarray, np.ndarray, int]:
    """In-place elimination engine; returns (packed LU, perm, sign).

    With ``raise_on_singular`` off, an exactly-zero pivot means the whole
    subcolumn is zero (partial pivoting), so skipping the elimination step is
    exact and the diagonal product still lands on the determinant.
    """
    n = m.shape[0]
    threshold = SINGULARITY_RTOL * float(np.max(np.abs(m)))
    perm = np.arange(n)
    sign = 1
    for start, end in _panels(n):
        for col in range(start, end):
            # np.argmax returns the first maximum: lowest row index wins ties.
            piv = col + int(np.argmax(np.abs(m[col:, col])))
            pivot = m[piv, col]
            if abs(pivot) <= threshold and raise_on_singular:
                raise SingularMatrix(
                    f"pivot {abs(pivot):.3e} in column {col} is at or below the "
                    f"singularity threshold {threshold:.3e}"
                )
            if piv != col:
                m[[col, piv]] = m[[piv, col]]
                perm[[col, piv]] = perm[[piv, col]]
                sign = -sign
            if pivot != 0.0:
                m[col + 1 :, col] /= m[col, col]
                m[col + 1 :, col + 1 : end] -= np.outer(m[col + 1 :, col], m[col, col + 1 : end])
        if end < n:
            # U12 = L11^-1 A12 row by row, then one product updates the trailing block.
            for row in range(start + 1, end):
                m[row, end:] -= m[row, start:row] @ m[start:row, end:]
            m[end:, end:] -= m[end:, start:end] @ m[start:end, end:]
    return m, perm, sign


def lu_factor(a) -> LUFactors:
    """Factor P A = L U with deterministic partial pivoting.

    Raises :class:`SingularMatrix` when a pivot falls to or below 1e-14 times
    the largest entry magnitude of ``a``.
    """
    m = as_square_matrix(a).copy()
    packed, perm, sign = _eliminate(m, raise_on_singular=True)
    lower = np.tril(packed, -1) + np.eye(len(perm))
    upper = np.triu(packed)
    return LUFactors(lower=lower, upper=upper, perm=perm, sign=sign)


def lu_solve(factors: LUFactors, rhs) -> np.ndarray:
    """Solve A x = rhs from the factorization of A.

    ``rhs`` may be a vector or a matrix of stacked right-hand-side columns;
    the result matches its shape.
    """
    b = np.asarray(rhs, dtype=float)
    single = b.ndim == 1
    if single:
        b = b[:, None]
    n = factors.n
    if b.shape[0] != n:
        raise DimensionMismatch(f"right-hand side has {b.shape[0]} rows, expected {n}")
    lower, upper = factors.lower, factors.upper
    x = b[factors.perm]
    panels = _panels(n)
    for start, end in panels:
        for i in range(start + 1, end):
            x[i] -= lower[i, start:i] @ x[start:i]
        if end < n:
            x[end:] -= lower[end:, start:end] @ x[start:end]
    for start, end in reversed(panels):
        for i in range(end - 1, start - 1, -1):
            x[i] = (x[i] - upper[i, i + 1 : end] @ x[i + 1 : end]) / upper[i, i]
        if start > 0:
            x[:start] -= upper[:start, start:end] @ x[start:end]
    return x[:, 0] if single else x


def inverse(a) -> np.ndarray:
    """Inverse by LAPACK (``numpy.linalg.inv``) of ``A`` scaled by the power
    of two that brings ``max|A|`` into [0.5, 1) (or as near as a finite
    factor gets a subnormal ``max|A|``), then scaled back.  Partial pivoting
    commutes with that scaling, so the result is the unscaled one bit for bit
    unless an entry over- or underflows on one side.

    Raises :class:`SingularMatrix` when LAPACK meets an exactly zero pivot,
    and unless ``SINGULARITY_RTOL * max|A| * max|A^-1| < 1``.  That product
    is taken in Python floats, so a non-finite inverse fails it without a
    warning and no NaN or inf is returned.  On ``diag(1, 10^-k)`` and on
    Hilbert matrices of order n the test agrees with :func:`lu_factor`'s
    pivot threshold (both accept k <= 13 and n <= 10, both refuse k >= 14
    and n >= 12), except at n = 11 (condition about 5e14), which
    :func:`lu_factor` accepts and this refuses.
    """
    m = as_square_matrix(a)
    amax = float(np.abs(m).max())
    # inv(sA) = inv(A) / s, and a power of two s scales exactly; bringing
    # max|A| near 1 keeps LAPACK's elimination from overflowing.  2^1022 is
    # the largest factor that is itself finite.
    scale = 2.0 ** -max(math.frexp(amax)[1], -1022)
    try:
        inv = np.linalg.inv(m * scale)
    except np.linalg.LinAlgError:
        raise SingularMatrix("matrix is singular: LAPACK met an exactly zero pivot") from None
    with np.errstate(over="ignore"):
        inv *= scale
    product = amax * float(np.abs(inv).max())
    if not SINGULARITY_RTOL * product < 1.0:
        raise SingularMatrix(
            f"matrix is numerically singular: max|A| * max|A^-1| = {product:.3e} "
            f"is not below 1 / {SINGULARITY_RTOL:.0e}"
        )
    return inv


def determinant(a) -> float:
    """Determinant as sign times the product of U's diagonal.

    Never raises on singular input: the product simply lands near zero and
    callers apply their own thresholds.
    """
    m = as_square_matrix(a).copy()
    packed, _, sign = _eliminate(m, raise_on_singular=False)
    return float(sign * np.prod(np.diagonal(packed)))
