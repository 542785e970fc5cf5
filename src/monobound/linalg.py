"""Dense linear algebra: input validation and the inverse.

:func:`inverse` is one LAPACK call (``numpy.linalg.inv``: gesv against I),
so every monotonicity verdict in the package comes from one engine, except
the threshold search's rank-one probes that a residual certificate decides
(:func:`buffoni._certified_verdict`: one residual of A^-1 per search, and an
O(1) bound from it per probe).  Its
singularity test is the package's one rule for a singular matrix: the
inverse is refused unless ``SINGULARITY_RTOL * max|A| * max|A^-1| < 1``.
The determinant-based bounds (:func:`bounds.sigma_via_determinant`,
:func:`bounds.tridiagonal_bound`) apply the same rule by calling
:func:`inverse`, and take their determinants from ``numpy.linalg.slogdet``.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionMismatch, SingularMatrix

#: A matrix is singular unless this times max|A| * max|A^-1| is below 1.
SINGULARITY_RTOL = 1e-14


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


def _unit_scale(amax: float) -> float:
    """The power of two s that brings s * amax into [0.5, 1), or as near as
    a finite s (at most 2^1022) gets a subnormal amax.  Scaling by s is
    exact, so a quantity homogeneous in A, taken for s A and scaled back,
    gives exactly a power of c times the result for A when A is scaled by c
    a power of two."""
    return 2.0 ** -max(math.frexp(amax)[1], -1022)


def _window_scale(amax: float) -> float:
    """1.0 when ``amax`` lies in [2^-256, 2^256), where sums and products of
    a few entries stay far from over- and underflow; otherwise
    :func:`_unit_scale`."""
    return 1.0 if 2.0**-256 <= amax < 2.0**256 else _unit_scale(amax)


def inverse(a) -> np.ndarray:
    """Inverse by LAPACK (``numpy.linalg.inv``).

    When ``max|A|`` lies outside [2^-256, 2^256), ``A`` is first scaled by
    the power of two that brings ``max|A|`` into [0.5, 1) (or as near as a
    finite factor gets a subnormal ``max|A|``), and the inverse is scaled
    back.  Partial pivoting commutes with that scaling, so it changes no bit
    of the result unless an entry over- or underflows on one side; inside
    the window the elimination stays far from overflow and ``A`` is passed
    as it is, without a scaled copy.

    Raises :class:`SingularMatrix` when LAPACK meets an exactly zero pivot,
    and unless ``SINGULARITY_RTOL * max|A| * max|A^-1| < 1``.  That product
    is taken in Python floats, so a non-finite inverse fails it without a
    warning and no NaN or inf is returned.
    """
    m = as_square_matrix(a)
    amax = float(max(m.max(), -m.min()))
    # inv(sA) = inv(A) / s, and a power of two s scales exactly; bringing
    # max|A| near 1 keeps LAPACK's elimination from overflowing.
    scale = _window_scale(amax)
    try:
        inv = np.linalg.inv(m if scale == 1.0 else m * scale)
    except np.linalg.LinAlgError:
        raise SingularMatrix("matrix is singular: LAPACK met an exactly zero pivot") from None
    if scale != 1.0:
        with np.errstate(over="ignore"):
            inv *= scale
    product = amax * float(max(inv.max(), -inv.min()))
    if not SINGULARITY_RTOL * product < 1.0:
        raise SingularMatrix(
            f"matrix is numerically singular: max|A| * max|A^-1| = {product:.3e} "
            f"is not below 1 / {SINGULARITY_RTOL:.0e}"
        )
    return inv
