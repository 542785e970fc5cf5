"""Dense linear algebra: input validation, the inverse, the package's one
monotonicity verdict on an inverse (:func:`_monotone_check`: the smallest
entry is at least -MONOTONE_RTOL * max|inverse|, a finite maximum), which
sits beside :func:`inverse` because the block path's leaf guard is that
verdict, and the one record of an analysed matrix (:class:`_Analysis`,
built by :func:`_analyse`).

The record holds a validated matrix and what every command decides about
it, each found once, on first use: max|A|, the Z flag, the inverse or the
:class:`SingularMatrix` that refused it, the verdict on that inverse (from
the same max|Z| scan the singularity rule reads), and the reachability
closure of its sparsity graph.  :func:`inverse` reads it, so the package
has one engine and every monotonicity verdict comes from it, except the
threshold search's rank-one probes that a residual certificate decides
(:func:`buffoni._certified_verdict`: one residual of A^-1 per search, and
an O(1) bound from it per probe).  The predicates, the bounds and the
threshold searches read the same record, so a command that hands one
record to each of them validates, Z-tests, inverts, judges and closes its
matrix once.  A
Z-matrix above order :data:`BLOCK_LEAF_ORDER` is inverted by recursive 2x2
block elimination without pivoting, whose work is matrix products over the
rows and columns of the off-diagonal blocks that hold a nonzero
(:func:`_block_inverse`); every other matrix, and a Z-matrix whose blocks
fail the leaf guard, by one LAPACK call (``numpy.linalg.inv``: gesv against
I).  Its singularity test is the package's one rule for a singular matrix:
the inverse is refused unless ``SINGULARITY_RTOL * max|A| * max|A^-1| < 1``.
The determinant-based bounds (:func:`bounds.sigma_via_determinant`,
:func:`bounds.tridiagonal_bound`) apply the same rule through the record,
and take their determinants from ``numpy.linalg.slogdet``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch, SingularMatrix

#: A matrix is singular unless this times max|A| * max|A^-1| is below 1.
SINGULARITY_RTOL = 1e-14

#: Slack for inverse nonnegativity: entries down to
#: -MONOTONE_RTOL * max|inverse entry| still count as nonnegative in
#: :func:`_monotone_check`, the one verdict.
MONOTONE_RTOL = 1e-10

#: Blocks of at most this order are the leaves of :func:`_block_inverse`,
#: each one LAPACK inverse, and only a Z-matrix above it takes the block
#: path.  Interleaved medians with one BLAS thread (OpenBLAS 0.3.31, 2-vCPU
#: x86-64 VM) on dense M-matrices: leaves of 48, 64 and 96 were within the
#: run-to-run noise (about 10%) of each other at orders 100 to 500, and 32
#: and 128 up to 40% slower; the recursion was 10-15% slower than one LAPACK
#: call at order 65, level at 80, and 2.1 to 2.6 times faster at 200 to 500.
#: It is also the height of the row blocks of the residual product
#: (:func:`buffoni._residual_bound`).
BLOCK_LEAF_ORDER = 64


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


def _is_z_pattern(m: np.ndarray) -> bool:
    """All off-diagonal entries of the square array ``m`` nonpositive: every
    positive entry is diagonal.  Exact signs, so the test is O(n^2)."""
    return int(np.count_nonzero(m > 0.0)) == int(np.count_nonzero(np.diagonal(m) > 0.0))


def _column_span(b: np.ndarray) -> slice:
    """The shortest slice of the columns of the 2-D array ``b`` that holds
    every nonzero of ``b``, empty when there is none; ``b.T`` gives that of
    its rows.  Where the first and the last column hold a nonzero, it is
    all of them, found without a pass over ``b``."""
    if b[:, 0].any() and b[:, -1].any():
        return slice(0, b.shape[1])
    flags = b.any(axis=0)
    first = int(np.argmax(flags))
    if not flags[first]:
        return slice(0, 0)
    return slice(first, flags.size - int(np.argmax(flags[::-1])))


@dataclass(frozen=True)
class MonotoneCheck:
    """Outcome of the inverse-nonnegativity test.

    ``location`` and ``value`` witness the smallest inverse entry (0-based,
    first in row-major order); both are None when the matrix is singular.
    The object is truthy exactly when the matrix is monotone.
    """

    monotone: bool
    location: tuple[int, int] | None
    value: float | None
    singular: bool = False
    # max|Z| as the verdict read it, for the callers that scale by it.
    _z_max: float | None = field(default=None, repr=False, compare=False)

    def __bool__(self) -> bool:
        return self.monotone


def _monotone_check(inv: np.ndarray) -> MonotoneCheck:
    """The package's one monotonicity verdict on an inverse: its smallest
    entry is at least -MONOTONE_RTOL * max|inv|, and max|inv| is finite."""
    location = divmod(int(np.argmin(inv)), inv.shape[0])
    value = float(inv[location])
    z_max = max(float(inv.max()), -value)
    monotone = math.isfinite(z_max) and value >= -MONOTONE_RTOL * z_max
    return MonotoneCheck(monotone, location, value, _z_max=z_max)


def _block_inverse(a: np.ndarray, out: np.ndarray) -> None:
    """Write the inverse of the Z-matrix ``a`` into ``out`` by 2x2 block
    elimination without pivoting, splitting at k = n // 2:

        X = A11^-1,  C = A21 X,  S = A22 - C A12,
        A^-1 = [[X - (X A12)(-S^-1 C), -(X A12) S^-1], [-S^-1 C, S^-1]],

    with X and S^-1 by recursion.  A block of order at most
    :data:`BLOCK_LEAF_ORDER` is a leaf, one LAPACK inverse, and every leaf
    inverse must pass the package's monotonicity verdict
    (:func:`_monotone_check`); else this raises ``LinAlgError``, as it does
    for a leaf LAPACK finds singular.  When every leaf passes, each S is
    again a Z-matrix, every product sums terms of one sign, and elimination
    without pivoting on an M-matrix has no growth (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., ch. 9), so nothing cancels.

    Each product runs only over the spans of rows and columns that hold a
    nonzero of A21 (r, cc) and of A12 (rr, c): C is zero outside rows r and
    X A12 outside columns c, so C = A21[r, cc] X[cc, :], S[r, c] alone takes
    C[:, rr] A12[rr, c], -S^-1 C = S^-1[:, r] (-C) and the top blocks read
    S^-1 and -S^-1 C only in rows c (envelope elimination; George and Liu,
    Computer Solution of Large Sparse Positive Definite Systems, 1981).
    Every term left out is an exact zero times a factor that is finite
    unless the result holds a non-finite entry (which :func:`inverse`
    refuses), so every sum only loses zero terms.  A block whose first and
    last rows and columns hold a nonzero is used whole, so a matrix without
    zeros makes the products over whole blocks, bit for bit.
    """
    n = a.shape[0]
    if n <= BLOCK_LEAF_ORDER:
        out[...] = np.linalg.inv(a)
        if not _monotone_check(out):
            raise np.linalg.LinAlgError("leaf inverse is not nonnegative")
        return
    k = n // 2
    a12, a21 = a[:k, k:], a[k:, :k]
    # The columns of each block are scanned only over its rows' span.
    rr, r = _column_span(a12.T), _column_span(a21.T)
    c, cc = _column_span(a12[rr]), _column_span(a21[r])
    x, s_inv, lower = out[:k, :k], out[k:, k:], out[k:, :k]
    _block_inverse(a[:k, :k], x)
    # C (rows r only) and X A12 (columns c only) are negated in place, fresh
    # and contiguous, so that each block of the inverse is one product
    # written into its view of ``out``.
    neg_c = np.matmul(a21[r, cc], x[cc])
    np.negative(neg_c, out=neg_c)
    s = a[k:, k:].copy()
    s[r, c] += np.matmul(neg_c[:, rr], a12[rr, c])
    _block_inverse(s, s_inv)
    # Freed before the products below take their own arrays.
    del s
    np.matmul(s_inv[:, r], neg_c, out=lower)
    neg_x_a12 = np.matmul(x[:, rr], a12[rr, c])
    np.negative(neg_x_a12, out=neg_x_a12)
    np.matmul(neg_x_a12, s_inv[c], out=out[:k, k:])
    x += np.matmul(neg_x_a12, lower[c])


# Records compare by identity: an array has no single truth value.
@dataclass(frozen=True, eq=False)
class _Analysis:
    """One validated square matrix ``m`` and what the package decides about
    it, each found at most once, on first use: ``a_max`` = max|A|, the Z
    flag (:func:`_is_z_pattern`), the inverse with the one verdict on it, or
    the :class:`SingularMatrix` that refused it (``inverted``), and the
    reachability powers of its sparsity graph up to the closure
    (``closure``, :func:`graphdist._reach_powers`).

    :func:`_analyse` builds it.  :func:`inverse`, the predicates of
    :mod:`classify`, the bounds and the threshold searches read it, and each
    public function that takes a matrix also takes its record, so a command
    that hands one record to all of them validates, Z-tests, inverts, judges
    and closes the matrix once."""

    m: np.ndarray

    @cached_property
    def a_max(self) -> float:
        return float(max(self.m.max(), -self.m.min()))

    @cached_property
    def z_matrix(self) -> bool:
        return _is_z_pattern(self.m)

    @cached_property
    def inverted(self) -> tuple[np.ndarray | SingularMatrix, MonotoneCheck]:
        """(A^-1, :func:`_monotone_check` of it), or the
        :class:`SingularMatrix` that refused the inverse with a singular
        verdict; the engine and the rule are those of :func:`inverse`.  The
        rule reads max|A^-1| from the verdict's own scan of the inverse."""
        # inv(sA) = inv(A) / s, and a power of two s scales exactly; bringing
        # max|A| near 1 keeps the elimination from overflowing.
        scale = _window_scale(self.a_max)
        scaled = self.m if scale == 1.0 else self.m * scale
        inv = None
        if scaled.shape[0] > BLOCK_LEAF_ORDER and self.z_matrix:
            inv = np.empty_like(scaled)
            try:
                # A finite leaf near the overflow threshold can overflow a
                # product: a later leaf then fails the guard, or the
                # singularity rule below refuses the result.
                with np.errstate(over="ignore", invalid="ignore"):
                    _block_inverse(scaled, inv)
            except np.linalg.LinAlgError:
                inv = None
        if inv is None:
            try:
                inv = np.linalg.inv(scaled)
            except np.linalg.LinAlgError:
                return _refused("matrix is singular: LAPACK met an exactly zero pivot")
        if scale != 1.0:
            with np.errstate(over="ignore"):
                inv *= scale
        check = _monotone_check(inv)
        product = self.a_max * check._z_max
        if not SINGULARITY_RTOL * product < 1.0:
            return _refused(
                f"matrix is numerically singular: max|A| * max|A^-1| = {product:.3e} "
                f"is not below 1 / {SINGULARITY_RTOL:.0e}"
            )
        return inv, check

    @property
    def check(self) -> MonotoneCheck:
        """The one verdict on the inverse (singular when it was refused)."""
        return self.inverted[1]

    @cached_property
    def closure(self) -> list[np.ndarray]:
        """The reachability powers of the sparsity graph of ``m``, up to its
        reflexive transitive closure (:func:`graphdist._reach_powers`)."""
        # graphdist imports this module, so it is imported on first use.
        from .graphdist import _reach_powers

        # _reach_powers joins each node to itself, whatever the diagonal.
        return _reach_powers(self.m != 0.0)


def _refused(message: str) -> tuple[SingularMatrix, MonotoneCheck]:
    """:attr:`_Analysis.inverted` of a matrix whose inverse is refused."""
    return SingularMatrix(message), MonotoneCheck(False, None, None, singular=True)


def _analyse(a) -> _Analysis:
    """The record of ``a``: ``a`` itself when it is one, else the record of
    ``a`` validated by :func:`as_square_matrix`."""
    return a if isinstance(a, _Analysis) else _Analysis(as_square_matrix(a))


def inverse(a) -> np.ndarray:
    """Inverse of a square matrix, read from its record (:func:`_analyse`;
    ``a`` may be the record itself).

    A Z-matrix (:func:`_is_z_pattern`) of order above
    :data:`BLOCK_LEAF_ORDER` is inverted by :func:`_block_inverse`, which on
    an M-matrix needs no pivoting and does at most about 2n^3 flops, most of
    them in matrix products that skip the zero rows and columns of the
    off-diagonal blocks, against LAPACK's 8n^3/3.  Every other matrix, and a
    Z-matrix with a leaf that fails that function's guard (a Z-matrix that
    is not an M-matrix), is inverted by one LAPACK call
    (``numpy.linalg.inv``), as it would be without the block path.

    When ``max|A|`` lies outside [2^-256, 2^256), ``A`` is first scaled by
    the power of two that brings ``max|A|`` into [0.5, 1) (or as near as a
    finite factor gets a subnormal ``max|A|``), and the inverse is scaled
    back.  Partial pivoting, the block products and the leaf guard commute
    with that scaling, so it changes no bit of the result unless an entry
    over- or underflows on one side; inside the window the elimination
    stays far from overflow and ``A`` is passed as it is, without a scaled
    copy.

    Raises :class:`SingularMatrix` when LAPACK meets an exactly zero pivot,
    and unless ``SINGULARITY_RTOL * max|A| * max|A^-1| < 1``.  That product
    is taken in Python floats, so a non-finite inverse fails it without a
    warning and no NaN or inf is returned.
    """
    inv = _analyse(a).inverted[0]
    if isinstance(inv, SingularMatrix):
        # A record can refuse more than once; each raise starts afresh.
        raise inv.with_traceback(None)
    return inv
