"""Exception taxonomy shared across the package.

Everything raised on purpose derives from :class:`MonoboundError`, so callers
(and the CLI) can distinguish "this input is mathematically unusable" from a
plain bug.
"""


class MonoboundError(Exception):
    """Base class for all errors raised by this package."""


class MatrixParseError(MonoboundError):
    """A matrix file or string could not be parsed; message carries file:line."""


class DimensionMismatch(MonoboundError):
    """Operands have incompatible or non-square shapes."""


class SingularMatrix(MonoboundError):
    """A matrix is singular to the relative threshold of factorization or inverse."""


class ZeroDiagonal(MonoboundError):
    """A diagonal entry is zero where dominance ratios need it nonzero."""


class NotSymmetric(MonoboundError):
    """A symmetric matrix was required."""


class OrderOutOfRange(MonoboundError):
    """Principal-submatrix order outside 2 <= order < n."""


class IndexOutOfRange(MonoboundError):
    """A row/column index falls outside the matrix."""


class EmptyPerturbation(MonoboundError):
    """Perturbation pattern has no off-diagonal nonzero entry."""


class UnreachablePair(MonoboundError):
    """No directed path exists between a required pair of nodes."""


class ZeroMarginal(MonoboundError):
    """A row or column sum of the inverse is numerically zero."""


class NotTridiagonal(MonoboundError):
    """Entries beyond the first sub/superdiagonal are nonzero."""


class BandwidthViolation(MonoboundError):
    """The perturbed entry sits too close to the diagonal (|l - k| < 2)."""


class SingularSubmatrix(MonoboundError):
    """An interior principal block is singular."""


class NotMonotone(MonoboundError):
    """The base matrix has no nonnegative inverse."""


class NegativePerturbation(MonoboundError):
    """The perturbation matrix must be entrywise nonnegative."""


class SingularIterate(MonoboundError):
    """An iterate of the threshold search became singular."""


class InvalidParams(MonoboundError):
    """Structured-family parameters violate their constraints."""
