"""Monotonicity-preserving perturbation bounds for M-matrices.

A library (plus ``monobound`` CLI) that computes the exact monotonicity
threshold v* of A + v E by ratio iteration or by bisection, closed-form
componentwise and norm bounds on monotonicity-preserving perturbations, the
sharp tridiagonal single-entry bound, structural classification of the
hypotheses involved, and a closed-form two-block family for exercising all
of it at scale.
"""

from .bounds import (
    BouchonQuantities,
    BoundResult,
    InverseStats,
    bouchon_bound,
    bouchon_quantities,
    corollary_bound,
    inverse_stats,
    main_bound,
    sigma_via_determinant,
    tridiagonal_bound,
)
from .buffoni import (
    BuffoniTrace,
    IterationStep,
    bisection_vstar,
    buffoni_vstar,
)
from .classify import (
    ClassificationReport,
    MonotoneCheck,
    classify_matrix,
    gavrilov_check,
    is_irreducible,
    is_irreducibly_diag_dominant,
    is_m_matrix,
    is_monotone,
    is_quasi_doubly_stochastic,
    is_strictly_diag_dominant,
    is_z_matrix,
    sigma_vector,
    strict_dominance_set,
    verify_kuttler,
)
from .errors import (
    BandwidthViolation,
    DimensionMismatch,
    EmptyPerturbation,
    IndexOutOfRange,
    InvalidParams,
    MatrixParseError,
    MonoboundError,
    NegativePerturbation,
    NotMonotone,
    NotSymmetric,
    NotTridiagonal,
    OrderOutOfRange,
    SingularIterate,
    SingularMatrix,
    SingularSubmatrix,
    UnreachablePair,
    ZeroDiagonal,
    ZeroMarginal,
)
from .graphdist import bouchon_M
from .laplacian import (
    BlockLaplacianParams,
    block_laplacian_bounds,
    block_laplacian_inverse,
    block_laplacian_stats,
    build_block_laplacian,
)
from .linalg import as_square_matrix, inverse
from .matrixio import format_dense, parse_matrix, read_matrix, write_dense

__version__ = "0.1.0"

__all__ = [
    "BandwidthViolation",
    "BlockLaplacianParams",
    "BouchonQuantities",
    "BoundResult",
    "BuffoniTrace",
    "ClassificationReport",
    "DimensionMismatch",
    "EmptyPerturbation",
    "IndexOutOfRange",
    "InvalidParams",
    "InverseStats",
    "IterationStep",
    "MatrixParseError",
    "MonoboundError",
    "MonotoneCheck",
    "NegativePerturbation",
    "NotMonotone",
    "NotSymmetric",
    "NotTridiagonal",
    "OrderOutOfRange",
    "SingularIterate",
    "SingularMatrix",
    "SingularSubmatrix",
    "UnreachablePair",
    "ZeroDiagonal",
    "ZeroMarginal",
    "as_square_matrix",
    "bisection_vstar",
    "block_laplacian_bounds",
    "block_laplacian_inverse",
    "block_laplacian_stats",
    "bouchon_M",
    "bouchon_bound",
    "bouchon_quantities",
    "buffoni_vstar",
    "build_block_laplacian",
    "classify_matrix",
    "corollary_bound",
    "format_dense",
    "gavrilov_check",
    "inverse",
    "inverse_stats",
    "is_irreducible",
    "is_irreducibly_diag_dominant",
    "is_m_matrix",
    "is_monotone",
    "is_quasi_doubly_stochastic",
    "is_strictly_diag_dominant",
    "is_z_matrix",
    "main_bound",
    "parse_matrix",
    "read_matrix",
    "sigma_vector",
    "sigma_via_determinant",
    "strict_dominance_set",
    "tridiagonal_bound",
    "verify_kuttler",
    "write_dense",
]
