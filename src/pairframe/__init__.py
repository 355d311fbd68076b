"""pairframe: finite-dimensional frame theory on C^n.

Classify operator families as frames, build multiplier (pair-frame)
operators from weighted family pairs, bound their norms, and invert them
with truncated Neumann series, on numpy alone. Deterministic generators
supply validation inputs; the brute-force reference routes live in the
test suite.
"""

from .errors import (
    DimensionMismatchError,
    ExponentMismatchError,
    FrameFileError,
    InvalidExponentError,
    InvalidSpecError,
    NonSquareError,
    NotAFrameError,
    PairFrameError,
)
from .frames import (
    ClassificationReport,
    FrameBounds,
    OperatorFamily,
    analysis,
    canonical_dual,
    classify,
    frame_operator,
    synthesis,
)
from .generators import GenSpec, generate, generate_pair
from .neumann import (
    NearIdentityReport,
    NeumannTrace,
    find_alpha,
    neumann_inverse,
    neumann_trace,
    reconstruct,
)
from .pairs import (
    PairReport,
    PairSystem,
    PqBoundReport,
    WeightSequence,
    adjoint_check,
    classify_pair,
    compose,
    p_bessel_bound,
    pair_operator,
    pq_pair_norm_bound,
)
from .spectral import (
    NumericalRangeBracket,
    numerical_range_bounds,
    numerical_range_bracket,
    op_norm,
)

__version__ = "0.1.0"

__all__ = [
    "PairFrameError",
    "NonSquareError",
    "DimensionMismatchError",
    "NotAFrameError",
    "InvalidExponentError",
    "ExponentMismatchError",
    "InvalidSpecError",
    "FrameFileError",
    "OperatorFamily",
    "FrameBounds",
    "ClassificationReport",
    "analysis",
    "synthesis",
    "frame_operator",
    "classify",
    "canonical_dual",
    "WeightSequence",
    "PairSystem",
    "PairReport",
    "PqBoundReport",
    "pair_operator",
    "adjoint_check",
    "classify_pair",
    "compose",
    "p_bessel_bound",
    "pq_pair_norm_bound",
    "NearIdentityReport",
    "NeumannTrace",
    "find_alpha",
    "neumann_inverse",
    "neumann_trace",
    "reconstruct",
    "GenSpec",
    "generate",
    "generate_pair",
    "op_norm",
    "numerical_range_bounds",
    "NumericalRangeBracket",
    "numerical_range_bracket",
]
