"""Exception types raised by the pairframe library.

All library-specific failures derive from :class:`PairFrameError` so callers
can catch one base class. Plain ``ValueError``/``TypeError`` are still used
for garden-variety argument abuse. Each bad argument raises one error:

- a vector, coefficient vector or signal of the wrong length:
  :class:`DimensionMismatchError`;
- a non-finite entry in a vector or matrix argument, or a non-finite
  scalar argument such as ``alpha``: ``ValueError``;
- a count (``ambient_dim``, ``N``, ``N_max``) that is not an integer:
  ``TypeError``; one out of its range: ``ValueError``; both name it;
- a malformed generator spec, its sizes included: :class:`InvalidSpecError`.
"""


class PairFrameError(Exception):
    """Base class for all pairframe errors."""


class NonSquareError(PairFrameError):
    """An operation requiring a square matrix received a rectangular one."""


class DimensionMismatchError(PairFrameError):
    """Shapes of operators, vectors or weight sequences are incompatible."""


class NotAFrameError(PairFrameError):
    """A frame-only operation (e.g. canonical dual) was applied to a non-frame."""


class InvalidExponentError(PairFrameError):
    """Exponent p < 1 passed to a p-norm style bound."""


class ExponentMismatchError(PairFrameError):
    """Exponents p, q do not satisfy 1/p + 1/q = 1."""


class InvalidSpecError(PairFrameError):
    """A generator spec is malformed or internally inconsistent."""


class FrameFileError(PairFrameError):
    """A frame file failed to parse or validate."""
