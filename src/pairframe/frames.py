"""Operator families on C^n: analysis/synthesis maps, the frame operator,
frame classification, and canonical duals.

A family holds members L_i, each a d_i x n matrix mapping the ambient space
into C^{d_i}. An ordinary vector frame {f_i} is the d_i = 1 case stored as
the row f_i^H, so L_i f is the inner product of f against f_i and every code
path below covers both pictures at once.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from . import spectral
from .errors import DimensionMismatchError, NotAFrameError

#: relative threshold on lambda_min for the frame verdict
FRAME_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class OperatorFamily:
    """Ordered family of operators C^n -> C^{d_i} with a shared domain, held
    once as the read-only D x n array ``stacked``; ``members`` are row views."""

    ambient_dim: int
    members: tuple
    stacked: np.ndarray = field(init=False, repr=False)

    def __init__(self, members: Sequence, ambient_dim: int | None = None):
        mats = [np.asarray(raw, dtype=np.complex128) for raw in members]
        for k, m in enumerate(mats):
            if m.ndim != 2:
                raise ValueError(f"expected a 2-D matrix, got ndim={m.ndim}")
            if len(m) < 1:
                raise ValueError(f"member {k} has no rows")
        if not mats:
            raise ValueError("family needs at least one member")
        n = mats[0].shape[1] if ambient_dim is None else ambient_dim
        n = spectral._check_count(n, "ambient_dim", 1)
        for k, m in enumerate(mats):
            if m.shape[1] != n:
                raise DimensionMismatchError(
                    f"member {k} has {m.shape[1]} columns, ambient dimension is {n}"
                )
        # concatenate copies, so freezing the stack never freezes a caller's array
        stacked = spectral.as_matrix(np.concatenate(mats))
        stacked.flags.writeable = False
        object.__setattr__(self, "ambient_dim", n)
        object.__setattr__(self, "stacked", stacked)
        codims = [len(m) for m in mats]
        starts = itertools.accumulate(codims, initial=0)
        members = tuple(stacked[s : s + d] for s, d in zip(starts, codims))
        object.__setattr__(self, "members", members)

    @classmethod
    def from_vectors(cls, vectors, ambient_dim: int | None = None) -> "OperatorFamily":
        """Family for an ordinary frame: each vector f becomes the row f^H."""
        rows = [np.asarray(v, dtype=np.complex128) for v in vectors]
        if any(r.ndim != 1 for r in rows):
            raise ValueError("from_vectors expects 1-D vectors")
        return cls([r.conj()[None, :] for r in rows], ambient_dim)

    @property
    def count(self) -> int:
        return len(self.members)

    @cached_property
    def codims(self) -> tuple:
        """Row counts (d_1, ..., d_N) of the members."""
        return tuple(m.shape[0] for m in self.members)

    @cached_property
    def offsets(self) -> tuple:
        """Start index of each member's block in the stacked coefficient space."""
        return tuple(itertools.accumulate(self.codims[:-1], initial=0))

    @property
    def total_codim(self) -> int:
        return sum(self.codims)


def analysis(family: OperatorFamily, f) -> np.ndarray:
    """Stacked coefficient vector (L_1 f, ..., L_N f) of total length D."""
    return family.stacked @ spectral._vector(f, family.ambient_dim, "vector")


def synthesis(family: OperatorFamily, h) -> np.ndarray:
    """Adjoint of analysis: sum of L_i^H h_i over the blocks of h."""
    h = spectral._vector(h, family.total_codim, "coefficient vector")
    return family.stacked.conj().T @ h


def frame_operator(family: OperatorFamily) -> np.ndarray:
    """S = sum of L_i^H L_i = L^H L for the stacked family L, hermitian
    positive semidefinite by construction. Raises ``PairFrameError`` when
    an entry of S overflows, or when S is nonzero and subnormal."""
    return spectral._product("frame operator", family.stacked.conj().T, family.stacked)


@dataclass(frozen=True)
class FrameBounds:
    """Optimal constants of the two frame inequalities."""

    lower: float
    upper: float


@dataclass(frozen=True)
class ClassificationReport:
    """Frame/Bessel verdicts with the certificates that back them.

    ``alpha_star`` and ``residual`` are present only for frames: alpha_star
    is 1/B and residual the operator norm of I - S/B, which is < 1 exactly
    when the family is a frame. ``cert_invertible``/``cert_surjective``
    record sigma_min(S) above the verdict's threshold; S is positive
    semidefinite, so that is the verdict's own eigenvalue test.
    """

    is_bessel: bool
    is_frame: bool
    bounds: FrameBounds
    alpha_star: float | None
    residual: float | None
    cert_invertible: bool
    cert_surjective: bool


def _regroup(family: OperatorFamily, stacked: np.ndarray) -> OperatorFamily:
    """Family whose stacked rows are ``stacked``, cut as ``family``'s are."""
    return OperatorFamily([stacked[s : s + d] for s, d in zip(family.offsets, family.codims)])


def _spectrum(family: OperatorFamily) -> tuple[np.ndarray, FrameBounds, bool]:
    """The frame operator S, the frame bounds and the frame verdict, all from
    one ``eigvalsh`` of S; :func:`classify` and :func:`canonical_dual` share it."""
    s = frame_operator(family)
    # L^H L is hermitian by construction, so no hermiticity check is needed
    w = np.linalg.eigvalsh(0.5 * (s + s.conj().T))
    lmin, lmax = float(w[0]), max(0.0, float(w[-1]))
    return s, FrameBounds(lower=max(0.0, lmin), upper=lmax), lmin > FRAME_TOL * lmax


def classify(family: OperatorFamily) -> ClassificationReport:
    """Classify a family as Bessel/frame from its frame operator spectrum.

    Any finite family is Bessel with optimal upper bound lambda_max(S). The
    frame verdict is lambda_min(S) > FRAME_TOL * lambda_max(S), which no
    scaling of the family changes. S is positive semidefinite, so these
    eigenvalues are its singular values: invertibility is certified at the
    same threshold. One SVD measures the residual of a frame.
    """
    s, bounds, is_frame = _spectrum(family)
    alpha_star = residual = None
    if is_frame:
        alpha_star = 1.0 / bounds.upper
        residual = spectral.op_norm(np.eye(family.ambient_dim) - s / bounds.upper)
    return ClassificationReport(
        is_bessel=True,
        is_frame=is_frame,
        bounds=bounds,
        alpha_star=alpha_star,
        residual=residual,
        cert_invertible=is_frame,
        cert_surjective=is_frame,
    )


def canonical_dual(family: OperatorFamily) -> OperatorFamily:
    """Dual family {L_i S^-1} realizing perfect reconstruction.

    synthesis(dual, analysis(family, f)) recovers f for every f, since the
    composition sums to S^-1 S; for hermitian S the stacked dual
    L S^-1 = (S^-1 L^H)^H is one solve. Raises ``NotAFrameError`` when the
    family is not a frame by the verdict of :func:`classify`.
    """
    s, bounds, is_frame = _spectrum(family)
    if not is_frame:
        raise NotAFrameError(f"frame operator has lambda_min = {bounds.lower:.3e}; no bounded dual")
    return _regroup(family, np.linalg.solve(s, family.stacked.conj().T).conj().T)
