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

#: default relative threshold on lambda_min for the frame verdict
FRAME_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class OperatorFamily:
    """Ordered family of operators C^n -> C^{d_i} with a shared domain, held
    once as the read-only D x n array ``stacked``; ``members`` are row views."""

    ambient_dim: int
    members: tuple
    stacked: np.ndarray = field(init=False, repr=False)

    def __init__(self, members: Sequence, ambient_dim: int | None = None):
        if isinstance(members, np.ndarray) and members.ndim == 3:
            # members of one shape, converted and checked in one pass
            count, rows, width = members.shape
            mats = [spectral.as_matrix(members.reshape(count * rows, width))] if count else []
            codims = [rows] * count
        else:
            mats = [spectral.as_matrix(raw) for raw in members]
            codims = [len(m) for m in mats]
        for k, d in enumerate(codims):
            if d < 1:
                raise ValueError(f"member {k} has no rows")
        if not mats:
            raise ValueError("family needs at least one member")
        n = mats[0].shape[1] if ambient_dim is None else int(ambient_dim)
        if n < 1:
            raise ValueError("ambient dimension must be >= 1")
        for k, m in enumerate(mats):
            if m.shape[1] != n:
                raise DimensionMismatchError(
                    f"member {k} has {m.shape[1]} columns, ambient dimension is {n}"
                )
        stacked = np.vstack(mats)
        stacked.flags.writeable = False
        object.__setattr__(self, "ambient_dim", n)
        object.__setattr__(self, "stacked", stacked)
        starts = itertools.accumulate(codims, initial=0)
        members = tuple(stacked[s : s + d] for s, d in zip(starts, codims))
        object.__setattr__(self, "members", members)

    @classmethod
    def from_vectors(cls, vectors, ambient_dim: int | None = None) -> "OperatorFamily":
        """Family for an ordinary frame: each vector f becomes the row f^H.
        Vectors of one length are converted and conjugated as one array."""
        try:
            rows = np.asarray(vectors, dtype=np.complex128)
        except (TypeError, ValueError):  # ragged or not numbers: row by row below
            rows = None
        if rows is not None and rows.ndim == 2:
            return cls(rows.conj()[:, None, :], ambient_dim)
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
    f = np.asarray(f, dtype=np.complex128)
    if f.shape != (family.ambient_dim,):
        raise DimensionMismatchError(
            f"expected a vector of length {family.ambient_dim}, got shape {f.shape}"
        )
    return family.stacked @ f


def synthesis(family: OperatorFamily, h) -> np.ndarray:
    """Adjoint of analysis: sum of L_i^H h_i over the blocks of h."""
    h = np.asarray(h, dtype=np.complex128)
    if h.shape != (family.total_codim,):
        raise DimensionMismatchError(
            f"expected a coefficient vector of length {family.total_codim}, got shape {h.shape}"
        )
    return family.stacked.conj().T @ h


def frame_operator(family: OperatorFamily) -> np.ndarray:
    """S = sum of L_i^H L_i = L^H L for the stacked family L, hermitian
    positive semidefinite by construction. Raises ``PairFrameError`` when
    an entry of S overflows."""
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
    codims = family.codims
    if len(set(codims)) == 1:  # one shape: converted and checked as one array
        return OperatorFamily(stacked.reshape(family.count, codims[0], -1))
    return OperatorFamily(np.split(stacked, family.offsets[1:]))


def _spectrum(family: OperatorFamily, tol: float | None) -> tuple[np.ndarray, FrameBounds, bool]:
    """The frame operator S, the frame bounds and the frame verdict, all from
    one ``eigvalsh`` of S; :func:`classify` and :func:`canonical_dual` share it."""
    if tol is not None:
        spectral._check_tol(tol)
    s = frame_operator(family)
    # L^H L is hermitian by construction, so no hermiticity check is needed
    w = np.linalg.eigvalsh(0.5 * (s + s.conj().T))
    lmin, lmax = float(w[0]), max(0.0, float(w[-1]))
    is_frame = lmin > (FRAME_TOL * lmax if tol is None else tol)
    return s, FrameBounds(lower=max(0.0, lmin), upper=lmax), is_frame


def classify(family: OperatorFamily, tol: float | None = None) -> ClassificationReport:
    """Classify a family as Bessel/frame from its frame operator spectrum.

    Any finite family is Bessel with optimal upper bound lambda_max(S). The
    frame verdict is lambda_min(S) > tol, where ``tol`` defaults to the
    relative threshold FRAME_TOL * lambda_max; passing an explicit ``tol``
    makes the threshold absolute. S is positive semidefinite, so these
    eigenvalues are its singular values: invertibility is certified at the
    same threshold. One SVD measures the residual of a frame. A negative or
    non-finite ``tol`` raises ``ValueError``.
    """
    s, bounds, is_frame = _spectrum(family, tol)
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


def canonical_dual(family: OperatorFamily, tol: float | None = None) -> OperatorFamily:
    """Dual family {L_i S^-1} realizing perfect reconstruction.

    synthesis(dual, analysis(family, f)) recovers f for every f, since the
    composition sums to S^-1 S; for hermitian S the stacked dual
    L S^-1 = (S^-1 L^H)^H is one solve. Raises ``NotAFrameError`` when the
    family is not a frame at the given tolerance, and ``ValueError`` for a
    negative or non-finite ``tol``.
    """
    s, bounds, is_frame = _spectrum(family, tol)
    if not is_frame:
        raise NotAFrameError(f"frame operator has lambda_min = {bounds.lower:.3e}; no bounded dual")
    return _regroup(family, np.linalg.solve(s, family.stacked.conj().T).conj().T)
