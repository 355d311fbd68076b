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
from .errors import DimensionMismatchError, NotAFrameError, SingularMatrixError

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
        mats = []
        for k, raw in enumerate(members):
            m = spectral.as_matrix(raw)
            if m.shape[0] < 1:
                raise ValueError(f"member {k} has no rows")
            mats.append(m)
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
        starts = itertools.accumulate((len(m) for m in mats), initial=0)
        members = tuple(stacked[s : s + len(m)] for s, m in zip(starts, mats))
        object.__setattr__(self, "members", members)

    @classmethod
    def from_vectors(cls, vectors, ambient_dim: int | None = None) -> "OperatorFamily":
        """Family for an ordinary frame: each vector f becomes the row f^H."""
        rows = []
        for v in vectors:
            arr = np.asarray(v, dtype=np.complex128)
            if arr.ndim != 1:
                raise ValueError("from_vectors expects 1-D vectors")
            rows.append(arr.conj()[None, :])
        return cls(rows, ambient_dim)

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

    def split_blocks(self, h) -> list:
        """Cut a stacked coefficient vector back into per-member blocks."""
        h = np.asarray(h, dtype=np.complex128)
        if h.shape != (self.total_codim,):
            raise DimensionMismatchError(
                f"expected a coefficient vector of length {self.total_codim}, got shape {h.shape}"
            )
        return [h[o : o + d] for o, d in zip(self.offsets, self.codims)]


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
    positive semidefinite by construction."""
    return family.stacked.conj().T @ family.stacked


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
    record whether the frame operator passed inversion at the same relative
    tolerance as the verdict, so all verdicts agree by construction.
    """

    is_bessel: bool
    is_frame: bool
    bounds: FrameBounds
    alpha_star: float | None
    residual: float | None
    cert_invertible: bool
    cert_surjective: bool


def _relative_tol(tol: float | None, lmax: float) -> tuple[float, float]:
    """(absolute threshold on lambda_min, relative threshold for invert)."""
    if tol is None:
        return FRAME_TOL * lmax, FRAME_TOL
    if lmax > 0.0:
        # a ratio >= 1 fails every matrix; the cap keeps tol / lmax = inf out of invert
        return tol, min(tol / lmax, 1.0)
    return tol, spectral.SINGULAR_TOL


def _classify(
    family: OperatorFamily, tol: float | None
) -> tuple[ClassificationReport, np.ndarray | None]:
    """:func:`classify` with the frame operator's inverse, which
    :func:`canonical_dual` reuses; None when the invertibility certificate
    fails."""
    if tol is not None:
        spectral._check_tol(tol)
    s = frame_operator(family)
    # L^H L is hermitian by construction, so no hermiticity check is needed
    w = np.linalg.eigvalsh(0.5 * (s + s.conj().T))
    lmin, lmax = float(w[0]), max(0.0, float(w[-1]))
    bounds = FrameBounds(lower=max(0.0, lmin), upper=lmax)
    abs_tol, rel_tol = _relative_tol(tol, lmax)
    is_frame = lmin > abs_tol
    try:
        s_inv = spectral.invert(s, rel_tol)
    except SingularMatrixError:
        s_inv = None
    alpha_star = residual = None
    if is_frame:
        alpha_star = 1.0 / lmax
        residual = spectral.op_norm(np.eye(family.ambient_dim) - s / lmax)
    report = ClassificationReport(
        is_bessel=True,
        is_frame=is_frame,
        bounds=bounds,
        alpha_star=alpha_star,
        residual=residual,
        cert_invertible=s_inv is not None,
        cert_surjective=s_inv is not None,
    )
    return report, s_inv


def classify(family: OperatorFamily, tol: float | None = None) -> ClassificationReport:
    """Classify a family as Bessel/frame from its frame operator spectrum.

    Any finite family is Bessel with optimal upper bound lambda_max(S). The
    frame verdict is lambda_min(S) > tol, where ``tol`` defaults to the
    relative threshold FRAME_TOL * lambda_max; passing an explicit ``tol``
    makes the threshold absolute. Invertibility is certified at the matching
    relative tolerance so the verdicts cannot drift apart at the boundary.
    A negative or non-finite ``tol`` raises ``ValueError``.
    """
    return _classify(family, tol)[0]


def canonical_dual(family: OperatorFamily, tol: float | None = None) -> OperatorFamily:
    """Dual family {L_i S^-1} realizing perfect reconstruction.

    synthesis(dual, analysis(family, f)) recovers f for every f, since the
    composition sums to S^-1 S. Raises ``NotAFrameError`` when the family is
    not a frame at the given tolerance, and ``ValueError`` for a negative or
    non-finite ``tol``.
    """
    report, s_inv = _classify(family, tol)
    if not report.is_frame or s_inv is None:
        raise NotAFrameError(
            f"frame operator has lambda_min = {report.bounds.lower:.3e}; no bounded dual"
        )
    return OperatorFamily([m @ s_inv for m in family.members], family.ambient_dim)
