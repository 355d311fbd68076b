"""Near-identity detection and truncated Neumann-series inversion.

A square S admits Neumann inversion when some scalar alpha makes
norm(I - alpha*S) < 1; then alpha * sum_{n<=N} (I - alpha*S)^n converges to
S^-1 geometrically in N. This module finds a good alpha (closed form for
hermitian positive definite S, log-polar grid search plus local refinement
otherwise), evaluates the partial sums, and tracks the decay of the
approximate-identity error against the geometric bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import spectral
from .errors import DimensionMismatchError, NonSquareError, PairFrameError
from .pairs import PairSystem, pair_operator

#: residual must clear 1 by this margin before the near-identity verdict;
#: keeps roundoff on provably-hopeless inputs (hermitian indefinite or
#: singular, where the true infimum is 1) from flipping the flag
NEAR_IDENTITY_GUARD = 1e-10

ALPHA_GRID = 64
ALPHA_REFINE_ITERS = 40


@dataclass(frozen=True)
class NearIdentityReport:
    """Best scalar found and whether it certifies near-identity.

    ``is_positive_variant`` records the self-adjoint picture: S hermitian
    and the reported alpha real and positive.
    """

    alpha: complex
    residual: float
    is_near_identity: bool
    is_positive_variant: bool


class TraceEntry(NamedTuple):
    N: int
    error: float
    bound: float


@dataclass(frozen=True)
class NeumannTrace:
    """Decay table of the approximate-identity error.

    ``entries[k]`` holds N = k, the error norm(I - (S^-1)_N S) and the
    geometric bound residual^(N+1) that dominates it.
    """

    alpha: complex
    residual: float
    entries: tuple


def _residual_norm(s: np.ndarray, alpha: complex) -> float:
    return spectral.op_norm(np.eye(s.shape[0]) - alpha * s)


def _grid_residuals(s: np.ndarray, alphas: np.ndarray) -> np.ndarray:
    """norm(I - alpha*S) for a batch of alphas via the normal equations.

    (I - aS)^H (I - aS) = I - conj(a) S^H - a S + |a|^2 S^H S is hermitian,
    so batched eigendecompositions scan the whole grid; accuracy is plenty
    for locating the basin, and the winner is re-evaluated by SVD. Each
    batch of normal matrices is built inside the loop, keeping memory at
    one batch (about 4 MB) rather than the whole grid.
    """
    n = s.shape[0]
    eye = np.eye(n)
    sh = s.conj().T
    shs = sh @ s
    chunk = max(1, (1 << 18) // max(n * n, 1))
    out = np.empty(len(alphas))
    for start in range(0, len(alphas), chunk):
        a = alphas[start : start + chunk, None, None]
        w = np.linalg.eigvalsh(eye - np.conj(a) * sh - a * s + (np.abs(a) ** 2) * shs)
        out[start : start + len(w)] = np.sqrt(np.maximum(w[:, -1], 0.0))
    return out


def find_alpha(S) -> NearIdentityReport:
    """Scalar alpha minimizing norm(I - alpha*S), with verdicts.

    Hermitian positive definite S gets the classical optimum
    alpha = 2/(lambda_min + lambda_max) in closed form. Otherwise the
    magnitude-angle plane is scanned on an ALPHA_GRID x ALPHA_GRID log-polar
    lattice and the best point is polished by ALPHA_REFINE_ITERS rounds of a
    convergent pattern search on (Re alpha, Im alpha) — norm(I - alpha*S) is
    convex in alpha. Any alpha certifying near-identity must satisfy
    |alpha| < 2/op_norm(S), so the search annulus is clipped accordingly.
    S = 0 yields the verdict-false report with alpha = 0 (no nonzero scalar
    can help; the residual is 1).
    """
    s = spectral.as_matrix(S)
    if s.shape[0] != s.shape[1]:
        raise NonSquareError(f"expected a square matrix, got shape {s.shape}")
    svals = np.linalg.svd(s, compute_uv=False)
    onorm, smin = float(svals[0]), float(svals[-1])
    if onorm == 0.0:
        return NearIdentityReport(
            alpha=0j, residual=1.0, is_near_identity=False, is_positive_variant=False
        )

    sh = s.conj().T
    hermitian = spectral.op_norm(s - sh) <= spectral.HERMITIAN_TOL * onorm
    if hermitian:
        w = np.linalg.eigvalsh(0.5 * (s + sh))
        lmin, lmax = float(w[0]), float(w[-1])
        if lmin > 0.0:
            alpha = 2.0 / (lmin + lmax)
            residual = _residual_norm(s, alpha)
            return NearIdentityReport(
                alpha=complex(alpha),
                residual=residual,
                is_near_identity=residual < 1.0 - NEAR_IDENTITY_GUARD,
                is_positive_variant=True,
            )

    lo = 1.0 / (10.0 * onorm)
    hi = 10.0 / max(smin, 1e-2 * onorm)
    mags = np.geomspace(lo, hi, ALPHA_GRID)
    angles = np.linspace(0.0, 2.0 * math.pi, ALPHA_GRID, endpoint=False)
    alphas = (mags[:, None] * np.exp(1j * angles)[None, :]).ravel()
    coarse = _grid_residuals(s, alphas)

    # polish the few best basin candidates with exact evaluations
    order = np.argsort(coarse)[:5]
    best_alpha, best_res = 0j, math.inf
    for k in order:
        r = _residual_norm(s, complex(alphas[k]))
        if r < best_res:
            best_alpha, best_res = complex(alphas[k]), r

    step = 0.2 * abs(best_alpha)
    for _ in range(ALPHA_REFINE_ITERS):
        moved = False
        for d in (step, -step, 1j * step, -1j * step):
            cand = best_alpha + d
            if not (lo <= abs(cand) <= hi):
                continue
            r = _residual_norm(s, cand)
            if r < best_res:
                best_alpha, best_res = cand, r
                moved = True
        if not moved:
            step *= 0.5

    positive = hermitian and abs(best_alpha.imag) <= 1e-12 * abs(best_alpha) and best_alpha.real > 0
    return NearIdentityReport(
        alpha=best_alpha,
        residual=best_res,
        is_near_identity=best_res < 1.0 - NEAR_IDENTITY_GUARD,
        is_positive_variant=positive,
    )


def neumann_inverse(S, alpha: complex, N: int) -> np.ndarray:
    """Partial sum alpha * sum_{n=0}^{N} (I - alpha*S)^n by Horner iteration.

    Uses N matrix multiplications and no power table; with
    norm(I - alpha*S) < 1 it converges to S^-1 as N grows.
    """
    s = spectral.as_matrix(S)
    if s.shape[0] != s.shape[1]:
        raise NonSquareError(f"expected a square matrix, got shape {s.shape}")
    if N < 0:
        raise ValueError("N must be >= 0")
    eye = np.eye(s.shape[0], dtype=np.complex128)
    r = eye - alpha * s
    acc = alpha * eye
    for _ in range(N):
        acc = alpha * eye + r @ acc
    return acc


def neumann_trace(S, alpha: complex, N_max: int) -> NeumannTrace:
    """Decay table of norm(I - (S^-1)_N S) for N = 0..N_max.

    The partial sums are carried from row to row by the Horner step of
    :func:`neumann_inverse`, so row N costs one product, not N. Each row is
    checked against the telescoped form
    I - (S^-1)_N S = (I - alpha*S)^(N+1); disagreement beyond roundoff means
    a broken partial-sum evaluation and raises.
    """
    s = spectral.as_matrix(S)
    if s.shape[0] != s.shape[1]:
        raise NonSquareError(f"expected a square matrix, got shape {s.shape}")
    if N_max < 0:
        raise ValueError("N_max must be >= 0")
    eye = np.eye(s.shape[0], dtype=np.complex128)
    r = eye - alpha * s
    residual = spectral.op_norm(r)
    entries = []
    r_pow = np.eye(s.shape[0], dtype=np.complex128)
    acc = alpha * eye
    for n in range(N_max + 1):
        if n:
            acc = alpha * eye + r @ acc  # neumann_inverse(s, alpha, n)
        r_pow = r_pow @ r  # (I - alpha*S)^(n+1)
        defect = eye - acc @ s
        gap = spectral.op_norm(defect - r_pow)
        if gap > 1e-10 * max(1.0, spectral.op_norm(r_pow)):
            raise PairFrameError(
                f"partial-sum telescoping identity violated at N={n}: gap {gap:.3e}"
            )
        entries.append(TraceEntry(N=n, error=spectral.op_norm(defect), bound=residual ** (n + 1)))
    return NeumannTrace(alpha=complex(alpha), residual=residual, entries=tuple(entries))


def reconstruct(system: PairSystem, alpha: complex, N: int, f) -> tuple[np.ndarray, float]:
    """Approximate f by (S^-1)_N S f for the system's pair operator.

    Returns the approximation and its relative error, which obeys the same
    geometric bound residual^(N+1) as the operator defect; f = 0 reports
    error 0 by convention.
    """
    f = np.asarray(f, dtype=np.complex128)
    if f.shape != (system.ambient_dim,):
        raise DimensionMismatchError(
            f"expected a signal of length {system.ambient_dim}, got shape {f.shape}"
        )
    s = pair_operator(system)
    approx = neumann_inverse(s, alpha, N) @ (s @ f)
    fnorm = float(np.linalg.norm(f))
    rel = float(np.linalg.norm(approx - f)) / fnorm if fnorm > 0.0 else 0.0
    return approx, rel
