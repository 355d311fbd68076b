"""Dense complex-matrix substrate: extremal eigen/singular data and
numerical-range geometry.

Everything here is a pure function of its inputs. Matrices are plain
``numpy.ndarray`` objects with complex128 entries in row-major order;
decompositions are delegated to LAPACK through ``numpy.linalg`` since the
target scale is small dense matrices (n <= 512), where full decompositions
beat any iterative scheme on both robustness and determinism.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (
    EmptyMatrixError,
    NonSquareError,
    NotHermitianError,
    SingularMatrixError,
)

#: default relative tolerance for accepting a matrix as hermitian
HERMITIAN_TOL = 1e-10
#: default relative singularity threshold for invert()
SINGULAR_TOL = 1e-12
#: defaults for the numerical-range sweep
THETA_STEPS = 720
REFINE_ITERS = 30

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def as_matrix(a) -> np.ndarray:
    """Coerce to a 2-D complex128 array and reject non-finite entries."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={m.ndim}")
    if m.size and not np.isfinite(m).all():
        raise ValueError("matrix has non-finite entries")
    return m


def _require_square(m: np.ndarray) -> None:
    if m.shape[0] != m.shape[1]:
        raise NonSquareError(f"expected a square matrix, got shape {m.shape}")


def is_hermitian(M, tol: float = HERMITIAN_TOL) -> bool:
    """True when ``norm(M - M^H) <= tol * norm(M)`` in operator norm."""
    m = as_matrix(M)
    _require_square(m)
    return op_norm(m - m.conj().T) <= tol * op_norm(m)


def hermitian_extremes(M, tol: float = HERMITIAN_TOL) -> tuple[float, float]:
    """Smallest and largest eigenvalue of a (near-)hermitian matrix.

    The input is hermitized as (M + M^H)/2 before the eigendecomposition;
    a deviation beyond ``tol * norm(M)`` raises ``NotHermitianError``.
    """
    m = as_matrix(M)
    _require_square(m)
    dev = op_norm(m - m.conj().T)
    if dev > tol * op_norm(m):
        raise NotHermitianError(
            f"hermitian deviation {dev:.3e} exceeds tol * norm = {tol * op_norm(m):.3e}"
        )
    w = np.linalg.eigvalsh(0.5 * (m + m.conj().T))
    return float(w[0]), float(w[-1])


def min_singular(M) -> float:
    """inf over unit vectors f of ||M f||.

    Equals the smallest singular value for square or tall matrices and 0 for
    wide ones (their kernel is nontrivial).
    """
    m = as_matrix(M)
    if m.size == 0:
        raise EmptyMatrixError("matrix has no entries")
    rows, cols = m.shape
    if cols > rows:
        return 0.0
    return float(np.linalg.svd(m, compute_uv=False)[-1])


def op_norm(M) -> float:
    """Operator (spectral) norm, the largest singular value."""
    m = as_matrix(M)
    if m.size == 0:
        return 0.0
    return float(np.linalg.svd(m, compute_uv=False)[0])


def invert(M, tol: float = SINGULAR_TOL) -> np.ndarray:
    """Inverse of a square matrix.

    Raises ``SingularMatrixError`` when sigma_min <= tol * sigma_max, i.e.
    the condition number exceeds 1/tol. For inputs passing that gate the
    residual ||M M^-1 - I|| is on the order of cond(M) * machine epsilon.
    """
    m = as_matrix(M)
    _require_square(m)
    if m.size == 0:
        raise EmptyMatrixError("matrix has no entries")
    svals = np.linalg.svd(m, compute_uv=False)
    if svals[-1] <= tol * svals[0]:
        raise SingularMatrixError(
            f"sigma_min = {svals[-1]:.3e} below threshold {tol:.1e} * {svals[0]:.3e}"
        )
    return np.linalg.inv(m)


def _rotated_hermitian_part(m: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """Stack of Re(e^{i theta} M) = (e^{i theta} M + e^{-i theta} M^H)/2."""
    phases = np.exp(1j * thetas)
    mh = m.conj().T
    return 0.5 * (phases[:, None, None] * m + np.conj(phases)[:, None, None] * mh)


def _sweep_eig_extremes(m: np.ndarray, thetas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(lambda_min, lambda_max) of the rotated hermitian part per theta."""
    n = m.shape[0]
    # keep each eigvalsh batch under ~32 MB
    chunk = max(1, (1 << 21) // max(n * n, 1))
    mins = np.empty(len(thetas))
    maxs = np.empty(len(thetas))
    for start in range(0, len(thetas), chunk):
        block = thetas[start : start + chunk]
        w = np.linalg.eigvalsh(_rotated_hermitian_part(m, block))
        mins[start : start + len(block)] = w[:, 0]
        maxs[start : start + len(block)] = w[:, -1]
    return mins, maxs


def _golden_max(fun, lo: float, hi: float, iters: int, best: float) -> float:
    """Golden-section maximization on [lo, hi]; never worse than ``best``."""
    a, b = lo, hi
    for _ in range(iters):
        c = b - _INVPHI * (b - a)
        d = a + _INVPHI * (b - a)
        fc, fd = fun(c), fun(d)
        best = max(best, fc, fd)
        if fc > fd:
            b = d
        else:
            a = c
    return best


def numerical_range_bounds(
    M,
    theta_steps: int = THETA_STEPS,
    refine_iters: int = REFINE_ITERS,
) -> tuple[float, float]:
    """Distance of the numerical range from the origin and numerical radius.

    Sweeps theta over [0, 2 pi): the radius is the max over theta of
    lambda_max(Re(e^{i theta} M)) and the distance is max(0, max over theta
    of lambda_min(...)). Convexity of the numerical range makes the support
    sweep exact up to grid resolution; a golden-section pass around the best
    grid angle tightens both values, keeping the best seen so far.
    """
    m = as_matrix(M)
    _require_square(m)
    if theta_steps < 8:
        raise ValueError("theta_steps must be >= 8")
    if m.size == 0:
        return 0.0, 0.0

    thetas = np.linspace(0.0, 2.0 * math.pi, theta_steps, endpoint=False)
    mins, maxs = _sweep_eig_extremes(m, thetas)
    h = 2.0 * math.pi / theta_steps

    def eig_min(theta: float) -> float:
        return float(np.linalg.eigvalsh(_rotated_hermitian_part(m, np.array([theta])))[0, 0])

    def eig_max(theta: float) -> float:
        return float(np.linalg.eigvalsh(_rotated_hermitian_part(m, np.array([theta])))[0, -1])

    i_min = int(np.argmax(mins))
    i_max = int(np.argmax(maxs))
    best_min = _golden_max(
        eig_min, thetas[i_min] - h, thetas[i_min] + h, refine_iters, float(mins[i_min])
    )
    best_max = _golden_max(
        eig_max, thetas[i_max] - h, thetas[i_max] + h, refine_iters, float(maxs[i_max])
    )
    return max(0.0, best_min), best_max

