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

from .errors import EmptyMatrixError, NonSquareError, SingularMatrixError

#: default relative tolerance for accepting a matrix as hermitian
HERMITIAN_TOL = 1e-10
#: default relative singularity threshold for invert()
SINGULAR_TOL = 1e-12
#: grid size (even) and golden-section iterations of the numerical-range sweep
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


def _square_matrix(a) -> np.ndarray:
    """:func:`as_matrix`, then reject a matrix that is not square."""
    m = as_matrix(a)
    if m.shape[0] != m.shape[1]:
        raise NonSquareError(f"expected a square matrix, got shape {m.shape}")
    return m


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


def _check_tol(tol: float) -> float:
    """``tol`` itself when it is finite and >= 0; ValueError otherwise."""
    if not 0.0 <= tol < math.inf:
        raise ValueError(f"tol must be finite and >= 0, got {tol!r}")
    return tol


def invert(M, tol: float = SINGULAR_TOL) -> np.ndarray:
    """Inverse of a square matrix.

    Raises ``SingularMatrixError`` when sigma_min <= tol * sigma_max, i.e.
    the condition number exceeds 1/tol. For inputs passing that gate the
    residual ||M M^-1 - I|| is on the order of cond(M) * machine epsilon.
    A negative or non-finite ``tol`` raises ``ValueError``.
    """
    _check_tol(tol)
    m = _square_matrix(M)
    if m.size == 0:
        raise EmptyMatrixError("matrix has no entries")
    svals = np.linalg.svd(m, compute_uv=False)
    if svals[-1] <= tol * svals[0]:
        raise SingularMatrixError(
            f"sigma_min = {svals[-1]:.3e} below threshold {tol:.1e} * {svals[0]:.3e}"
        )
    return np.linalg.inv(m)


def _rotated_eigvalsh(m: np.ndarray, mh: np.ndarray, theta: float) -> np.ndarray:
    """Ascending eigenvalues of Re(e^{i theta} M) = (e^{i theta} M + e^{-i theta} M^H)/2."""
    phase = np.exp(1j * theta)
    return np.linalg.eigvalsh(0.5 * (phase * m + np.conj(phase) * mh))


def numerical_range_bounds(M) -> tuple[float, float]:
    """Distance of the numerical range from the origin and numerical radius.

    Both are extremes of the support function
    h(theta) = lambda_max(Re(e^{i theta} M)): the radius is max h, and the
    distance is max(0, lower), where lower = -min h is the largest
    lambda_min(Re(e^{i theta} M)); a positive lower puts the numerical range
    in a half plane at that distance from the origin, otherwise 0 lies in
    it. Since Re(e^{i(theta + pi)} M) is -Re(e^{i theta} M), one eigvalsh at
    theta also gives h(theta + pi) = -lambda_min, so THETA_STEPS/2 solves
    over [0, pi) fill a THETA_STEPS-point grid of the full circle, one
    n x n matrix at a time. Convexity of the numerical range makes the
    sweep exact up to grid resolution; a golden-section pass around the
    best grid angle tightens each value, keeping the best seen so far.
    """
    m = _square_matrix(M)
    if m.size == 0:
        return 0.0, 0.0
    mh = m.conj().T
    thetas = np.linspace(0.0, 2.0 * math.pi, THETA_STEPS, endpoint=False)
    half = THETA_STEPS // 2
    h = np.empty(THETA_STEPS)
    for k in range(half):
        w = _rotated_eigvalsh(m, mh, thetas[k])
        h[k], h[k + half] = w[-1], -w[0]
    step = 2.0 * math.pi / THETA_STEPS

    def refine(end: int, theta: float, best: float) -> float:
        """Golden-section maximum of eigenvalue ``end`` on
        [theta - step, theta + step], started from its known value ``best``
        at theta; returns the best value seen, never worse than the start."""
        a, b = theta - step, theta + step
        for _ in range(REFINE_ITERS):
            c = b - _INVPHI * (b - a)
            d = a + _INVPHI * (b - a)
            fc = float(_rotated_eigvalsh(m, mh, c)[end])
            fd = float(_rotated_eigvalsh(m, mh, d)[end])
            best = max(best, fc, fd)
            if fc > fd:
                b = d
            else:
                a = c
        return best

    i_max = int(np.argmax(h))
    # lambda_min(Re(e^{i theta} M)) = -h(theta + pi) peaks opposite argmin h
    i_min = int(np.argmin(h))
    radius = refine(-1, thetas[i_max], float(h[i_max]))
    lower = refine(0, thetas[(i_min + half) % THETA_STEPS], float(-h[i_min]))
    return max(0.0, lower), radius
