"""Brute-force reference computations on tiny spheres, for the tests.

Independent of the optimization- and eigenvalue-based fast paths, these
oracles evaluate objectives on a dense deterministic sample of the complex
unit sphere (dim <= 3 only) and refine around the observed extremes. The
results are inner approximations: sampled minima sit at or above the true
minimum, sampled maxima at or below the true maximum, with the gap driven
below tolerance by the zoom rounds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri
from scipy.stats import qmc

from pairframe.spectral import as_matrix

_SOBOL_SEED = 20240215
_ZOOM_SEED = 915587
_ZOOM_STARTS = 4
_ZOOM_ROUNDS = 8
_ZOOM_RADIUS = 0.2
_ZOOM_SHRINK = 0.35


@dataclass(frozen=True)
class OracleConfig:
    """Sampling budget of the brute-force oracles."""

    sphere_samples: int = 200_000
    theta_samples: int = 4096

    def __post_init__(self):
        if self.sphere_samples < 1 or self.theta_samples < 1:
            raise ValueError("sample counts must be >= 1")


def _check_dim(dim: int) -> None:
    if not 1 <= dim <= 3:
        raise ValueError(f"dense sphere sampling needs 1 <= dim <= 3, got {dim}")


def _sobol_sphere(dim: int, n: int) -> np.ndarray:
    """n quasi-uniform points on the unit sphere of C^dim (rows)."""
    eng = qmc.Sobol(d=2 * dim, scramble=True, seed=_SOBOL_SEED)
    # draw a full power-of-two block (the balanced case) and slice
    u = eng.random_base2(max(0, (n - 1).bit_length()))[:n]
    u = np.clip(u, 1e-12, 1.0 - 1e-12)
    g = ndtri(u)
    z = g[:, :dim] + 1j * g[:, dim:]
    return z / np.linalg.norm(z, axis=1, keepdims=True)


def _evaluate(objective, points: np.ndarray) -> np.ndarray:
    """Apply an objective to a (k, dim) block of points.

    Objectives map the whole block to a (k,) array of reals; any other
    shape raises ``ValueError``.
    """
    vals = np.asarray(objective(points), dtype=np.float64)
    if vals.shape != (points.shape[0],):
        raise ValueError(
            f"objective must map a ({points.shape[0]}, dim) block to shape "
            f"({points.shape[0]},), got {vals.shape}"
        )
    return vals


def _zoom(objective, starts: np.ndarray, start_vals: np.ndarray, per_round: int, sign: float):
    """Local refinement around each start, maximizing sign * objective."""
    rng = np.random.Generator(np.random.PCG64(_ZOOM_SEED))
    best_pts = starts.copy()
    best_vals = sign * start_vals.copy()
    k, dim = starts.shape
    m = max(1, per_round // k)
    radius = _ZOOM_RADIUS
    for _ in range(_ZOOM_ROUNDS):
        noise = rng.standard_normal((k, m, dim)) + 1j * rng.standard_normal((k, m, dim))
        cand = best_pts[:, None, :] + radius * noise
        cand = cand / np.linalg.norm(cand, axis=2, keepdims=True)
        flat = cand.reshape(k * m, dim)
        vals = (sign * _evaluate(objective, flat)).reshape(k, m)
        round_best = vals.argmax(axis=1)
        improved = vals[np.arange(k), round_best] > best_vals
        best_vals[improved] = vals[np.arange(k), round_best][improved]
        best_pts[improved] = cand[np.arange(k), round_best][improved]
        radius *= _ZOOM_SHRINK
    # best_vals stores sign * objective, so this is max (sign > 0) or min
    return sign * best_vals.max()


def sphere_extremes(objective, dim: int, cfg: OracleConfig = OracleConfig()) -> tuple[float, float]:
    """Observed (min, max) of a real objective over the complex unit sphere.

    The objective maps a (k, dim) block of unit vectors to a (k,) array. A
    scrambled Sobol stream is pushed through the inverse normal CDF and
    normalized, giving a deterministic quasi-uniform sphere sample; the best
    and worst points then seed shrinking-radius local refinements.
    """
    _check_dim(dim)
    pts = _sobol_sphere(dim, cfg.sphere_samples)
    vals = _evaluate(objective, pts)
    order = np.argsort(vals)
    lo_idx = order[:_ZOOM_STARTS]
    hi_idx = order[-_ZOOM_STARTS:]
    vmin = _zoom(objective, pts[lo_idx], vals[lo_idx], cfg.theta_samples, sign=-1.0)
    vmax = _zoom(objective, pts[hi_idx], vals[hi_idx], cfg.theta_samples, sign=+1.0)
    return float(min(vmin, vals[lo_idx[0]])), float(max(vmax, vals[hi_idx[-1]]))


def brute_numerical_range(M, cfg: OracleConfig = OracleConfig()) -> tuple[float, float]:
    """Sampled (distance-from-origin, radius) of the numerical range of M.

    Evaluates |<M f, f>| on the sphere sample; by convexity of the numerical
    range, the minimum approximates the distance of the range from 0 and
    the maximum approximates the numerical radius.
    """
    m = as_matrix(M)
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    _check_dim(m.shape[0])

    def modulus(points: np.ndarray) -> np.ndarray:
        points = np.atleast_2d(points)
        return np.abs(np.einsum("ki,ij,kj->k", points.conj(), m, points))

    return sphere_extremes(modulus, m.shape[0], cfg)
