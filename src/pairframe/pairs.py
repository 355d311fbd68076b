"""Pair systems (m, Gamma, Lambda): the weighted multiplier operator
S = sum of m_i Gamma_i^H Lambda_i, its adjoint and composition identities,
frame-like constants from numerical-range geometry, and (p,q) norm bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from . import spectral
from .errors import (
    DimensionMismatchError,
    ExponentMismatchError,
    InvalidExponentError,
    PairFrameError,
)
from .frames import OperatorFamily, _regroup, frame_operator

#: relative invertibility threshold for the pair-frame verdict
PAIR_TOL = 1e-10

_GRAD_TOL = 1e-9
_MAX_ITERS = 500
#: each power step moves along g - sigma x with this fraction of the largest
#: shift sigma that keeps the step monotone
_SHIFT = 0.8
#: steps between checks for starts that have met
_MERGE_EVERY = 8
#: two unit iterates meet once |<x_a, x_b>| >= 1 - _MERGE_TOL
_MERGE_TOL = 1e-6
#: random unit starts of every ascent, drawn from PCG64(_START_SEED)
_RANDOM_STARTS = 32
_START_SEED = 0


@dataclass(frozen=True)
class WeightSequence:
    """Finite scalar symbol m = (m_1, ..., m_N), one weight per member."""

    values: tuple

    def __init__(self, values: Sequence):
        vals = tuple(complex(v) for v in values)
        if not vals:
            raise ValueError("weight sequence must be nonempty")
        if not all(math.isfinite(v.real) and math.isfinite(v.imag) for v in vals):
            raise ValueError("weights must be finite")
        object.__setattr__(self, "values", vals)

    def __len__(self) -> int:
        return len(self.values)

    @property
    def sup_norm(self) -> float:
        return max(abs(v) for v in self.values)

    def conjugated(self) -> "WeightSequence":
        return WeightSequence(tuple(v.conjugate() for v in self.values))

    def as_array(self) -> np.ndarray:
        return np.array(self.values, dtype=np.complex128)


@dataclass(frozen=True, eq=False)
class PairSystem:
    """Triple (m, Gamma, Lambda) with matching counts and ambient dimension."""

    m: WeightSequence
    gamma: OperatorFamily
    lam: OperatorFamily

    def __init__(self, m, gamma: OperatorFamily, lam: OperatorFamily):
        if not isinstance(m, WeightSequence):
            m = WeightSequence(m)
        if gamma.ambient_dim != lam.ambient_dim:
            raise DimensionMismatchError(
                f"families live on C^{gamma.ambient_dim} and C^{lam.ambient_dim}"
            )
        if not (len(m) == gamma.count == lam.count):
            raise DimensionMismatchError(
                f"member counts differ: weights {len(m)}, gamma {gamma.count}, lambda {lam.count}"
            )
        for i, (g, l) in enumerate(zip(gamma.members, lam.members)):
            if g.shape[0] != l.shape[0]:
                raise DimensionMismatchError(
                    f"member {i}: gamma maps into C^{g.shape[0]}, lambda into C^{l.shape[0]}"
                )
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "lam", lam)

    @property
    def ambient_dim(self) -> int:
        return self.gamma.ambient_dim

    @property
    def count(self) -> int:
        return self.gamma.count

    def adjoint_system(self) -> "PairSystem":
        """The system (conj m, Lambda, Gamma) whose operator is S^H."""
        return PairSystem(self.m.conjugated(), self.lam, self.gamma)


def pair_operator(system: PairSystem) -> np.ndarray:
    """S = sum of m_i Gamma_i^H Lambda_i as the product Gamma^H diag(m_i I) Lambda.

    Gamma and Lambda are the stacked families and each weight is repeated
    over its member's d_i rows, so the sum is one matrix product. Raises
    ``PairFrameError`` when an entry of S overflows, or S is nonzero and subnormal.
    """
    wexp = np.repeat(system.m.as_array(), system.gamma.codims)
    gamma_h = system.gamma.stacked.conj().T
    return spectral._product("pair operator", gamma_h, system.lam.stacked, wexp)


def adjoint_check(system: PairSystem) -> float:
    """Residual norm(S^H - S_swapped) of the adjoint identity.

    Swapping the families and conjugating the weights realizes the adjoint,
    so the residual is pure floating-point noise: at most about
    1e-12 * (1 + norm(S)) for any well-formed system.
    """
    return _adjoint_residual(system, pair_operator(system))


def _adjoint_residual(system: PairSystem, s: np.ndarray) -> float:
    """norm(S^H - S_swapped) for the system's pair operator ``s``."""
    return spectral.op_norm(s.conj().T - pair_operator(system.adjoint_system()))


@dataclass(frozen=True, eq=False)
class PairReport:
    """Verdicts for one pair system.

    ``framelike_lower``/``framelike_upper`` are the optimal constants of the
    two-sided bound on |<S f, f>| over unit vectors, read off the numerical
    range: the lower ends of their brackets, whose wider width is
    ``framelike_gap`` (see :func:`spectral.numerical_range_bracket`). A
    positive lower constant forces invertibility, but not the other way
    around: ``is_pair_frame`` can hold with framelike_lower = 0.
    ``op_norm`` and ``min_singular`` are the largest and smallest singular
    values of S.
    """

    S: np.ndarray
    op_norm: float
    min_singular: float
    is_pair_frame: bool
    condition_number: float | None
    framelike_lower: float
    framelike_upper: float
    framelike_gap: float
    adjoint_residual: float


def classify_pair(system: PairSystem) -> PairReport:
    """Pair-frame verdict with frame-like constants and adjoint residual.

    The verdict is sigma_min(S) > PAIR_TOL * sigma_max(S), free of scale;
    the frame-like constants are the distance of the numerical range of S
    from the origin and the numerical radius, bracketed by
    :func:`spectral.numerical_range_bracket` with the norm from the one SVD.
    """
    s = pair_operator(system)
    svals = np.linalg.svd(s, compute_uv=False)
    onorm, smin = float(svals[0]), float(svals[-1])
    invertible = smin > PAIR_TOL * onorm
    nr = spectral._numerical_range_bracket(s, onorm)
    return PairReport(
        S=s,
        op_norm=onorm,
        min_singular=smin,
        is_pair_frame=invertible,
        condition_number=(onorm / smin) if invertible else None,
        framelike_lower=nr.dist_lo,
        framelike_upper=nr.radius_lo,
        framelike_gap=nr.gap,
        adjoint_residual=_adjoint_residual(system, s),
    )


def compose(system: PairSystem, V, W) -> PairSystem:
    """The system (m, {Gamma_i V}, {Lambda_i W}).

    Its pair operator is V^H S W, so composing with invertible V, W
    preserves the pair-frame property. Raises ``PairFrameError`` when a
    composed family overflows or is nonzero and subnormal.
    """
    n = system.ambient_dim
    v = spectral.as_matrix(V)
    w = spectral.as_matrix(W)
    if v.shape != (n, n) or w.shape != (n, n):
        raise DimensionMismatchError(
            f"composition matrices must be {n} x {n}, got {v.shape} and {w.shape}"
        )
    gamma = _regroup(system.gamma, spectral._product("composed gamma", system.gamma.stacked, v))
    lam = _regroup(system.lam, spectral._product("composed lambda", system.lam.stacked, w))
    return PairSystem(system.m, gamma, lam)


def _objective_grad(
    stacked: np.ndarray, offsets: np.ndarray, codims: np.ndarray, p: float, X: np.ndarray
) -> tuple:
    """phi(x) = sum_i ||L_i x||^p and its gradient for each column x of X."""
    y = stacked @ X
    r = np.sqrt(np.add.reduceat(np.abs(y) ** 2, offsets, axis=0))
    with np.errstate(divide="ignore", invalid="ignore"):
        w = p * r ** (p - 2.0)
    if p < 2.0:
        w[r == 0.0] = 0.0
    grad = stacked.conj().T @ (np.repeat(w, codims, axis=0) * y)
    return (r**p).sum(axis=0), grad


def _power_step(X: np.ndarray, phi: np.ndarray, grad: np.ndarray, merge: bool) -> tuple:
    """Next iterates d/||d|| of the starts that still move (see
    :func:`p_bessel_bound`), from unit columns X, phi(X) and the gradients,
    with the mask of the columns of X that still move.

    A start stops once its gradient is normal to the sphere up to
    _GRAD_TOL, and, when ``merge`` is set, once it meets up to phase a start
    of higher phi (on a tie, an earlier one).
    """
    gnorm = np.linalg.norm(grad, axis=0)
    inner = np.real(np.sum(X.conj() * grad, axis=0))  # Re<g, x> = p phi(x)
    moving = np.linalg.norm(grad - X * inner, axis=0) > _GRAD_TOL * gnorm
    if merge:
        k = len(phi)
        ahead = (phi > phi[:, None]) | ((phi == phi[:, None]) & np.tri(k, k, -1, dtype=bool))
        moving &= ~((np.abs(X.conj().T @ X) >= 1.0 - _MERGE_TOL) & ahead).any(axis=1)
    X, grad, inner, gnorm = X[:, moving], grad[:, moving], inner[moving], gnorm[moving]
    # monotone for any shift up to gnorm^2 / (2 inner)
    d = grad - X * (_SHIFT * gnorm**2 / (2.0 * inner))
    return d / np.linalg.norm(d, axis=0), moving


def _aitken_jump(evaluate, x0: np.ndarray, x1: np.ndarray, x2: np.ndarray, phi: np.ndarray,
                 grad: np.ndarray) -> None:
    """Aitken jump of each column from three successive unit iterates
    x0, x1, x2, kept in place of x2 (with its phi and gradient) where it
    raises phi (see :func:`p_bessel_bound`). The jumps are evaluated by
    ``evaluate`` as one batch of their own.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        rho = np.linalg.norm(x2 - x1, axis=0) / np.linalg.norm(x1 - x0, axis=0)
    jump = np.flatnonzero((rho > 0.0) & (rho < 1.0))
    if not jump.size:
        return
    r = rho[jump]
    y = x2[:, jump] + (x2[:, jump] - x1[:, jump]) * (r / (1.0 - r))
    y /= np.linalg.norm(y, axis=0)
    phi_y, grad_y = evaluate(y)
    better = phi_y > phi[jump]
    kept = jump[better]
    x2[:, kept], phi[kept], grad[:, kept] = y[:, better], phi_y[better], grad_y[:, better]


def _ascent(family: OperatorFamily, p: float, X: np.ndarray) -> float:
    """Largest phi seen by the shifted power method with merges and Aitken
    jumps from the unit columns X (see :func:`p_bessel_bound`)."""
    stacked = family.stacked
    offsets = np.array(family.offsets)
    codims = np.array(family.codims)

    def evaluate(X):
        return _objective_grad(stacked, offsets, codims, p, X)

    with np.errstate(over="ignore", invalid="ignore"):
        phi, grad = evaluate(X)
        best = phi.max()
        prev = X
        for step in range(_MAX_ITERS):
            merge = step % _MERGE_EVERY == _MERGE_EVERY - 1
            nxt, moving = _power_step(X, phi, grad, merge=merge)
            if not nxt.shape[1]:
                break
            phi, grad = evaluate(nxt)
            if merge:
                _aitken_jump(evaluate, prev[:, moving], X[:, moving], nxt, phi, grad)
            best = max(best, phi.max())
            prev, X = X[:, moving], nxt
    return float(best)


def p_bessel_bound(family: OperatorFamily, p: float) -> float:
    """Estimate of B_p = sup over unit f of sum_i ||L_i f||^p.

    At p = 2 this is the top eigenvalue of the frame operator sum_i L_i^H L_i,
    returned with no iteration. Any other p runs a shifted generalized power
    method on the complex unit sphere from fixed starts: the top eigenvector
    of the frame operator and _RANDOM_STARTS random ones drawn from
    PCG64(_START_SEED), the same for every family of a dimension. Let
    g = sum_i p ||L_i f||^(p-2) L_i^H L_i f be the gradient of
    phi(f) = sum_i ||L_i f||^p; members with L_i f = 0 contribute nothing,
    so p = 1 takes a subgradient. By Euler's identity c = Re<g, f> = p phi(f).
    Each step maps f to d/||d|| with d = g - sigma f
    and sigma = _SHIFT ||g||^2 / (2c), which goes beyond the plain step
    g/||g|| along the same great circle. phi is convex for p >= 1, so
    phi(y) >= phi(f) + Re<g, y - f>; at y = d/||d|| the increment
    Re<g, d>/||d|| - c has the sign of (||g||^2 - c^2)(||g||^2 - 2 sigma c),
    and ||g|| >= c makes it non-negative for every sigma <= ||g||^2 / (2c).
    So no step lowers phi, and none needs a step size or a test.

    Every _MERGE_EVERY steps, a moving start whose iterate has
    |<x_a, x_b>| >= 1 - _MERGE_TOL with a start of higher phi (on a tie, an
    earlier one) is retired: the step is phase-equivariant, so from there on
    its path is the other start's path. Each start still moving then tries
    an Aitken jump (Aitken's delta-squared process), which removes the
    dominant linear mode of a slowly converging path: from its iterates
    x_(t-1), x_t and the new step x_(t+1), with
    rho = ||x_(t+1) - x_t|| / ||x_t - x_(t-1)|| in (0, 1), the jump is
    y = x_(t+1) + rho/(1 - rho) (x_(t+1) - x_t), normalized. The jumps are
    evaluated as one batch, and y replaces x_(t+1) only where
    phi(y) > phi(x_(t+1)), so no start's phi falls. A start stops once the
    tangential part of g is at most _GRAD_TOL * ||g||, or after _MAX_ITERS
    steps. Neither the step, the merge, the jump nor the stop sees the
    scale of the family, so B_p(cL) = |c|^p B_p(L). Every iterate is a unit
    vector, so the largest phi seen, which is returned, is a certified
    lower estimate of the true supremum. A nonzero family whose estimate
    leaves the normal floating-point range raises ``PairFrameError``.
    """
    p = float(p)
    if not math.isfinite(p) or p < 1.0:
        raise InvalidExponentError(f"exponent must satisfy p >= 1, got {p}")
    evals, evecs = np.linalg.eigh(frame_operator(family))
    if p == 2.0:
        best = float(evals[-1])
    else:
        rng = np.random.Generator(np.random.PCG64(_START_SEED))
        shape = (family.ambient_dim, _RANDOM_STARTS)
        starts = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        X = np.concatenate([evecs[:, -1:], starts], axis=1)
        best = _ascent(family, p, X / np.linalg.norm(X, axis=0))
    if not math.isfinite(best):
        raise PairFrameError(f"p-Bessel estimate overflows at p = {p}")
    if best < spectral._TINY and family.stacked.any():
        raise PairFrameError(f"p-Bessel estimate underflows at p = {p}")
    return best


class PqBoundReport(NamedTuple):
    """Operator norm next to the two forms of the Hoelder-type bound."""

    norm: float
    holder_bound: float
    paper_bound: float


def pq_pair_norm_bound(system: PairSystem, p: float, q: float) -> PqBoundReport:
    """Norm of S against the Hoelder bound from (p,q)-Bessel constants.

    With B and B' the :func:`p_bessel_bound` estimates for Gamma (p) and
    Lambda (q), both from the estimator's fixed starts, ``holder_bound`` is
    sup|m_i| * B^(1/p) * B'^(1/q), the form the Cauchy-Schwarz/Hoelder
    chain yields. It dominates norm(S) only for the exact constants, and
    these estimates are lower ones, so it is not a proven upper bound on
    norm(S).
    ``paper_bound`` is the square root of the same expression, reported for
    comparison; it may fall below norm(S).
    """
    p = float(p)
    q = float(q)
    if not (math.isfinite(p) and math.isfinite(q)) or p < 1.0 or q < 1.0:
        raise InvalidExponentError(f"exponents must satisfy p, q >= 1, got p={p}, q={q}")
    if abs(1.0 / p + 1.0 / q - 1.0) > 1e-12:
        raise ExponentMismatchError(f"1/p + 1/q = {1.0 / p + 1.0 / q!r}, expected 1")
    b_gamma = p_bessel_bound(system.gamma, p)
    b_lam = p_bessel_bound(system.lam, q)
    holder = system.m.sup_norm * b_gamma ** (1.0 / p) * b_lam ** (1.0 / q)
    return PqBoundReport(
        norm=spectral.op_norm(pair_operator(system)),
        holder_bound=holder,
        paper_bound=math.sqrt(holder),
    )
