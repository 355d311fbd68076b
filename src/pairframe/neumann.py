"""Near-identity detection and truncated Neumann-series inversion.

A square S admits Neumann inversion when some scalar alpha makes
norm(I - alpha*S) < 1; then alpha * sum_{n<=N} (I - alpha*S)^n converges to
S^-1 geometrically in N. This module finds a good alpha (closed form for
hermitian S, centre-of-gravity cuts on the convex residual
norm(I - alpha*S) for any other) and tracks the decay of the
approximate-identity error against the geometric bound. Every partial sum
comes from one Horner pass over N = 0, 1, 2, ...; an alpha*S or partial sum
that is not finite raises PairFrameError naming its N.
"""

from __future__ import annotations

import cmath
import itertools
import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import spectral
from .errors import PairFrameError
from .pairs import PairSystem, pair_operator

#: residual must clear 1 by this margin before the near-identity verdict;
#: keeps roundoff on provably-hopeless inputs (hermitian indefinite or
#: singular, where the true infimum is 1) from flipping the flag
NEAR_IDENTITY_GUARD = 1e-10

#: most centre-of-gravity cuts of the alpha search
ALPHA_CUTS = 80
#: the cuts stop once best residual - certified lower bound LB <= ALPHA_GAP * best + _ROUNDOFF
ALPHA_GAP = 1e-12
#: angles scored on the reporting ring when no scalar certifies
HOPELESS_RING = 64
#: largest order N or N_max: itertools.islice must count the N_max + 1 table rows
MAX_ORDER = sys.maxsize - 1

_EPS = float(np.finfo(np.float64).eps)
#: rounding allowed in a computed norm(I - b*S) for b in the search square,
#: where |b| norm(S) <= 2 sqrt(2); the certified lower bound is lowered by it
_ROUNDOFF = 16.0 * _EPS


@dataclass(frozen=True)
class NearIdentityReport:
    """Best scalar found and whether it certifies near-identity.

    ``is_positive_variant`` records the self-adjoint picture: S hermitian
    and the reported alpha real and positive. ``method`` says how alpha was
    reached ("closed form", "cuts" or "ring"), ``cuts`` how many cuts were
    made, and ``residual_gap`` how far ``residual`` can lie above the
    infimum of norm(I - alpha*S) over every complex alpha: the residual
    minus a certified lower bound on that infimum, floored at 0.
    """

    alpha: complex
    residual: float
    is_near_identity: bool
    is_positive_variant: bool
    method: str
    cuts: int
    residual_gap: float


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


def _check_alpha(alpha: complex) -> complex:
    """``alpha`` itself when it is finite; ValueError naming alpha otherwise."""
    if not cmath.isfinite(alpha):
        raise ValueError(f"alpha must be finite, got {alpha!r}")
    return alpha


def _check_order(N: int, name: str) -> int:
    """:func:`spectral._check_count` of ``N``, with MAX_ORDER as its top."""
    N = spectral._check_count(N, name)
    if N > MAX_ORDER:
        raise ValueError(f"{name} must be <= {MAX_ORDER}, got {N}")
    return N


def _step(s: np.ndarray, alpha: complex) -> np.ndarray:
    """I - alpha*S; a non-finite alpha or alpha*S leaves no partial sum and raises."""
    _check_alpha(alpha)
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = alpha * s
    if not np.isfinite(scaled).all():
        raise PairFrameError("alpha*S overflows at N=0; use a smaller alpha")
    return np.eye(s.shape[0], dtype=np.complex128) - scaled


def _clip(poly: list, a: complex, c: complex, depth: float) -> list:
    """The points b of a convex polygon (complex vertices) with Re((b - a) c) >= depth."""
    out = []
    for p, q in zip(poly, poly[1:] + poly[:1]):
        fp, fq = ((p - a) * c).real - depth, ((q - a) * c).real - depth
        if fp >= 0.0:
            out.append(p)
        if (fp >= 0.0) != (fq >= 0.0):
            out.append(p + (q - p) * (fp / (fp - fq)))
    return out


def _centroid(poly: list) -> complex | None:
    """Centroid of a counterclockwise polygon, or None once its area vanishes.
    Relative coordinates keep a tiny polygon's area from cancelling away."""
    if len(poly) < 3:
        return None
    p = np.array(poly) - poly[0]
    q = np.roll(p, -1)
    cross = (p.conj() * q).imag
    if cross.sum() <= 0.0:
        return None
    return poly[0] + complex(((p + q) * cross).sum() / (3.0 * cross.sum()))


def _cuts(s: np.ndarray, onorm: float) -> tuple[complex, float, float, int]:
    """Centre-of-gravity cuts on norm(I - alpha*S) from alpha = 0.

    Returns the best alpha, its residual estimate (at most the exact
    residual, and within roundoff of it), a certified lower bound on the
    infimum and the number of cuts made.
    """
    n = s.shape[0]
    r = 2.0 / onorm
    poly = [complex(r, r), complex(-r, r), complex(-r, -r), complex(r, -r)]
    best_alpha, best, lb = 0j, 1.0, 0.0
    minorants = np.empty((ALPHA_CUTS, 3), dtype=np.complex128)  # rows (a_j, sigma_j, c_j)
    cuts = 0
    while cuts < ALPHA_CUTS and (a := _centroid(poly)) is not None:
        step = _step(s, a)
        v = np.linalg.eigh(step.conj().T @ step)[1][:, -1]
        av = step @ v
        sigma = float(np.linalg.norm(av))
        cuts += 1
        if sigma == 0.0:  # a*S = I: the minimum 0 is attained
            return a, 0.0, 0.0, cuts
        # u = Av/sigma is a unit vector, so for every b
        # norm(I - b*S) >= Re(u^H (I - b*S) v) = sigma - Re((b - a) c)
        c = complex(av.conj() @ (s @ v)) / sigma
        minorants[cuts - 1] = a, sigma, c
        if sigma < best:
            best_alpha, best = a, sigma
        # deep cut: a minimizer b has sigma - Re((b - a) c) <= norm(I - b*S)
        # <= best, up to roundoff in I - a*S and in the estimate
        pad = 4.0 * n * _EPS * (1.0 + abs(a) * onorm)
        poly = _clip(poly, a, c, sigma - best - pad)
        if poly:
            # P still holds the minimizers, so each minorant's least value
            # on P (at a vertex) bounds the infimum from below
            aj, sj, cj = minorants[:cuts].T
            low = sj.real[:, None] - ((np.array(poly) - aj[:, None]) * cj[:, None]).real
            lb = max(lb, float(low.min(axis=1).max()) - _ROUNDOFF)
        if best - lb <= ALPHA_GAP * best + _ROUNDOFF or lb >= 1.0 - NEAR_IDENTITY_GUARD:
            break
    return best_alpha, best, lb, cuts


def find_alpha(S) -> NearIdentityReport:
    """Scalar alpha minimizing norm(I - alpha*S), with verdicts.

    S is hermitian when norm_F(S - S^H) <= HERMITIAN_TOL * norm(S), as in
    the numerical-range bracket. Hermitian definite S gets the classical optimum
    alpha = 2/(lambda_min + lambda_max) in closed form, the minimum over
    every complex alpha; any other hermitian S has 0 in its numerical range,
    so no alpha brings the residual below 1. A hermitian S whose closed form
    does not clear 1 - NEAR_IDENTITY_GUARD (a singular S whose lambda_min
    rounds above 0, say) therefore goes straight to the report below.

    A non-hermitian search starts from alpha = 0, where the residual is
    exactly 1, and makes up to ALPHA_CUTS centre-of-gravity cuts:
    norm(I - alpha*S) is convex in alpha and its minimizers lie in
    |alpha| <= 2/norm(S). At the centroid a of the polygon P still holding
    them, the top eigenvector v of A^H A, A = I - a*S (one ``eigh``), and
    u = Av/norm(Av) give the minorant l(b) = Re(u^H (I - b*S) v) of the
    residual, exact for any unit v. The cut is deep: it keeps the b with
    l(b) <= best residual plus a roundoff pad, which still holds every
    minimizer. The largest least value of any l_j over the vertices of P,
    less a rounding allowance, is a certified lower bound LB on the
    infimum. The cuts stop once best - LB <= ALPHA_GAP * best + _ROUNDOFF
    (the absolute floor ends a search whose infimum is 0), or once
    LB >= 1 - NEAR_IDENTITY_GUARD, which fixes the verdict as no. The best
    alpha is rescored by one exact SVD. Some alpha has
    norm(I - alpha*S) < 1 exactly when 0 is not in the numerical range.

    If the best residual does not clear 1 - NEAR_IDENTITY_GUARD, the verdict
    is no, and by convention the report holds the best of HOPELESS_RING
    points on the ring |alpha| = 1/(10 norm(S)), each scored by an exact
    SVD, the first on a tie. S = 0 yields alpha = 0 and residual 1. All of
    this runs on S scaled exactly by a power of two to norm in [0.5, 1); a
    nonzero S whose norm is below the normal range raises ``PairFrameError``.

    ``residual_gap`` is the residual minus the certified lower bound: LB on
    the cut path, 1 for a hermitian S that is not definite, and for
    hermitian definite S the optimum (lmax - lmin)/|lmax + lmin| of its
    hermitian part less norm_F(S - S^H)/norm(S) and the rounding allowance:
    any alpha with residual <= 1 has |alpha| <= 2/norm(S), and the skew part
    (S - S^H)/2 has norm at most norm_F(S - S^H)/2, so it moves the residual
    by at most that much.
    """
    s = spectral._square_matrix(S)
    onorm = spectral.op_norm(s)
    if onorm == 0.0:
        return NearIdentityReport(
            alpha=0j, residual=1.0, is_near_identity=False, is_positive_variant=False,
            method="closed form", cuts=0, residual_gap=0.0,
        )

    scale = spectral._unit_scale(onorm)
    s, onorm = s * scale, onorm * scale

    # a hermitian S that is not definite has 0 in W(S): the infimum is 1
    best_alpha, best_res, lb, cuts, method = 0j, 1.0, 1.0, 0, "closed form"
    skew, hermitian = spectral._hermitian_skew(s, onorm)
    if hermitian:
        w = np.linalg.eigvalsh(0.5 * (s + s.conj().T))
        lmin, lmax = float(w[0]), float(w[-1])
        if lmin > 0.0 or lmax < 0.0:
            alpha = 2.0 / (lmin + lmax)
            best_alpha, best_res = complex(alpha), spectral.op_norm(_step(s, alpha))
            lb = max(0.0, (lmax - lmin) / abs(lmax + lmin) - skew / onorm - _ROUNDOFF)
    else:
        method = "cuts"
        best_alpha, best_res, lb, cuts = _cuts(s, onorm)
        if best_res < 1.0 - NEAR_IDENTITY_GUARD:
            best_res = spectral.op_norm(_step(s, best_alpha))
    if best_res >= 1.0 - NEAR_IDENTITY_GUARD:
        method = "ring"
        angles = np.linspace(0.0, 2.0 * math.pi, HOPELESS_RING, endpoint=False)
        ring = (1.0 / (10.0 * onorm)) * np.exp(1j * angles)
        residuals = [spectral.op_norm(_step(s, complex(a))) for a in ring]
        k = int(np.argmin(residuals))
        best_alpha, best_res = complex(ring[k]), residuals[k]

    positive = hermitian and abs(best_alpha.imag) <= 1e-12 * abs(best_alpha) and best_alpha.real > 0
    return NearIdentityReport(
        alpha=best_alpha * scale,
        residual=best_res,
        is_near_identity=best_res < 1.0 - NEAR_IDENTITY_GUARD,
        is_positive_variant=positive,
        method=method,
        cuts=cuts,
        residual_gap=max(0.0, best_res - lb),
    )


def _partial_sums(r: np.ndarray, alpha: complex):
    """Yield (S^-1)_N for N = 0, 1, 2, ... from r = I - alpha*S by the Horner
    step acc <- alpha*I + r @ acc, one product each; a sum that is not finite
    raises, naming its N."""
    eye = np.eye(r.shape[0], dtype=np.complex128)
    acc = alpha * eye
    for n in itertools.count():
        if not np.isfinite(acc).all():
            raise PairFrameError(f"Neumann partial sum overflows at N={n}; use a smaller alpha or N")
        yield acc
        with np.errstate(over="ignore", invalid="ignore"):
            acc = alpha * eye + r @ acc


def _relative_error(approx: np.ndarray, f: np.ndarray) -> float:
    """norm(approx - f) / norm(f); f = 0 reports error 0 by convention."""
    fnorm = float(np.linalg.norm(f))
    return float(np.linalg.norm(approx - f)) / fnorm if fnorm > 0.0 else 0.0


def neumann_inverse(S, alpha: complex, N: int) -> np.ndarray:
    """Partial sum alpha * sum_{n=0}^{N} (I - alpha*S)^n by Horner iteration.

    Uses N matrix multiplications and no power table; with
    norm(I - alpha*S) < 1 it converges to S^-1 as N grows. N must be an
    integer in [0, MAX_ORDER]. An overflow raises.
    """
    s = spectral._square_matrix(S)
    N = _check_order(N, "N")
    return next(itertools.islice(_partial_sums(_step(s, alpha), alpha), N, None))


def _trace(s: np.ndarray, alpha: complex, N_max: int, f=None) -> tuple[NeumannTrace, list]:
    """:func:`neumann_trace` of a square matrix and, given a signal f, the
    relative error of (S^-1)_N S f at each row, all from one pass."""
    r = _step(s, alpha)
    residual = spectral.op_norm(r)
    eye = np.eye(s.shape[0], dtype=np.complex128)
    r_pow = eye
    sf = None if f is None else s @ f
    entries, rel_errors = [], []
    for n, acc in enumerate(itertools.islice(_partial_sums(r, alpha), N_max + 1)):
        # an overflow is reported below as an error naming its row
        with np.errstate(over="ignore", invalid="ignore"):
            r_pow = r_pow @ r  # (I - alpha*S)^(n+1)
            defect = eye - acc @ s
        try:
            bound = residual ** (n + 1)
        except OverflowError:
            bound = math.inf
        if not (np.isfinite(r_pow).all() and np.isfinite(defect).all()) or bound == math.inf:
            raise PairFrameError(
                f"Neumann table overflows at N={n}: (I - alpha*S)^{n + 1}, the defect "
                "or its norm bound is not finite; use a smaller alpha or N"
            )
        gap = spectral.op_norm(defect - r_pow)
        if gap > 1e-10 * max(1.0, spectral.op_norm(r_pow)):
            raise PairFrameError(
                f"partial-sum telescoping identity violated at N={n}: gap {gap:.3e}"
            )
        entries.append(TraceEntry(N=n, error=spectral.op_norm(defect), bound=bound))
        if f is not None:
            rel_errors.append(_relative_error(acc @ sf, f))
    return NeumannTrace(alpha=complex(alpha), residual=residual, entries=tuple(entries)), rel_errors


def neumann_trace(S, alpha: complex, N_max: int) -> NeumannTrace:
    """Decay table of norm(I - (S^-1)_N S) for N = 0..N_max.

    All rows come from one Horner pass, so row N costs one product, not N.
    Each row is checked against the telescoped form
    I - (S^-1)_N S = (I - alpha*S)^(N+1); disagreement beyond roundoff means
    a broken partial-sum evaluation and raises. So does a row with a term
    (partial sum, power, defect or bound residual^(N+1)) that is not finite.
    N_max must be an integer in [0, MAX_ORDER], and alpha finite.
    """
    s = spectral._square_matrix(S)
    return _trace(s, alpha, _check_order(N_max, "N_max"))[0]


def reconstruct(system: PairSystem, alpha: complex, N: int, f) -> tuple[np.ndarray, float]:
    """Approximate f by (S^-1)_N S f for the system's pair operator.

    Returns the approximation and its relative error, which obeys the same
    geometric bound residual^(N+1) as the operator defect; f = 0 reports
    error 0 by convention. An f of the wrong length raises
    ``DimensionMismatchError``, a non-finite entry ``ValueError``.
    """
    f = spectral._vector(f, system.ambient_dim, "signal")
    s = pair_operator(system)
    approx = neumann_inverse(s, alpha, N) @ (s @ f)
    return approx, _relative_error(approx, f)
