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

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import spectral
from .errors import DimensionMismatchError, PairFrameError
from .pairs import PairSystem, pair_operator

#: residual must clear 1 by this margin before the near-identity verdict;
#: keeps roundoff on provably-hopeless inputs (hermitian indefinite or
#: singular, where the true infimum is 1) from flipping the flag
NEAR_IDENTITY_GUARD = 1e-10

#: most centre-of-gravity cuts of the alpha search
ALPHA_CUTS = 80
#: angles scored on the reporting ring when no scalar certifies
HOPELESS_RING = 64


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


def _step(s: np.ndarray, alpha: complex) -> np.ndarray:
    """I - alpha*S; an alpha*S that is not finite leaves no partial sum and raises."""
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = alpha * s
    if not np.isfinite(scaled).all():
        raise PairFrameError("alpha*S overflows at N=0; use a smaller alpha")
    return np.eye(s.shape[0], dtype=np.complex128) - scaled


def _clip(poly: list, a: complex, c: complex) -> list:
    """The points b of a convex polygon (complex vertices) with Re((b - a) c) >= 0."""
    out = []
    for p, q in zip(poly, poly[1:] + poly[:1]):
        fp, fq = ((p - a) * c).real, ((q - a) * c).real
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


def find_alpha(S) -> NearIdentityReport:
    """Scalar alpha minimizing norm(I - alpha*S), with verdicts.

    Hermitian definite S gets the classical optimum
    alpha = 2/(lambda_min + lambda_max) in closed form, the minimum over
    every complex alpha; any other hermitian S has 0 in its numerical range,
    so no alpha brings the residual below 1. A hermitian S whose closed form
    does not clear 1 - NEAR_IDENTITY_GUARD (a singular S whose lambda_min
    rounds above 0, say) therefore goes straight to the report below. A
    non-hermitian search starts from alpha = 0, where the residual is
    exactly 1, and makes up to ALPHA_CUTS centre-of-gravity cuts:
    norm(I - alpha*S) is convex in alpha, its minimizers lie in
    |alpha| <= 2/norm(S), and the top singular pair at the centroid of the
    region still holding them gives a half plane that keeps them while
    removing at least 4/9 of the area. Some alpha has
    norm(I - alpha*S) < 1 exactly when 0 is not in the numerical range.

    If the best residual does not clear 1 - NEAR_IDENTITY_GUARD, the verdict
    is no, and by convention the report holds the best of HOPELESS_RING
    points on the ring |alpha| = 1/(10 norm(S)), each scored by an exact
    SVD, the first on a tie. S = 0 yields alpha = 0 and residual 1.
    """
    s = spectral._square_matrix(S)
    onorm = spectral.op_norm(s)
    if onorm == 0.0:
        return NearIdentityReport(
            alpha=0j, residual=1.0, is_near_identity=False, is_positive_variant=False
        )

    sh = s.conj().T
    best_alpha, best_res = 0j, 1.0
    hermitian = spectral.op_norm(s - sh) <= spectral.HERMITIAN_TOL * onorm
    if hermitian:
        w = np.linalg.eigvalsh(0.5 * (s + sh))
        lmin, lmax = float(w[0]), float(w[-1])
        if lmin > 0.0 or lmax < 0.0:
            alpha = 2.0 / (lmin + lmax)
            best_alpha, best_res = complex(alpha), spectral.op_norm(_step(s, alpha))
    else:
        r = 2.0 / onorm
        poly = [complex(r, r), complex(-r, r), complex(-r, -r), complex(r, -r)]
        for _ in range(ALPHA_CUTS):
            a = _centroid(poly)
            if a is None:
                break
            u, sv, vh = np.linalg.svd(_step(s, a))
            if sv[0] < best_res:
                best_alpha, best_res = a, float(sv[0])
            # norm(I - b*S) >= Re(u^H (I - b*S) v) = sv[0] - Re((b - a) c)
            c = complex(u[:, 0].conj() @ s @ vh[0].conj())
            poly = _clip(poly, a, c)
    if best_res >= 1.0 - NEAR_IDENTITY_GUARD:
        angles = np.linspace(0.0, 2.0 * math.pi, HOPELESS_RING, endpoint=False)
        ring = (1.0 / (10.0 * onorm)) * np.exp(1j * angles)
        residuals = [spectral.op_norm(_step(s, complex(a))) for a in ring]
        k = int(np.argmin(residuals))
        best_alpha, best_res = complex(ring[k]), residuals[k]

    positive = hermitian and abs(best_alpha.imag) <= 1e-12 * abs(best_alpha) and best_alpha.real > 0
    return NearIdentityReport(
        alpha=best_alpha,
        residual=best_res,
        is_near_identity=best_res < 1.0 - NEAR_IDENTITY_GUARD,
        is_positive_variant=positive,
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
    norm(I - alpha*S) < 1 it converges to S^-1 as N grows. An overflow raises.
    """
    s = spectral._square_matrix(S)
    if N < 0:
        raise ValueError("N must be >= 0")
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
    """
    s = spectral._square_matrix(S)
    if N_max < 0:
        raise ValueError("N_max must be >= 0")
    return _trace(s, alpha, N_max)[0]


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
    return approx, _relative_error(approx, f)
