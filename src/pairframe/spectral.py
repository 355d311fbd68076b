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
import operator
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatchError, NonSquareError, PairFrameError

#: default relative tolerance for accepting a matrix as hermitian
HERMITIAN_TOL = 1e-10
#: grid size (even) and golden-section iterations of the numerical-range
#: sweep that hermitian matrices take
THETA_STEPS = 720
REFINE_ITERS = 30

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_TINY = float(np.finfo(np.float64).tiny)  # the smallest normal float
#: eigen-solves of one sweep
_SWEEP_SOLVES = THETA_STEPS // 2 + 4 * REFINE_ITERS
#: the bracket's width target relative to norm(M), before the n*eps pad
_BRACKET_WIDTH = 1e-13
#: equally spaced starting angles of the bracket over [0, pi), and its solve cap
_BRACKET_START = 16
_BRACKET_MAX_SOLVES = 192


def as_matrix(a) -> np.ndarray:
    """Coerce to a 2-D complex128 array and reject non-finite entries."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={m.ndim}")
    if m.size and not np.isfinite(m).all():
        raise ValueError("matrix has non-finite entries")
    return m


def _vector(v, length: int, name: str) -> np.ndarray:
    """The 1-D twin of :func:`as_matrix`: ``v`` as a complex128 vector of
    ``length`` entries, DimensionMismatchError naming ``name`` for any other
    shape and ValueError for a non-finite entry."""
    f = np.asarray(v, dtype=np.complex128)
    if f.shape != (length,):
        raise DimensionMismatchError(f"expected a {name} of length {length}, got shape {f.shape}")
    if not np.isfinite(f).all():
        raise ValueError(f"{name} has non-finite entries")
    return f


def _square_matrix(a) -> np.ndarray:
    """:func:`as_matrix`, then reject a matrix that is not square."""
    m = as_matrix(a)
    if m.shape[0] != m.shape[1]:
        raise NonSquareError(f"expected a square matrix, got shape {m.shape}")
    return m


def op_norm(M) -> float:
    """Operator (spectral) norm, the largest singular value."""
    m = as_matrix(M)
    if m.size == 0:
        return 0.0
    return float(np.linalg.svd(m, compute_uv=False)[0])


def _check_count(value, name: str, least: int = 0) -> int:
    """``value`` as an int when it is an integer >= ``least``; a TypeError
    or ValueError naming ``name`` otherwise."""
    try:
        count = operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None
    if count < least:
        raise ValueError(f"{name} must be >= {least}, got {count}")
    return count


def _product(name: str, a: np.ndarray, b: np.ndarray, scale=None) -> np.ndarray:
    """(a * scale) @ b, or a @ b without ``scale``. ``PairFrameError`` names
    the operator if an entry overflows or all nonzero entries are subnormal."""
    with np.errstate(over="ignore", invalid="ignore"):
        out = (a if scale is None else a * scale) @ b
    if not np.isfinite(out).all():
        raise PairFrameError(f"{name} overflows: its entries exceed the floating-point range")
    top = float(np.abs(out).max(initial=0.0))
    if 0.0 < top < _TINY:
        raise PairFrameError(f"{name} underflows: its largest entry {top:.3e} is subnormal")
    return out


def _unit_scale(norm: float) -> float:
    """The power of two that brings ``norm`` into [0.5, 1), exact to scale
    by; a nonzero norm below the normal range raises ``PairFrameError``."""
    if 0.0 < norm < _TINY:
        raise PairFrameError(f"matrix underflows: its norm {norm:.3e} is below the normal range")
    return 2.0 ** -math.frexp(norm)[1]


def _hermitian_skew(m: np.ndarray, norm: float) -> tuple[float, bool]:
    """(norm_F(M - M^H), whether it is at most HERMITIAN_TOL * norm): the one
    hermitian test; norm_F bounds norm(M - M^H), so it is the stricter."""
    skew = float(np.linalg.norm(m - m.conj().T))
    return skew, skew <= HERMITIAN_TOL * norm


def _rotated(m: np.ndarray, mh: np.ndarray, theta: float) -> np.ndarray:
    """Re(e^{i theta} M) = (e^{i theta} M + e^{-i theta} M^H)/2."""
    phase = np.exp(1j * theta)
    return 0.5 * (phase * m + np.conj(phase) * mh)


def _rotated_eigvalsh(m: np.ndarray, mh: np.ndarray, theta: float) -> np.ndarray:
    """Ascending eigenvalues of Re(e^{i theta} M)."""
    return np.linalg.eigvalsh(_rotated(m, mh, theta))


class NumericalRangeBracket(NamedTuple):
    """Brackets of the distance of the numerical range W(M) from the origin
    and of the numerical radius, each sound up to a roundoff of about
    n * eps * norm(M), and the number of eigen-solves spent on them."""

    dist_lo: float
    dist_hi: float
    radius_lo: float
    radius_hi: float
    solves: int

    @property
    def gap(self) -> float:
        """The wider of the two bracket widths."""
        return max(self.dist_hi - self.dist_lo, self.radius_hi - self.radius_lo)


def numerical_range_bounds(M) -> tuple[float, float]:
    """Distance of the numerical range from the origin and numerical radius:
    the lower ends of :func:`numerical_range_bracket`."""
    b = numerical_range_bracket(M)
    return b.dist_lo, b.radius_lo


def numerical_range_bracket(M) -> NumericalRangeBracket:
    """Brackets of the distance of W(M) from the origin and of its radius.

    Both are extremes of the support function
    h(phi) = lambda_max(Re(e^{i phi} M)): the radius is max h, and the
    distance is max(0, -min h). A nearly hermitian M, one with
    norm_F(M - M^H) <= HERMITIAN_TOL * norm(M), takes the fixed sweep of
    :func:`_sweep`, and W(M) lies within norm_F(M - M^H)/2 of the segment
    W((M + M^H)/2) that the sweep reads exactly, so each bracket is the
    sweep value widened by that much. Any other M takes the adaptive
    bracket of :class:`_Support`, refined until both widths are at most
    1e-13 * norm(M) plus an n * eps pad, or until _BRACKET_MAX_SOLVES
    solves (a boundary arc centred on the origin, as for a Jordan block,
    can only be bracketed to the wedge factor 1/cos(dphi/2) at that cap).
    Both run on M scaled exactly by a power of two to norm in [0.5, 1); a
    nonzero M whose norm is below the normal range raises ``PairFrameError``.
    """
    m = _square_matrix(M)
    return _numerical_range_bracket(m, op_norm(m))


def _numerical_range_bracket(m: np.ndarray, norm: float) -> NumericalRangeBracket:
    """:func:`numerical_range_bracket` of a square matrix of known norm."""
    n = m.shape[0]
    if n == 0:
        return NumericalRangeBracket(0.0, 0.0, 0.0, 0.0, 0)
    scale = _unit_scale(norm)
    m, norm = m * scale, norm * scale
    mh = m.conj().T
    skew, hermitian = _hermitian_skew(m, norm)
    if hermitian:
        dist, radius = _sweep(m, mh)
        pad = 0.5 * skew
        ends = dist, dist + pad, radius, radius + pad
        return NumericalRangeBracket(*(end / scale for end in ends), _SWEEP_SOLVES)

    target = (_BRACKET_WIDTH + n * np.finfo(float).eps) * norm
    support = _Support(m, mh)
    for theta in np.arange(_BRACKET_START) * (math.pi / _BRACKET_START):
        support.add(theta)
    prefer_chord = False
    while support.solves < _BRACKET_MAX_SOLVES:
        support.refresh()
        r_lo, r_hi, bisect_at = support.radius()
        if r_hi - r_lo > target:
            if support.add(bisect_at) is None:
                break
            continue
        d_lo, d_hi, secant_at, slope_ref, chord_at = support.distance()
        if d_hi - d_lo <= target:
            break
        if secant_at is None or prefer_chord:
            slope, prefer_chord = support.add(chord_at), False
        else:
            slope = support.add(secant_at)
            # a secant that does not halve |h'| has met a corner of h (a
            # flat edge of W); the chord step lands on it
            prefer_chord = slope is not None and abs(slope) > 0.5 * slope_ref
        if slope is None:
            break
    support.refresh()
    r_lo, r_hi, _ = support.radius()
    d_lo, d_hi = support.distance()[:2]
    ends = d_lo, max(d_hi, d_lo), r_lo, max(r_hi, r_lo)
    return NumericalRangeBracket(*(end / scale for end in ends), support.solves)


class _Support:
    """Support data of W(M) at a growing set of angles phi in [0, 2 pi).

    At each angle, h = lambda_max(Re(e^{i phi} M)) and z = v^H M v for the
    top unit eigenvector v: a point of W(M) on the support line
    Re(e^{i phi} z) = h (Johnson's boundary point), with
    h'(phi) = -Im(e^{i phi} z). One ``eigh`` at theta in [0, pi) gives both
    theta and theta + pi: Re(e^{i(theta + pi)} M) is -Re(e^{i theta} M), so
    its bottom eigenpair gives h(theta + pi) and that point.
    """

    def __init__(self, m: np.ndarray, mh: np.ndarray):
        self.m, self.mh = m, mh
        self.solves = 0
        # unsorted, two entries per solve; refresh() sorts them by angle
        self._phi = np.empty(2 * _BRACKET_MAX_SOLVES)
        self._h = np.empty(2 * _BRACKET_MAX_SOLVES)
        self._z = np.empty(2 * _BRACKET_MAX_SOLVES, dtype=np.complex128)

    def add(self, phi: float) -> float | None:
        """Solve at phi mod pi and return h'(phi); None, with no solve, when
        that angle is already known."""
        theta = phi % math.pi
        k = 2 * self.solves
        if k and np.abs(self._phi[:k] - theta).min() <= 1e-15:
            return None
        w, v = np.linalg.eigh(_rotated(self.m, self.mh, theta))
        ends = v[:, [-1, 0]]
        z = np.einsum("ij,ij->j", ends.conj(), self.m @ ends)
        self._phi[k : k + 2] = theta, theta + math.pi
        self._h[k : k + 2] = w[-1], -w[0]
        self._z[k : k + 2] = z
        self.solves += 1
        new = z[0] if phi % (2.0 * math.pi) < math.pi else z[1]
        return -float((np.exp(1j * phi) * new).imag)

    def refresh(self) -> None:
        """Sort the data by angle into phi, h and z, with dphi the angle from
        each phi to the next around the circle."""
        k = 2 * self.solves
        order = np.argsort(self._phi[:k])
        self.phi, self.h, self.z = self._phi[order], self._h[order], self._z[order]
        self.dphi = np.empty(k)
        self.dphi[:-1] = self.phi[1:] - self.phi[:-1]
        self.dphi[-1] = self.phi[0] + 2.0 * math.pi - self.phi[-1]

    def radius(self) -> tuple[float, float, float]:
        """(lower, upper, angle to solve next) for the numerical radius.

        Every |z| is at most the radius. A point of W(M) in the direction of
        the wedge between neighbouring angles phi_k and phi_k+1 is within
        dphi_k/2 of one of its support lines, so its modulus is at most
        max(h_k, h_k+1)/cos(dphi_k/2); the worst wedge is bisected next.
        """
        dphi = self.dphi
        wedge = np.maximum(self.h, np.concatenate((self.h[1:], self.h[:1]))) / np.cos(0.5 * dphi)
        k = int(np.argmax(wedge))
        return float(np.abs(self.z).max()), float(wedge[k]), self.phi[k] + 0.5 * dphi[k]

    def distance(self) -> tuple:
        """(lower, upper, secant angle, |h'| at its ends, chord angle) for
        the distance of W(M) from the origin.

        Each -h bounds the distance from below. The polygon through the
        points z, in angle order, lies in W(M), so its distance from the
        origin bounds the distance from above; it is 0 once the polygon
        winds around the origin. The secant angle is the zero of h' by
        linear interpolation between the neighbouring angles around the
        least h, when h' changes sign there and that h is negative (the
        origin is then outside W(M)); otherwise it is None.
        The chord angle is the normal of the polygon edge nearest the
        origin, which is exact when that edge lies on a flat edge of W(M).
        """
        phi, h, z, dphi = self.phi, self.h, self.z, self.dphi
        lower = max(0.0, -float(h.min()))
        z_next = np.concatenate((z[1:], z[:1]))
        edge = z_next - z
        len2 = edge.real**2 + edge.imag**2
        t = np.divide(-(edge.conj() * z).real, len2, out=np.zeros_like(len2), where=len2 > 0.0)
        near = np.abs(z + np.clip(t, 0.0, 1.0) * edge)
        k = int(np.argmin(near))
        winding = float(np.angle(z_next * z.conj()).sum())
        upper = 0.0 if abs(winding) > math.pi else float(near[k])

        chord_at = phi[k] + 0.5 * dphi[k]
        if len2[k] > 0.0:
            off = (0.5 * math.pi - float(np.angle(edge[k])) - phi[k]) % math.pi
            if 0.0 < off < dphi[k]:
                chord_at = phi[k] + off
        j = int(np.argmin(h))
        slope = -(np.exp(1j * phi) * z).imag
        a = j if slope[j] < 0.0 else (j - 1) % len(phi)
        b = (a + 1) % len(phi)
        secant_at = None
        if h[j] < 0.0 and slope[a] < 0.0 < slope[b]:
            secant_at = phi[a] + slope[a] / (slope[a] - slope[b]) * dphi[a]
        return lower, upper, secant_at, min(-slope[a], slope[b]), chord_at


def _sweep(m: np.ndarray, mh: np.ndarray) -> tuple[float, float]:
    """(distance, radius) of W(M) from a fixed sweep of the support function.

    The radius is max h, and the distance is max(0, lower), where
    lower = -min h is the largest lambda_min(Re(e^{i theta} M)); a positive
    lower puts the numerical range in a half plane at that distance from
    the origin, otherwise 0 lies in it. Since Re(e^{i(theta + pi)} M) is
    -Re(e^{i theta} M), one eigvalsh at theta also gives
    h(theta + pi) = -lambda_min, so THETA_STEPS/2 solves over [0, pi) fill a
    THETA_STEPS-point grid of the full circle, one n x n matrix at a time.
    The grid holds theta = 0 and pi, where a hermitian M attains both
    constants; for any other M the sweep is exact up to grid resolution, and
    a golden-section pass around the best grid angle tightens each value,
    keeping the best seen so far.
    """
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
