import math
import tracemalloc

import numpy as np
import pytest
from conftest import SCALE_EXPONENTS, complex_noise, rng_for, scale_matrices
from numpy.testing import assert_allclose
from oracle import brute_numerical_range

from pairframe import PairFrameError, numerical_range_bounds, numerical_range_bracket, op_norm, spectral

EPS = np.finfo(float).eps


def test_op_norm_values():
    assert op_norm(np.zeros((0, 0))) == 0.0
    assert_allclose(op_norm(np.diag([1.0, -4.0])), 4.0)


def test_numerical_range_identity():
    dist, radius = numerical_range_bounds(np.eye(3, dtype=complex))
    assert_allclose([dist, radius], [1.0, 1.0], atol=1e-12)


def test_numerical_range_hermitian_psd_matches_spectrum():
    # for hermitian M the numerical range is [lambda_min, lambda_max]
    rng = rng_for(2)
    a = complex_noise(rng, (4, 4))
    h = a @ a.conj().T + 0.3 * np.eye(4)
    w = np.linalg.eigvalsh(h)
    dist, radius = numerical_range_bounds(h)
    assert_allclose(dist, w[0], rtol=1e-10)
    assert_allclose(radius, w[-1], rtol=1e-10)


def test_numerical_range_swap_straddles_origin():
    swap = np.array([[0, 1], [1, 0]], dtype=complex)
    dist, radius = numerical_range_bounds(swap)
    assert dist == 0.0
    assert_allclose(radius, 1.0, atol=1e-12)


def test_numerical_range_nilpotent():
    # W([[0,1],[0,0]]) is the disk of radius 1/2 centered at 0
    n = np.array([[0, 1], [0, 0]], dtype=complex)
    dist, radius = numerical_range_bounds(n)
    assert dist == 0.0
    assert_allclose(radius, 0.5, atol=1e-10)


@pytest.mark.parametrize("seed,n", [(3, 3), (4, 2), (5, 6)])
def test_numerical_range_contains_sampled_quadratic_forms(seed, n):
    rng = rng_for(seed)
    m = complex_noise(rng, (n, n))
    dist, radius = numerical_range_bounds(m)
    vecs = complex_noise(rng, (10_000, n))
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    vals = np.abs(np.einsum("ij,jk,ik->i", vecs.conj(), m, vecs))
    assert vals.min() >= dist - 1e-6
    assert vals.max() <= radius + 1e-6


@pytest.mark.parametrize("seed", range(12))
def test_numerical_range_dominates_full_circle_grid(seed):
    """Both constants are at least the extremes of a full-circle 720-angle
    eigvalsh grid, and the radius stays within the operator norm."""
    rng = rng_for(900 + seed)
    n = int(rng.integers(2, 41))
    a = complex_noise(rng, (n, n))
    m = (a, a + a.conj().T, a @ a.conj().T)[seed % 3]
    dist, radius = numerical_range_bounds(m)
    mh = m.conj().T
    w = np.array(
        [
            np.linalg.eigvalsh(0.5 * (np.exp(1j * t) * m + np.exp(-1j * t) * mh))[[0, -1]]
            for t in np.linspace(0.0, 2.0 * np.pi, 720, endpoint=False)
        ]
    )
    norm = op_norm(m)
    tol = 1e-12 * norm
    assert dist >= max(0.0, w[:, 0].max()) - tol
    assert radius >= w[:, 1].max() - tol
    assert radius <= norm + tol


def test_numerical_range_memory_is_one_matrix_at_a_time():
    """The bracket holds one n x n matrix at a time, not a stack of
    rotations (about 67 MB at n=64)."""
    m = complex_noise(rng_for(64), (64, 64))
    tracemalloc.start()
    try:
        numerical_range_bounds(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6


def test_rejects_nonfinite():
    with pytest.raises(ValueError):
        op_norm(np.array([[np.nan, 0], [0, 1]]))
    with pytest.raises(ValueError):
        numerical_range_bounds(np.array([[np.inf]]))


def _grid_support(m: np.ndarray) -> np.ndarray:
    """h(t) = lambda_max(Re(e^{i t} M)) on the 720-angle full-circle grid,
    from 360 eigvalsh over [0, pi): h(t + pi) = -lambda_min(Re(e^{i t} M))."""
    mh = m.conj().T
    w = np.array(
        [
            np.linalg.eigvalsh(0.5 * (np.exp(1j * t) * m + np.exp(-1j * t) * mh))[[0, -1]]
            for t in np.linspace(0.0, np.pi, 360, endpoint=False)
        ]
    )
    return np.concatenate((w[:, 1], -w[:, 0]))


def _skewed(rng, n: int, rel: float) -> np.ndarray:
    """A random hermitian matrix plus a skew-hermitian part of spectral norm
    ``rel`` times its own."""
    a = complex_noise(rng, (n, n))
    h = a + a.conj().T
    k = complex_noise(rng, (n, n))
    k = k - k.conj().T
    return h + rel * op_norm(h) / op_norm(k) * k


def _boundary_shift(m: np.ndarray) -> np.ndarray:
    """M - z I for a boundary point z of W(M): 0 on the boundary."""
    w, v = np.linalg.eigh(0.5 * (np.exp(0.3j) * m + np.exp(-0.3j) * m.conj().T))
    z = np.vdot(v[:, -1], m @ v[:, -1])
    return m - z * np.eye(len(m))


def _bracket_corpus() -> list:
    """(name, M) for non-hermitian M with n from 1 to 64: general, normal,
    near a rotated identity, nilpotent, centred (0 inside W(M)), 0 on the
    boundary, and skew parts just above HERMITIAN_TOL."""
    cases = [
        ("diag-edge", np.diag([1.0, 0.8j, 0.5 + 0.5j])),
        ("boundary-vertex", np.diag([0.0, 1.0, 1j])),
        ("boundary-edge", np.diag([-1.0, 1.0, 1j])),
    ]
    for n in (1, 2, 3, 5, 8, 17, 32, 64):
        rng = rng_for(5000 + n)
        a = complex_noise(rng, (n, n))
        q, _ = np.linalg.qr(complex_noise(rng, (n, n)))
        cases += [
            (f"general-{n}", a),
            (f"normal-{n}", (q * complex_noise(rng, n)) @ q.conj().T),
            (f"rotated-identity-{n}", np.exp(0.7j) * (np.eye(n) + 0.3 * complex_noise(rng, (n, n)) / math.sqrt(n))),
            (f"skew-1e-9-{n}", _skewed(rng, n, 1e-9)),
            (f"skew-1e-8-{n}", _skewed(rng, n, 1e-8)),
        ]
        if n >= 3:  # a 2 x 2 nilpotent matrix has a disk about 0 for W(M)
            cases += [
                (f"nilpotent-{n}", np.triu(complex_noise(rng, (n, n)), 1)),
            ]
        if n >= 2:
            cases += [
                (f"centred-{n}", a - np.trace(a) / n * np.eye(n)),
                (f"boundary-{n}", _boundary_shift(a)),
            ]
    return cases


BRACKET_CORPUS = _bracket_corpus()


@pytest.mark.parametrize("name,m", BRACKET_CORPUS, ids=[c[0] for c in BRACKET_CORPUS])
def test_numerical_range_bracket_is_sound_and_tight(name, m):
    """Each bracket holds the 720-angle grid values and, for n <= 3, the
    brute-force oracle; sampled |<Mf, f>| lie in [dist_lo, radius_hi]; both
    widths are at most 1e-13 * norm(M) plus the n * eps pad. All up to a
    roundoff pad of 8 n eps norm(M)."""
    n = len(m)
    norm = op_norm(m)
    pad = 8 * n * EPS * norm
    b = numerical_range_bracket(m)
    assert b.solves < spectral._BRACKET_MAX_SOLVES
    assert b.dist_hi - b.dist_lo <= (1e-13 + n * EPS) * norm
    assert b.radius_hi - b.radius_lo <= (1e-13 + n * EPS) * norm
    assert b.gap == max(b.dist_hi - b.dist_lo, b.radius_hi - b.radius_lo)
    assert numerical_range_bounds(m) == (b.dist_lo, b.radius_lo)

    # grid values are lower bounds of both constants, and the wedge bound
    # max h / cos(pi/720) is an upper bound of the radius
    h = _grid_support(m)
    assert max(0.0, -h.min()) <= b.dist_hi + pad
    assert h.max() <= b.radius_hi + pad
    assert b.radius_lo <= h.max() / math.cos(math.pi / 720) + pad

    f = complex_noise(rng_for(n), (2000, n))
    f /= np.linalg.norm(f, axis=1, keepdims=True)
    q = np.abs(np.einsum("ij,jk,ik->i", f.conj(), m, f))
    assert b.dist_lo - pad <= q.min() and q.max() <= b.radius_hi + pad
    if n <= 3:
        lo, hi = brute_numerical_range(m)
        assert b.dist_lo <= lo + pad and hi <= b.radius_hi + pad


def test_numerical_range_bracket_of_a_disk_stops_at_the_cap():
    """W of the 2 x 2 Jordan block is the disk of radius 1/2 about 0: every
    support line is tangent to it, so only the wedge factor 1/cos(dphi/2)
    bounds the radius from above, and the bracket stops at its solve cap
    with a sound radius bracket whose width the wedge factor sets."""
    b = numerical_range_bracket(np.array([[0, 1], [0, 0]], dtype=complex))
    assert b.solves == spectral._BRACKET_MAX_SOLVES
    assert b.dist_lo == b.dist_hi == 0.0
    assert b.radius_lo <= 0.5 + 4 * EPS and 0.5 <= b.radius_hi
    # 2 * cap angles, no wedge wider than twice the even spacing
    assert b.radius_hi - 0.5 <= 0.5 * (1.0 / math.cos(2 * math.pi / (2 * b.solves)) - 1.0)


@pytest.mark.parametrize("rel", [0.0, 1e-12, 1e-11])
def test_numerical_range_bracket_of_a_hermitian_matrix_widens_the_sweep(rel):
    """A skew part up to HERMITIAN_TOL keeps the sweep, byte for byte, and
    widens its values by norm_F(M - M^H)/2."""
    m = _skewed(rng_for(77), 12, rel)
    mh = m.conj().T
    dist, radius = spectral._sweep(m, mh)
    pad = 0.5 * float(np.linalg.norm(m - mh))
    assert numerical_range_bracket(m) == (
        dist, dist + pad, radius, radius + pad,
        spectral.THETA_STEPS // 2 + 4 * spectral.REFINE_ITERS,
    )
    w = np.linalg.eigvalsh(0.5 * (m + mh))
    assert dist == max(0.0, w[0], -w[-1])
    assert radius == max(w[-1], -w[0])


def _distance(m: np.ndarray) -> float:
    """Distance of W(M) from the origin, max(0, -min h), with the least
    h(t) = lambda_max(Re(e^{i t} M)) of the 720-angle grid refined by a
    golden-section search to roundoff in t, which a kink of h at a corner
    of W(M) does not slow; a sound lower value, within roundoff."""
    h = _grid_support(m)
    k = int(np.argmin(h))
    step = 2.0 * math.pi / len(h)
    a, b = step * (k - 1), step * (k + 1)
    mh = m.conj().T

    def support(theta):
        phase = np.exp(1j * theta)
        return float(np.linalg.eigvalsh(0.5 * (phase * m + np.conj(phase) * mh))[-1])

    for _ in range(80):
        c, d = b - spectral._INVPHI * (b - a), a + spectral._INVPHI * (b - a)
        if support(c) < support(d):
            b = d
        else:
            a = c
    return max(0.0, -min(float(h[k]), support(a), support(b)))


@pytest.mark.parametrize("k", SCALE_EXPONENTS)
def test_numerical_range_bracket_is_scale_free(k):
    """The bracket of 2^k M takes the solves of M, its ends are 2^k times
    those of M up to 1e-12 relative, and it holds 2^k times the distance:
    unscaled, the polygon's squared edges overflow above norm 2^600, and
    below 1e-160 the skew norm underflows to 0 and sends a non-hermitian M
    to the sweep."""
    c = 2.0**k
    for name, m in scale_matrices():
        want, got = numerical_range_bracket(m), numerical_range_bracket(c * m)
        assert got.solves == want.solves, name
        assert_allclose(np.array(got[:4]) / c, want[:4], rtol=1e-12, err_msg=name)
        d = c * _distance(m)
        assert got.dist_lo <= d * (1.0 + 1e-12) and d * (1.0 - 1e-12) <= got.dist_hi, name


def test_numerical_range_bracket_rejects_a_matrix_below_the_normal_range():
    with pytest.raises(PairFrameError, match="underflows"):
        numerical_range_bracket(1e-312 * np.eye(2))
