import functools
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from conftest import SCALE_EXPONENTS, complex_noise, family_for, rng_for, scale_matrices
from numpy.testing import assert_allclose
from oracle import brute_numerical_range

from pairframe import (
    DimensionMismatchError,
    GenSpec,
    NonSquareError,
    OperatorFamily,
    PairFrameError,
    PairSystem,
    classify,
    find_alpha,
    frame_operator,
    neumann_inverse,
    neumann_trace,
    numerical_range_bounds,
    op_norm,
    reconstruct,
    spectral,
)
from pairframe.neumann import (
    ALPHA_CUTS,
    ALPHA_GAP,
    HOPELESS_RING,
    MAX_ORDER,
    NEAR_IDENTITY_GUARD,
    _centroid,
    _clip,
    _cuts,
)

EPS = np.finfo(np.float64).eps


def diag13_system() -> PairSystem:
    """Orthonormal pair with weights (1, 3): operator exactly diag(1, 3)."""
    basis = OperatorFamily.from_vectors(np.eye(2))
    return PairSystem([1.0, 3.0], basis, basis)


# ---------------------------------------------------------------- find_alpha


def test_find_alpha_identity():
    rep = find_alpha(np.eye(3))
    assert rep.alpha == 1.0
    assert rep.residual == 0.0
    assert rep.is_near_identity and rep.is_positive_variant
    assert (rep.method, rep.cuts, rep.residual_gap) == ("closed form", 0, 0.0)


def test_find_alpha_hermitian_closed_form():
    """For hermitian positive definite S the optimum is 2/(lmin+lmax) with
    residual (lmax-lmin)/(lmax+lmin)."""
    rng = rng_for(61)
    for _ in range(5):
        a = complex_noise(rng, (4, 4))
        s = a @ a.conj().T + 0.1 * np.eye(4)
        w = np.linalg.eigvalsh(s)
        rep = find_alpha(s)
        assert rep.is_positive_variant
        assert rep.alpha == pytest.approx(2.0 / (w[0] + w[-1]), rel=1e-12)
        assert rep.residual == pytest.approx((w[-1] - w[0]) / (w[-1] + w[0]), abs=1e-9)
        assert rep.is_near_identity


def test_find_alpha_nearly_hermitian_closed_form_gap_is_certified():
    """A hermitian definite H plus a skew part with norm(S - S^H) =
    2e-12 norm(S) passes the hermitian test and gets the closed form, the
    optimum of H only. The cuts on the same S reach a lower residual, so
    the gap cannot be 0: residual - residual_gap must stay below it."""
    rng = rng_for(2)
    a = complex_noise(rng, (4, 4))
    h = a @ a.conj().T + 0.5 * np.eye(4)
    k = complex_noise(rng, (4, 4))
    k = k - k.conj().T
    s = h + 1e-12 * op_norm(h) / op_norm(k) * k
    rep = find_alpha(s)
    assert rep.method == "closed form" and rep.is_positive_variant
    alpha = _cuts(s, op_norm(s))[0]
    attained = op_norm(np.eye(4) - alpha * s)
    assert attained < rep.residual
    assert rep.residual - rep.residual_gap <= attained
    assert rep.residual_gap <= 4.0 * op_norm(s - s.conj().T) / op_norm(s)


def test_find_alpha_shares_the_bracket_hermitian_test():
    """S = H + i c I at n = 16 with c = 3e-11 norm(H): its skew is
    6e-11 norm(S) in the spectral norm, under HERMITIAN_TOL, but
    2.4e-10 norm(S) in the Frobenius norm, over it. The bracket and
    find_alpha share the Frobenius test, so both treat S as non-hermitian:
    the bracket takes its adaptive solves and find_alpha the cuts, whose
    certified lower bound stays below the residual of H's own optimum."""
    n = 16
    rng = rng_for(16)
    a = complex_noise(rng, (n, n))
    h = a @ a.conj().T + 0.5 * np.eye(n)
    s = h + 3e-11j * op_norm(h) * np.eye(n)
    skew = s - s.conj().T
    assert op_norm(skew) < spectral.HERMITIAN_TOL * op_norm(s) < np.linalg.norm(skew)
    assert spectral.numerical_range_bracket(s).solves < spectral.THETA_STEPS // 2
    rep = find_alpha(s)
    assert rep.method == "cuts"
    w = np.linalg.eigvalsh(h)
    alpha_h = 2.0 / (w[0] + w[-1])
    assert rep.residual - rep.residual_gap <= op_norm(np.eye(n) - alpha_h * s)


def test_find_alpha_diag13():
    rep = find_alpha(np.diag([1.0, 3.0]))
    assert rep.alpha == pytest.approx(0.5)
    assert rep.residual == pytest.approx(0.5)
    assert rep.is_near_identity and rep.is_positive_variant


def test_find_alpha_negative_definite_closed_form():
    """-diag(1, 3) is definite too: the closed form 2/(lmin+lmax) = -1/2 is
    the optimum, with residual 1/2, and it is not the positive variant."""
    rep = find_alpha(-np.diag([1.0, 3.0]))
    assert rep.alpha == -0.5
    assert rep.residual == pytest.approx(0.5, rel=1e-15)
    assert rep.is_near_identity and not rep.is_positive_variant


def test_find_alpha_complex_scale_of_identity():
    """A complex multiple of I needs a complex alpha; the cutting planes,
    started from alpha = 0, must drive the residual essentially to zero."""
    rep = find_alpha((1.0 + 1.0j) * np.eye(2))
    assert rep.is_near_identity
    assert not rep.is_positive_variant
    assert rep.residual < 1e-6
    assert rep.alpha == pytest.approx(1.0 / (1.0 + 1.0j), abs=1e-6)


def test_find_alpha_infimum_zero_stops_on_the_absolute_floor():
    """(1+i)I at n=3 has infimum 0, which no relative gap can certify and
    no centroid hits exactly: the absolute floor ends the cuts early."""
    rep = find_alpha((1.0 + 1.0j) * np.eye(3))
    assert rep.method == "cuts" and rep.cuts < ALPHA_CUTS
    assert rep.is_near_identity and rep.residual < 1e-13


def test_find_alpha_rotation_is_hopeless():
    """Eigenvalues +/- i: no scalar brings both inside the unit disk. The
    report holds the best point of the ring |alpha| = 1/(10 norm(S)): a
    real alpha here."""
    rot = 3.0 * np.array([[0.0, -1.0], [1.0, 0.0]])
    rep = find_alpha(rot)
    assert not rep.is_near_identity
    assert rep.residual >= 1.0 - 1e-10
    assert rep.method == "ring" and rep.cuts < ALPHA_CUTS
    assert abs(rep.alpha) == pytest.approx(1.0 / 30.0, rel=1e-15)
    assert abs(rep.alpha.imag) <= 1e-16
    assert rep.residual == pytest.approx(np.sqrt(1.01), rel=1e-15)


def test_find_alpha_hermitian_indefinite_is_hopeless():
    """0 is in W(S), so the certified infimum is 1 and no cut is made."""
    rep = find_alpha(np.diag([1.0, -1.0]))
    assert not rep.is_near_identity
    assert rep.residual >= 1.0 - 1e-10
    assert (rep.method, rep.cuts) == ("ring", 0)
    assert rep.residual_gap == rep.residual - 1.0


def test_find_alpha_singular_hermitian_is_hopeless():
    rep = find_alpha(np.diag([1.0, 0.0]))
    assert not rep.is_near_identity


def assert_ring_point(s: np.ndarray, rep) -> None:
    """``rep`` is the best of HOPELESS_RING points on |alpha| = 1/(10 norm(S))."""
    angles = 2.0 * np.pi * np.arange(HOPELESS_RING) / HOPELESS_RING
    ring = np.exp(1j * angles) / (10.0 * op_norm(s))
    residuals = [op_norm(np.eye(s.shape[0]) - a * s) for a in ring]
    k = int(np.argmin(residuals))
    assert rep.alpha == pytest.approx(ring[k], rel=1e-15)
    assert rep.residual == pytest.approx(residuals[k], rel=1e-15)


def rotated_singular_projection() -> np.ndarray:
    q, _ = np.linalg.qr(complex_noise(rng_for(67), (3, 3)))
    return q @ np.diag([1.0, 0.6, 0.0]) @ q.conj().T


def test_find_alpha_rotated_singular_projection():
    """A unitarily rotated singular projection whose lambda_min rounds above
    0: the hermitian closed form does not clear the guard, so the report is
    the ring point like that of any other input that is not near-identity."""
    s = rotated_singular_projection()
    assert np.linalg.eigvalsh(0.5 * (s + s.conj().T))[0] > 0.0
    rep = find_alpha(s)
    assert not rep.is_near_identity and not rep.is_positive_variant
    assert (rep.method, rep.cuts) == ("ring", 0)
    assert_ring_point(s, rep)


@pytest.mark.parametrize(
    "s",
    [rotated_singular_projection(), np.array([[0.0, 1.0], [1.0, 0.0]]), np.diag([2.0, -1.0, 0.5])],
    ids=["rotated-singular-projection", "swap", "indefinite"],
)
def test_find_alpha_hermitian_not_near_identity_skips_the_cuts(monkeypatch, lapack_calls, s):
    """For hermitian S the closed form is the optimum over every alpha, or
    the infimum is 1, so a hermitian S whose closed form misses the guard
    goes straight to the ring: the norm, at most the closed form's residual
    and the HOPELESS_RING ring points, one SVD each, and no cut."""
    calls = lapack_calls("svd")
    rep = find_alpha(s)
    monkeypatch.undo()
    assert not rep.is_near_identity
    assert_ring_point(s, rep)
    assert calls["svd"] <= 2 + HOPELESS_RING


@pytest.mark.parametrize("seed", [67, 68, 69])
def test_find_alpha_reports_the_ring_point_when_not_near_identity(seed):
    """A unitarily rotated singular normal matrix: 0 is an eigenvalue, so no
    scalar helps, yet the cuts can round a residual to just under 1. The
    cuts stop as soon as their lower bound reaches 1 - NEAR_IDENTITY_GUARD,
    which fixes the verdict, and the report is the ring point, not the
    point where the cuts stopped."""
    q, _ = np.linalg.qr(complex_noise(rng_for(seed), (3, 3)))
    s = q @ np.diag([1.0, 0.6 * np.exp(0.5j), 0.0]) @ q.conj().T
    rep = find_alpha(s)
    assert not rep.is_near_identity and not rep.is_positive_variant
    assert rep.method == "ring" and 0 < rep.cuts < ALPHA_CUTS
    assert rep.residual - rep.residual_gap >= 1.0 - NEAR_IDENTITY_GUARD
    assert_ring_point(s, rep)


def test_find_alpha_meets_numerical_range_certificate():
    """With d the distance of W(S) from 0 and t* the angle where
    lambda_min(Re(e^{it}S)) peaks, alpha = (d/norm(S)^2) e^{it*} has
    norm(I - alpha*S) <= sqrt(1 - d^2/norm(S)^2); the cuts reach at least that."""
    rng = rng_for(101)
    for k in range(12):
        n = 2 + k
        phase = np.exp(2j * np.pi * rng.uniform())
        s = phase * (np.eye(n) + rng.uniform(0.1, 0.3) * complex_noise(rng, (n, n)) / np.sqrt(n))
        dist, _ = numerical_range_bounds(s)
        assert dist > 0.0
        rep = find_alpha(s)
        assert rep.is_near_identity
        assert rep.residual <= np.sqrt(1.0 - (dist / op_norm(s)) ** 2) + 1e-12
        assert rep.residual == pytest.approx(op_norm(np.eye(n) - rep.alpha * s), rel=1e-12)


@pytest.mark.parametrize("eps", [1e-3, 1e-6, 1e-9])
def test_find_alpha_near_the_origin(eps):
    """W(S) a hair away from 0: the numerical-range certificate
    sqrt(1 - d^2/norm(S)^2) is 1 - O(eps^2), which rounds to 1 at
    eps = 1e-9, while the best alpha has residual 1 - O(eps) and clears the
    verdict guard."""
    for diag in ([eps * np.exp(0.3j), 1.0], [eps * np.exp(0.3j), np.exp(-0.2j), 0.5]):
        s = np.diag(diag)
        rep = find_alpha(s)
        assert rep.is_near_identity, (eps, diag)
        # normal S: norm(I - alpha*S) = max |1 - alpha*lambda|
        assert rep.residual == pytest.approx(np.abs(1.0 - rep.alpha * np.array(diag)).max(), abs=1e-15)
        assert rep.residual <= 1.0 - 0.9 * eps


def test_find_alpha_small_optimal_scalar():
    """Eigenvalues 0.5 and e^{+-i(pi/2 - 0.01)}: 0 is outside W(S), but only
    |alpha| < 2 sin(0.01) works, far inside |alpha| = 1/(10 norm(S))."""
    a = np.pi / 2 - 0.01
    rep = find_alpha(np.diag([0.5, np.exp(1j * a), np.exp(-1j * a)]))
    assert rep.is_near_identity
    assert abs(rep.alpha) < 2.0 * np.sin(0.01)


def test_find_alpha_reaches_the_minimum_on_normal_matrices():
    """For normal S, norm(I - alpha*S) = max_j |1 - alpha*lambda_j|, a
    minimax whose kinks stall a compass search; Nelder-Mead on that form,
    started from the reported alpha and from two other points, finds
    nothing better."""
    from scipy.optimize import minimize

    rng = rng_for(107)
    for k in range(6):
        n = 3 + k % 4
        q, _ = np.linalg.qr(complex_noise(rng, (n, n)))
        half = rng.uniform(0.8, 1.5)
        lam = rng.uniform(0.2, 2.0, n) * np.exp(1j * rng.uniform(-half, half, n))
        rep = find_alpha(q @ np.diag(lam) @ q.conj().T)

        def res(x):
            return np.abs(1.0 - (x[0] + 1j * x[1]) * lam).max()

        best = min(
            minimize(res, x0, method="Nelder-Mead",
                     options={"xatol": 1e-13, "fatol": 1e-15, "maxiter": 4000}).fun
            for x0 in ([rep.alpha.real, rep.alpha.imag], [0.5, 0.0], [0.1, 0.1])
        )
        assert rep.residual <= best + 1e-12, (k, rep.residual, best)
        # the certified lower bound never passes the minimum found
        assert rep.residual - rep.residual_gap <= best, (k, rep, best)


def test_find_alpha_verdict_matches_oracle_numerical_range():
    """Near-identity exactly when the sampled numerical range keeps away from
    0, in dims 2-3. Sampling brings |<Sf, f>| to about 1e-6 when 0 is in
    W(S); inputs whose swept distance is within 1e-6 of 0 are skipped."""
    rng = rng_for(103)
    verdicts = []
    for k in range(16):
        n = 2 + k % 2
        shift = (0.2 + 0.07 * k) * np.exp(2j * np.pi * rng.uniform())
        s = complex_noise(rng, (n, n)) / np.sqrt(2 * n) + shift * np.eye(n)
        dist, _ = numerical_range_bounds(s)
        if 0.0 < dist <= 1e-6:
            continue
        lo, _ = brute_numerical_range(s)
        rep = find_alpha(s)
        assert rep.is_near_identity == (lo > 1e-4), (k, lo, rep)
        verdicts.append(rep.is_near_identity)
    assert verdicts.count(True) >= 3 and verdicts.count(False) >= 2


def test_find_alpha_takes_no_eigvalsh_and_few_svds(monkeypatch, lapack_calls):
    """A non-hermitian n=32 search: no numerical-range sweep, two SVDs
    (the norm and the rescore of the best alpha; the hermitian test is a
    Frobenius norm) and one Gram eigh per cut, stopped by the certified gap
    well before ALPHA_CUTS (the 80-cut search took 82 SVDs)."""
    s = np.eye(32) + 0.3 * complex_noise(rng_for(32), (32, 32)) / np.sqrt(32)
    calls = lapack_calls("svd", "eigvalsh", "eigh")
    rep = find_alpha(s)
    monkeypatch.undo()
    assert rep.is_near_identity and not rep.is_positive_variant
    assert rep.method == "cuts" and rep.cuts == calls["eigh"]
    assert calls["eigvalsh"] == 0
    assert calls["svd"] == 2
    assert calls["eigh"] <= 50
    assert rep.residual_gap <= ALPHA_GAP * rep.residual


def test_find_alpha_zero_matrix():
    rep = find_alpha(np.zeros((2, 2)))
    assert rep.alpha == 0j
    assert rep.residual == 1.0
    assert not rep.is_near_identity and not rep.is_positive_variant
    assert (rep.method, rep.cuts, rep.residual_gap) == ("closed form", 0, 0.0)


# Reference: the centre-of-gravity search as it was before the certified
# stop, ALPHA_CUTS shallow cuts through the centroid with the top singular
# pair of one SVD each.


def shallow_cuts(s: np.ndarray) -> tuple[complex, float]:
    """Best (alpha, residual) of ALPHA_CUTS shallow SVD cuts from alpha = 0."""
    n = s.shape[0]
    r = 2.0 / op_norm(s)
    poly = [complex(r, r), complex(-r, r), complex(-r, -r), complex(r, -r)]
    best_alpha, best_res = 0j, 1.0
    for _ in range(ALPHA_CUTS):
        a = _centroid(poly)
        if a is None:
            break
        u, sv, vh = np.linalg.svd(np.eye(n) - a * s)
        if sv[0] < best_res:
            best_alpha, best_res = a, float(sv[0])
        poly = _clip(poly, a, complex(u[:, 0].conj() @ s @ vh[0].conj()), 0.0)
    return best_alpha, best_res


@functools.cache
def non_hermitian_corpus() -> tuple:
    """60 non-hermitian matrices, n <= 16: rotated and scaled near-identity,
    Gaussian, shifted Gaussian, and normal matrices a hair from 0 in W(S)."""
    rng = rng_for(113)
    mats = []
    for k in range(15):
        n = 2 + k
        phase = np.exp(2j * np.pi * rng.uniform())
        scale = rng.uniform(0.5, 3.0)
        noise = rng.uniform(0.1, 0.5) * complex_noise(rng, (n, n)) / np.sqrt(n)
        mats.append(scale * phase * (np.eye(n) + noise))
        mats.append(complex_noise(rng, (n, n)))
        shift = rng.uniform(0.3, 1.5) * np.exp(2j * np.pi * rng.uniform())
        mats.append(complex_noise(rng, (n, n)) / np.sqrt(2 * n) + shift * np.eye(n))
        lam = np.exp(1j * rng.uniform(-1.2, 1.2, n)) * rng.uniform(0.5, 1.0, n)
        lam[0] = 10.0 ** -rng.uniform(3, 9) * np.exp(1j * rng.uniform(-0.3, 0.3))
        q, _ = np.linalg.qr(complex_noise(rng, (n, n)))
        mats.append(q @ np.diag(lam) @ q.conj().T)
    return tuple(mats)


@pytest.mark.parametrize("k", range(60))
def test_find_alpha_agrees_with_the_shallow_reference(k):
    """Same verdict as ALPHA_CUTS shallow SVD cuts, and a residual above the
    reference's by at most the certified gap."""
    s = non_hermitian_corpus()[k]
    rep = find_alpha(s)
    _, ref = shallow_cuts(s)
    assert rep.is_near_identity == (ref < 1.0 - NEAR_IDENTITY_GUARD), (rep, ref)
    assert rep.residual <= ref + rep.residual_gap, (rep, ref)
    if rep.method == "cuts" and rep.cuts < ALPHA_CUTS:
        assert rep.residual_gap <= ALPHA_GAP * rep.residual + 4.0 * EPS, rep
    assert rep.residual == op_norm(np.eye(s.shape[0]) - rep.alpha * s)


def test_find_alpha_lower_bound_stays_below_a_dense_grid():
    """At n <= 3, residual - residual_gap (the certified lower bound) never
    exceeds the least residual on a dense alpha grid over the search square
    and on a fine grid around the reported alpha."""
    rng = rng_for(127)
    for k in range(12):
        n = 2 + k % 2
        s = complex_noise(rng, (n, n)) / np.sqrt(2 * n) + (0.2 + 0.1 * k) * np.exp(1j * k) * np.eye(n)
        rep = find_alpha(s)
        r = 2.0 / op_norm(s)
        coarse = np.linspace(-r, r, 81)
        fine = np.linspace(-1e-3, 1e-3, 41) * max(abs(rep.alpha), 1.0 / op_norm(s))
        grid = np.concatenate([
            (coarse[:, None] + 1j * coarse[None, :]).ravel(),
            (rep.alpha + fine[:, None] + 1j * fine[None, :]).ravel(),
        ])
        steps = np.eye(n) - grid[:, None, None] * s
        least = np.linalg.svd(steps, compute_uv=False)[:, 0].min()
        assert rep.residual - rep.residual_gap <= least, (k, rep, least)


def test_find_alpha_argument_validation():
    with pytest.raises(NonSquareError):
        find_alpha(np.ones((2, 3)))


@pytest.mark.parametrize("k", SCALE_EXPONENTS)
def test_find_alpha_is_scale_free(k):
    """find_alpha(2^k S) takes the method, cuts and verdict of S, with its
    residual up to 1e-12 relative: unscaled, the cuts' polygon overflows or
    underflows outside about norm(S) in [1e-100, 1e100], and below 1e-160
    a non-hermitian S would take the hermitian closed form."""
    c = 2.0**k
    for name, s in scale_matrices():
        want, got = find_alpha(s), find_alpha(c * s)
        assert (got.method, got.cuts, got.is_near_identity) == (
            want.method, want.cuts, want.is_near_identity), name
        assert got.residual == pytest.approx(want.residual, rel=1e-12), name


def test_find_alpha_rejects_a_matrix_below_the_normal_range():
    with pytest.raises(PairFrameError, match="underflows"):
        find_alpha(1e-312 * np.eye(2))


def test_find_alpha_grid_memory_is_bounded():
    """The non-hermitian search holds a few n x n matrices at a time, no
    batch of them."""
    rng = rng_for(32)
    s = np.eye(32) + 0.02 * complex_noise(rng, (32, 32))
    tracemalloc.start()
    try:
        rep = find_alpha(s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not rep.is_positive_variant and rep.is_near_identity
    assert peak < 1e6


def test_near_identity_matches_frame_verdict_on_frame_operators():
    """For hermitian positive semidefinite frame operators the near-identity
    verdict and the frame verdict coincide."""
    specs = [
        GenSpec("orthonormal", dim=3),
        GenSpec("mercedes", dim=2),
        GenSpec("harmonic", dim=2, count=4),
        GenSpec("random_frame", dim=4, count=7, seed=3),
        GenSpec("rank_deficient", dim=3, count=4),
        GenSpec("rank_deficient", dim=2, count=2),
        GenSpec("prescribed_spectrum", dim=3, count=3, seed=5,
                params={"eigenvalues": [0.5, 1.0, 4.0]}),
    ]
    for spec in specs:
        fam = family_for(spec)
        rep = find_alpha(frame_operator(fam))
        assert rep.is_near_identity == classify(fam).is_frame, spec


# ----------------------------------------------------------- partial sums


def test_neumann_inverse_exact_binary_values():
    s = np.diag([1.0, 3.0])
    alpha = 0.5
    assert_allclose(neumann_inverse(s, alpha, 0), np.diag([0.5, 0.5]))
    assert_allclose(neumann_inverse(s, alpha, 1), np.diag([0.75, 0.25]))
    assert_allclose(neumann_inverse(s, alpha, 3), np.diag([0.9375, 0.3125]))


def test_neumann_inverse_converges_to_inverse():
    rng = rng_for(71)
    a = complex_noise(rng, (4, 4))
    s = a @ a.conj().T + 0.5 * np.eye(4)
    rep = find_alpha(s)
    inv = np.linalg.inv(s)
    # residual^(N+1) < 1e-12 makes the truncation error invisible
    n = int(np.ceil(-12.0 / np.log10(rep.residual)))
    approx = neumann_inverse(s, rep.alpha, n)
    assert np.abs(approx - inv).max() <= 1e-10 * np.abs(inv).max()


def test_neumann_inverse_argument_validation():
    with pytest.raises(NonSquareError):
        neumann_inverse(np.ones((2, 3)), 1.0, 2)
    with pytest.raises(ValueError, match="N must be >= 0"):
        neumann_inverse(np.eye(2), 1.0, -1)
    with pytest.raises(TypeError, match="N must be an integer, got 1.5"):
        neumann_inverse(np.eye(2), 1.0, 1.5)
    with pytest.raises(TypeError, match="N must be an integer, got 2.0"):
        reconstruct(diag13_system(), 0.5, 2.0, np.ones(2))
    assert_allclose(neumann_inverse(np.diag([1.0, 3.0]), 0.5, np.int64(1)), np.diag([0.75, 0.25]))


# ----------------------------------------------------------------- traces


def test_trace_diag13_exact_decay():
    trace = neumann_trace(np.diag([1.0, 3.0]), 0.5, 5)
    assert trace.residual == pytest.approx(0.5)
    for entry in trace.entries:
        assert entry.error == pytest.approx(0.5 ** (entry.N + 1), abs=1e-15)
        assert entry.bound == pytest.approx(0.5 ** (entry.N + 1))
    assert trace.entries[3].error == pytest.approx(0.0625, abs=1e-15)


def test_trace_errors_obey_geometric_bound():
    for seed in (81, 82, 83):
        rng = rng_for(seed)
        a = complex_noise(rng, (3, 3))
        s = a @ a.conj().T + 0.3 * np.eye(3)
        rep = find_alpha(s)
        trace = neumann_trace(s, rep.alpha, 12)
        for entry in trace.entries:
            assert entry.error <= entry.bound + 1e-9
        errs = [e.error for e in trace.entries]
        assert errs[-1] < errs[0]


def test_trace_rows_match_partial_sums():
    """Row N is the defect of neumann_inverse(S, alpha, N), bit for bit."""
    rng = rng_for(84)
    s = np.eye(6) + 0.3 * complex_noise(rng, (6, 6))
    alpha = find_alpha(s).alpha
    trace = neumann_trace(s, alpha, 15)
    eye = np.eye(6, dtype=np.complex128)
    for entry in trace.entries:
        assert entry.error == op_norm(eye - neumann_inverse(s, alpha, entry.N) @ s)


def test_trace_telescoping_holds_for_mild_residuals():
    """The internal telescoping cross-check stays silent for any alpha whose
    residual is around 1 (partial sums stay well conditioned there)."""
    rng = rng_for(89)
    for _ in range(10):
        s = complex_noise(rng, (3, 3))
        rep = find_alpha(s)
        alpha = rep.alpha
        if rep.residual > 1.1:  # rescale into the well-conditioned regime
            alpha = alpha * 1.1 / rep.residual
        neumann_trace(s, alpha, 10)  # must not raise


@pytest.mark.parametrize(
    "s, alpha",
    [
        (np.diag([1.0, 3.0]), 1e200),  # (I - alpha*S)^2 overflows
        (np.diag([1.0, 3.0]), 1e307 + 1e307j),  # so does the partial sum
        (np.array([[1.0, -1e200], [0.0, 1.0]]), 1.0),  # nilpotent: only residual^2 overflows
    ],
    ids=["power", "partial-sum", "bound"],
)
def test_trace_names_the_row_that_overflows(s, alpha):
    with pytest.raises(PairFrameError, match="overflows at N=1"):
        neumann_trace(s, alpha, 2)


def test_overflowing_alpha_raises_in_the_library():
    """An overflow raises PairFrameError naming N, with no NaN result, no
    floating-point warning and no ValueError from the norm of a non-finite
    matrix."""
    s = np.diag([1.0, 3.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PairFrameError, match="overflows at N=1"):
            neumann_inverse(s, 1e200, 2)
        with pytest.raises(PairFrameError, match="overflows at N=1"):
            reconstruct(diag13_system(), 1e200, 2, np.ones(2))
        for call in (neumann_inverse, neumann_trace):
            with pytest.raises(PairFrameError, match="alpha\\*S overflows at N=0"):
                call(s, 1e308, 2)


def test_trace_argument_validation():
    with pytest.raises(NonSquareError):
        neumann_trace(np.ones((2, 3)), 1.0, 2)
    with pytest.raises(ValueError, match="N_max must be >= 0"):
        neumann_trace(np.eye(2), 1.0, -1)
    with pytest.raises(TypeError, match="N_max must be an integer, got 2.0"):
        neumann_trace(np.eye(2), 1.0, 2.0)
    # the N_max + 1 rows of a sys.maxsize table are beyond itertools.islice
    assert MAX_ORDER == sys.maxsize - 1
    with pytest.raises(ValueError, match=f"N_max must be <= {MAX_ORDER}, got {sys.maxsize}"):
        neumann_trace(np.eye(2), 1.0, sys.maxsize)
    with pytest.raises(ValueError, match=f"N must be <= {MAX_ORDER}, got {sys.maxsize + 1}"):
        neumann_inverse(np.eye(2), 1.0, sys.maxsize + 1)


@pytest.mark.parametrize("alpha", [np.nan, np.inf, complex(1.0, -np.inf)], ids=["nan", "inf", "imag-inf"])
def test_non_finite_alpha_raises_value_error_naming_it(alpha):
    """A non-finite alpha is a bad argument, not an overflow of alpha*S at N=0."""
    for call in (neumann_inverse, neumann_trace):
        with pytest.raises(ValueError, match="^alpha must be finite"):
            call(np.eye(2), alpha, 3)
    with pytest.raises(ValueError, match="^alpha must be finite"):
        reconstruct(diag13_system(), alpha, 3, np.ones(2))


# ---------------------------------------------------------- reconstruction


def test_reconstruct_diag13_geometric_error():
    sys = diag13_system()
    rng = rng_for(91)
    f = complex_noise(rng, 2)
    for n in (0, 2, 5, 10):
        approx, rel = reconstruct(sys, 0.5, n, f)
        assert rel <= 0.5 ** (n + 1) + 1e-9
        assert np.linalg.norm(approx - f) == pytest.approx(rel * np.linalg.norm(f))


def test_reconstruct_tight_system_is_exact():
    fam = family_for(GenSpec("mercedes", dim=2))
    sys = PairSystem(np.ones(3), fam, fam)
    _, rel = reconstruct(sys, 2.0 / 3.0, 0, np.array([1.0, 2.0j]))
    assert rel <= 1e-15


def test_reconstruct_zero_signal():
    _, rel = reconstruct(diag13_system(), 0.5, 3, np.zeros(2))
    assert rel == 0.0


def test_reconstruct_dimension_check():
    with pytest.raises(DimensionMismatchError):
        reconstruct(diag13_system(), 0.5, 3, np.ones(3))
    with pytest.raises(DimensionMismatchError, match=r"expected a signal of length 2, got shape \(1, 2\)"):
        reconstruct(diag13_system(), 0.5, 3, np.ones((1, 2)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_reconstruct_rejects_a_non_finite_signal(bad):
    """A NaN entry used to report relative error 0.0 (the NaN norm of f read
    as the f = 0 convention) and an infinite one a warning and NaN."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^signal has non-finite entries$"):
            reconstruct(diag13_system(), 0.5, 5, [bad, 1.0])
