import tracemalloc

import numpy as np
import pytest
from conftest import complex_noise, rng_for
from numpy.testing import assert_allclose

from pairframe import (
    EmptyMatrixError,
    NonSquareError,
    SingularMatrixError,
    invert,
    min_singular,
    numerical_range_bounds,
    op_norm,
)


def test_min_singular_wide_matrix_is_zero():
    assert min_singular(np.ones((2, 4))) == 0.0


def test_min_singular_tall_and_square():
    m = np.diag([2.0, 5.0])
    assert_allclose(min_singular(m), 2.0)
    tall = np.vstack([np.eye(2), np.zeros((1, 2))])
    assert_allclose(min_singular(tall), 1.0)


def test_min_singular_empty_raises():
    with pytest.raises(EmptyMatrixError):
        min_singular(np.zeros((0, 0)))


@pytest.mark.parametrize("seed", range(8))
def test_min_singular_matches_adjoint_for_square(seed):
    rng = rng_for(800 + seed)
    n = int(rng.integers(1, 9))
    m = complex_noise(rng, (n, n))
    assert abs(min_singular(m) - min_singular(m.conj().T)) <= 1e-10


def test_op_norm_values():
    assert op_norm(np.zeros((0, 0))) == 0.0
    assert_allclose(op_norm(np.diag([1.0, -4.0])), 4.0)


def test_invert_roundtrip():
    rng = rng_for(1)
    m = complex_noise(rng, (6, 6)) + 3 * np.eye(6)
    inv = invert(m)
    assert op_norm(m @ inv - np.eye(6)) < 1e-12


@pytest.mark.parametrize("seed", range(6))
def test_invert_is_an_involution_when_well_conditioned(seed):
    rng = rng_for(810 + seed)
    n = int(rng.integers(1, 9))
    while True:
        m = complex_noise(rng, (n, n))
        sv = np.linalg.svd(m, compute_uv=False)
        if sv[0] <= 1e6 * sv[-1]:
            break
    assert op_norm(invert(invert(m)) - m) <= 1e-8


def test_invert_singular_raises():
    with pytest.raises(SingularMatrixError):
        invert(np.diag([1.0, 0.0]))
    with pytest.raises(SingularMatrixError):
        invert(np.diag([1.0, 1e-14]))


@pytest.mark.parametrize("tol", [-1.0, float("nan"), float("inf")])
@pytest.mark.parametrize("m", [np.diag([1.0, 0.0]), np.diag([1.0, 1e-300])], ids=["singular", "tiny"])
def test_invert_rejects_negative_or_non_finite_tol(m, tol):
    """A NaN or negative threshold passes every matrix, singular ones
    included, and inf fails every one."""
    with pytest.raises(ValueError, match="tol"):
        invert(m, tol=tol)


def test_invert_nonsquare_raises():
    with pytest.raises(NonSquareError):
        invert(np.ones((2, 3)))


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
    """The sweep holds one n x n matrix at a time, not a stack of rotations
    (about 67 MB at n=64)."""
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
