import tracemalloc

import numpy as np
import pytest
from conftest import complex_noise, family_for, rng_for
from numpy.testing import assert_allclose

from pairframe import (
    DimensionMismatchError,
    GenSpec,
    NonSquareError,
    OperatorFamily,
    PairSystem,
    classify,
    find_alpha,
    frame_operator,
    neumann_inverse,
    neumann_trace,
    op_norm,
    reconstruct,
)


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


def test_find_alpha_diag13():
    rep = find_alpha(np.diag([1.0, 3.0]))
    assert rep.alpha == pytest.approx(0.5)
    assert rep.residual == pytest.approx(0.5)
    assert rep.is_near_identity and rep.is_positive_variant


def test_find_alpha_complex_scale_of_identity():
    """A complex multiple of I needs a complex alpha; the grid search plus
    refinement must drive the residual essentially to zero."""
    rep = find_alpha((1.0 + 1.0j) * np.eye(2))
    assert rep.is_near_identity
    assert not rep.is_positive_variant
    assert rep.residual < 1e-6
    assert rep.alpha == pytest.approx(1.0 / (1.0 + 1.0j), abs=1e-6)


def test_find_alpha_rotation_is_hopeless():
    """Eigenvalues +/- i: no scalar brings both inside the unit disk."""
    rot = np.array([[0.0, -1.0], [1.0, 0.0]])
    rep = find_alpha(rot)
    assert not rep.is_near_identity
    assert rep.residual >= 1.0 - 1e-10


def test_find_alpha_hermitian_indefinite_is_hopeless():
    rep = find_alpha(np.diag([1.0, -1.0]))
    assert not rep.is_near_identity
    assert rep.residual >= 1.0 - 1e-10


def test_find_alpha_singular_hermitian_is_hopeless():
    rep = find_alpha(np.diag([1.0, 0.0]))
    assert not rep.is_near_identity


def test_find_alpha_rotated_singular_projection():
    """A unitarily rotated singular projection: residuals can round to just
    under 1, and the verdict guard must still say no."""
    rng = rng_for(67)
    q, _ = np.linalg.qr(complex_noise(rng, (3, 3)))
    s = q @ np.diag([1.0, 0.6, 0.0]) @ q.conj().T
    rep = find_alpha(s)
    assert not rep.is_near_identity


def test_find_alpha_zero_matrix():
    rep = find_alpha(np.zeros((2, 2)))
    assert rep.alpha == 0j
    assert rep.residual == 1.0
    assert not rep.is_near_identity and not rep.is_positive_variant


def test_find_alpha_argument_validation():
    with pytest.raises(NonSquareError):
        find_alpha(np.ones((2, 3)))


def test_find_alpha_grid_memory_is_bounded():
    """The non-hermitian grid scan holds one batch of about 4 MiB of normal
    matrices at a time, not the whole grid (about 134 MB at n=32)."""
    rng = rng_for(32)
    s = np.eye(32) + 0.02 * complex_noise(rng, (32, 32))
    tracemalloc.start()
    try:
        rep = find_alpha(s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not rep.is_positive_variant and rep.is_near_identity
    assert peak < 20e6


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
    with pytest.raises(ValueError):
        neumann_inverse(np.eye(2), 1.0, -1)


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


def test_trace_argument_validation():
    with pytest.raises(NonSquareError):
        neumann_trace(np.ones((2, 3)), 1.0, 2)
    with pytest.raises(ValueError):
        neumann_trace(np.eye(2), 1.0, -1)


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
