import numpy as np
import pytest
from conftest import complex_noise, random_gframe_family, rng_for, summed_frame_operator, unit_vector
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from pairframe import (
    DimensionMismatchError,
    GenSpec,
    NotAFrameError,
    OperatorFamily,
    analysis,
    canonical_dual,
    classify,
    frame_operator,
    generate,
    synthesis,
)


def test_family_validates_widths():
    with pytest.raises(DimensionMismatchError):
        OperatorFamily([np.ones((1, 2)), np.ones((1, 3))])


def test_family_needs_members():
    with pytest.raises(ValueError):
        OperatorFamily([])


def test_from_vectors_stores_conjugate_rows():
    fam = OperatorFamily.from_vectors([[1j, 0.0]])
    assert_allclose(fam.members[0], [[-1j, 0.0]])


def test_members_are_immutable():
    fam = OperatorFamily.from_vectors(np.eye(2))
    with pytest.raises(ValueError):
        fam.members[0][0, 0] = 5.0


def test_members_are_read_only_views_of_one_stack():
    rng = rng_for(5)
    raw = [complex_noise(rng, (d, 4)) for d in (2, 1, 3)]
    fam = OperatorFamily(raw, 4)
    assert fam.stacked.tobytes() == np.vstack(raw).tobytes()
    assert not fam.stacked.flags.writeable
    assert not np.shares_memory(fam.stacked, raw[0])
    for m, r in zip(fam.members, raw):
        assert np.shares_memory(m, fam.stacked)
        assert not m.flags.writeable
        assert m.tobytes() == r.tobytes()


def test_offsets_and_blocks():
    fam = OperatorFamily([np.ones((2, 3)), np.ones((1, 3)), np.ones((3, 3))])
    assert fam.codims == (2, 1, 3)
    assert fam.offsets == (0, 2, 3)
    assert fam.total_codim == 6
    blocks = fam.split_blocks(np.arange(6, dtype=complex))
    assert [len(b) for b in blocks] == [2, 1, 3]
    assert_allclose(blocks[1], [2.0])


def test_analysis_orthonormal_basis():
    fam = OperatorFamily.from_vectors(np.eye(2))
    assert_allclose(analysis(fam, [3.0, 4j]), [3.0, 4j])


def test_analysis_mercedes_hand_value():
    fam = generate(GenSpec("mercedes", dim=2))
    assert_allclose(analysis(fam, [0.0, 1.0]), [1.0, -0.5, -0.5], atol=1e-15)


def test_analysis_zero_vector():
    fam = random_gframe_family(rng_for(4), 3, 4)
    assert_allclose(analysis(fam, np.zeros(3)), np.zeros(fam.total_codim))


def test_analysis_dimension_mismatch():
    fam = OperatorFamily.from_vectors(np.eye(2))
    with pytest.raises(DimensionMismatchError):
        analysis(fam, [1.0, 2.0, 3.0])
    with pytest.raises(DimensionMismatchError):
        synthesis(fam, [1.0, 2.0, 3.0])


def test_synthesis_orthonormal_basis():
    fam = OperatorFamily.from_vectors(np.eye(2))
    assert_allclose(synthesis(fam, [1.0, 2.0]), [1.0, 2.0])


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 5), st.integers(1, 6))
def test_analysis_synthesis_adjoint(seed, dim, count):
    """<synthesis(F,h), f> equals <h, analysis(F,f)> for any h, f."""
    rng = rng_for(seed)
    fam = random_gframe_family(rng, dim, count)
    f = complex_noise(rng, dim)
    h = complex_noise(rng, fam.total_codim)
    lhs = np.vdot(f, synthesis(fam, h))  # vdot conjugates its first argument
    rhs = np.vdot(analysis(fam, f), h)
    assert abs(lhs - rhs) <= 1e-10 * (1 + abs(lhs))


def test_frame_operator_orthonormal_is_identity():
    fam = OperatorFamily.from_vectors(np.eye(3))
    assert_allclose(frame_operator(fam), np.eye(3))


def test_frame_operator_repeated_vector():
    fam = OperatorFamily.from_vectors([[1.0, 0.0], [1.0, 0.0]])
    assert_allclose(frame_operator(fam), np.diag([2.0, 0.0]))


def test_frame_operator_gram_consistency():
    """Stacked frame operator equals the member-by-member sum."""
    for seed in range(8):
        rng = rng_for(100 + seed)
        fam = random_gframe_family(rng, int(rng.integers(1, 6)), int(rng.integers(1, 7)))
        s = summed_frame_operator(fam)
        gram = frame_operator(fam)
        scale = max(1.0, np.abs(s).max())
        assert np.abs(s - gram).max() <= 1e-12 * scale


def test_frame_operator_permutation_invariant():
    rng = rng_for(5)
    fam = random_gframe_family(rng, 4, 6)
    s = frame_operator(fam)
    perm = rng.permutation(fam.count)
    shuffled = OperatorFamily([fam.members[k] for k in perm], 4)
    assert np.abs(s - frame_operator(shuffled)).max() <= 1e-12 * np.abs(s).max()


def test_bessel_inequality_sampled():
    """sum ||L_i f||^2 stays inside the optimal bounds on 1000 unit vectors."""
    rng = rng_for(6)
    fam = generate(GenSpec("random_frame", dim=4, count=9, seed=8))
    rep = classify(fam)
    for _ in range(1000):
        f = unit_vector(rng, 4)
        total = float(np.linalg.norm(analysis(fam, f)) ** 2)
        assert rep.bounds.lower - 1e-8 <= total <= rep.bounds.upper + 1e-8


def test_classify_orthonormal():
    rep = classify(OperatorFamily.from_vectors(np.eye(4)))
    assert rep.is_frame and rep.is_bessel
    assert rep.bounds.lower == rep.bounds.upper == 1.0
    assert rep.alpha_star == 1.0
    assert rep.residual == 0.0
    assert rep.cert_invertible and rep.cert_surjective


def test_classify_mercedes_tight():
    rep = classify(generate(GenSpec("mercedes", dim=2)))
    assert rep.is_frame
    assert_allclose([rep.bounds.lower, rep.bounds.upper], [1.5, 1.5], atol=1e-10)
    assert_allclose(rep.alpha_star, 2.0 / 3.0)
    assert rep.residual < 1e-12


def test_classify_rank_deficient_is_bessel_not_frame():
    rep = classify(OperatorFamily.from_vectors([[1.0, 0.0], [1.0, 0.0]]))
    assert rep.is_bessel and not rep.is_frame
    assert rep.bounds.lower == 0.0
    assert rep.alpha_star is None and rep.residual is None
    assert not rep.cert_invertible and not rep.cert_surjective


def test_classify_absolute_tol_override():
    fam = OperatorFamily.from_vectors(np.diag([1.0, 1e-4]))
    assert classify(fam).is_frame  # lambda_min 1e-8 clears the relative default
    assert not classify(fam, tol=1e-6).is_frame


def test_classify_huge_tol_on_tiny_family_fails_the_certificate():
    """tol / lambda_max overflows to inf here; the certificate still fails
    rather than the inversion rejecting its own threshold."""
    rep = classify(OperatorFamily.from_vectors(1e-156 * np.eye(2)), tol=1e10)
    assert not rep.is_frame and not rep.cert_invertible


@pytest.mark.parametrize("tol", [-1.0, float("nan"), float("inf")])
def test_classify_rejects_negative_or_non_finite_tol(tol):
    fam = OperatorFamily.from_vectors([[1.0, 0.0], [1.0, 0.0]])  # fixtures/rank_deficient2.json
    with pytest.raises(ValueError, match="tol"):
        classify(fam, tol=tol)


def test_classify_takes_at_most_two_svds(monkeypatch):
    """One SVD gates the inverse and one measures the residual; the frame
    operator is hermitian by construction, so none goes to checking that."""
    fam = OperatorFamily.from_vectors(complex_noise(rng_for(64), (256, 64)))
    calls = []
    svd = np.linalg.svd

    def counting_svd(*args, **kwargs):
        calls.append(1)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    assert classify(fam).is_frame
    assert len(calls) <= 2


def test_canonical_dual_orthonormal_is_itself():
    fam = OperatorFamily.from_vectors(np.eye(3))
    dual = canonical_dual(fam)
    for a, b in zip(dual.members, fam.members):
        assert_allclose(a, b)


def test_canonical_dual_mercedes_scaled():
    fam = generate(GenSpec("mercedes", dim=2))
    dual = canonical_dual(fam)
    for a, b in zip(dual.members, fam.members):
        assert_allclose(a, b * (2.0 / 3.0), atol=1e-14)


def test_canonical_dual_tight_frame_scaling():
    fam = generate(GenSpec("harmonic", dim=3, count=6))
    rep = classify(fam)
    dual = canonical_dual(fam)
    for a, b in zip(dual.members, fam.members):
        assert_allclose(a, b / rep.bounds.lower, atol=1e-12)


def test_canonical_dual_reconstruction():
    rng = rng_for(7)
    for seed in (11, 12, 13):
        fam = generate(GenSpec("random_frame", dim=5, count=9, seed=seed))
        dual = canonical_dual(fam)
        for _ in range(20):
            f = complex_noise(rng, 5)
            rec = synthesis(dual, analysis(fam, f))
            assert np.linalg.norm(rec - f) <= 1e-8 * np.linalg.norm(f)


def test_canonical_dual_rejects_non_frame():
    with pytest.raises(NotAFrameError):
        canonical_dual(OperatorFamily.from_vectors([[1.0, 0.0], [1.0, 0.0]]))


@pytest.mark.parametrize("tol", [-1.0, float("nan"), float("inf")])
def test_canonical_dual_rejects_negative_or_non_finite_tol(tol):
    with pytest.raises(ValueError, match="tol"):
        canonical_dual(OperatorFamily.from_vectors(np.eye(2)), tol=tol)
