import warnings

import numpy as np
import pytest
from conftest import (
    classification_specs,
    complex_noise,
    random_gframe_family,
    rng_for,
    summed_frame_operator,
    unit_vector,
)
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from pairframe import (
    DimensionMismatchError,
    GenSpec,
    NotAFrameError,
    OperatorFamily,
    PairFrameError,
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


def test_from_vectors_whole_array_matches_row_by_row_bytes():
    """One conj of the whole array gives the bytes of conjugating each
    vector into its own 1 x n member, signed zeros and extremes included."""
    rows = complex_noise(rng_for(29), (40, 7))
    rows[0, :4] = [complex(-0.0, 0.0), complex(0.0, -0.0), 5e-324 - 1e300j, -1e-300 + 0.0j]
    by_row = OperatorFamily([v.conj()[None, :] for v in rows], 7)
    for vectors in (rows, list(rows), rows.tolist()):
        fam = OperatorFamily.from_vectors(vectors, 7)
        assert fam.stacked.tobytes() == by_row.stacked.tobytes()
        assert [m.tobytes() for m in fam.members] == [m.tobytes() for m in by_row.members]
        assert fam.codims == (1,) * 40 and not fam.stacked.flags.writeable
    assert not np.shares_memory(OperatorFamily.from_vectors(rows).stacked, rows)


def test_from_vectors_errors():
    with pytest.raises(ValueError, match="1-D vectors"):
        OperatorFamily.from_vectors([[[1.0, 0.0]]])
    with pytest.raises(ValueError, match="1-D vectors"):
        OperatorFamily.from_vectors([1.0, 2.0])
    with pytest.raises(DimensionMismatchError, match="member 1 has 3 columns"):
        OperatorFamily.from_vectors([[1.0, 0.0], [1.0, 0.0, 0.0]])
    with pytest.raises(DimensionMismatchError, match="member 0 has 2 columns"):
        OperatorFamily.from_vectors(np.eye(2), 3)
    with pytest.raises(ValueError, match="at least one member"):
        OperatorFamily.from_vectors(np.empty((0, 2)))
    with pytest.raises(ValueError, match="non-finite"):
        OperatorFamily.from_vectors([[1.0, np.nan]])


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
    """tol / lambda_max would overflow to inf here; the absolute threshold
    fails the verdict and the certificates together."""
    rep = classify(OperatorFamily.from_vectors(1e-156 * np.eye(2)), tol=1e10)
    assert not rep.is_frame and not rep.cert_invertible


@pytest.mark.parametrize("tol", [-1.0, float("nan"), float("inf")])
def test_classify_rejects_negative_or_non_finite_tol(tol):
    fam = OperatorFamily.from_vectors([[1.0, 0.0], [1.0, 0.0]])  # fixtures/rank_deficient2.json
    with pytest.raises(ValueError, match="tol"):
        classify(fam, tol=tol)


@pytest.mark.parametrize("op", [frame_operator, classify, canonical_dual])
def test_overflowing_frame_operator_raises(op):
    """A family of finite entries whose S leaves the floating-point range
    raises PairFrameError, with no RuntimeWarning on the way."""
    fam = OperatorFamily.from_vectors(1e200 * np.eye(2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PairFrameError, match="frame operator overflows"):
            op(fam)


@pytest.mark.parametrize(
    "op, want",
    [
        (classify, {"eigvalsh": 1, "svd": 1, "solve": 0, "inv": 0}),
        (canonical_dual, {"eigvalsh": 1, "svd": 0, "solve": 1, "inv": 0}),
    ],
    ids=["classify", "canonical_dual"],
)
def test_frame_operator_is_factored_once(monkeypatch, op, want):
    """One eigvalsh of S decides the verdict, bounds and certificates; one
    SVD measures the residual that only classify reports, and the dual is
    one solve; nothing inverts S."""
    fam = OperatorFamily.from_vectors(complex_noise(rng_for(64), (256, 64)))
    calls = dict.fromkeys(want, 0)

    def counting(name):
        original = getattr(np.linalg, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(np.linalg, name, counting(name))
    op(fam)
    monkeypatch.undo()
    assert calls == want


def test_canonical_dual_matches_explicit_inverse():
    """On every frame of the classification specs and on a g-frame of mixed
    member shapes, the dual keeps the members' shapes and agrees with the
    products L_i S^-1 through an explicit inverse to 1e-13 relative."""
    families = [generate(spec) for spec in classification_specs()]
    families.append(random_gframe_family(rng_for(5), 4, 7))
    frames = [fam for fam in families if classify(fam).is_frame]
    assert len(frames) == 43 and len(set(frames[-1].codims)) > 1
    for fam in frames:
        s_inv = np.linalg.inv(frame_operator(fam))
        want = np.vstack([m @ s_inv for m in fam.members])
        got = canonical_dual(fam)
        assert got.codims == fam.codims
        err = np.abs(got.stacked - want).max()
        assert err <= 1e-13 * np.abs(want).max(), (fam.codims, err)


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


@pytest.mark.parametrize("seed", range(6))
def test_canonical_dual_is_an_involution_when_well_conditioned(seed):
    """The dual's frame operator is S^-1 S S^-1 = S^-1, so the dual of the
    dual is L S^-1 S = L: the family itself, member by member."""
    rng = rng_for(810 + seed)
    n = int(rng.integers(1, 9))
    while True:
        fam = random_gframe_family(rng, n, n + int(rng.integers(0, 4)))
        lam = np.linalg.eigvalsh(frame_operator(fam))
        if lam[-1] <= 1e6 * lam[0]:
            break
    twice = canonical_dual(canonical_dual(fam))
    assert twice.codims == fam.codims
    assert np.abs(twice.stacked - fam.stacked).max() <= 1e-8 * np.abs(fam.stacked).max()


def test_canonical_dual_rejects_non_frame():
    with pytest.raises(NotAFrameError):
        canonical_dual(OperatorFamily.from_vectors([[1.0, 0.0], [1.0, 0.0]]))


@pytest.mark.parametrize("tol", [-1.0, float("nan"), float("inf")])
def test_canonical_dual_rejects_negative_or_non_finite_tol(tol):
    with pytest.raises(ValueError, match="tol"):
        canonical_dual(OperatorFamily.from_vectors(np.eye(2)), tol=tol)
