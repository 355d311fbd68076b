import numpy as np
import pytest
from numpy.testing import assert_allclose

from pairframe import (
    DimensionMismatchError,
    GenSpec,
    InvalidSpecError,
    classify,
    frame_operator,
    generate,
    generate_pair,
    pair_operator,
)
from pairframe.generators import KINDS


def test_kind_catalogue_is_complete():
    """In this order: ``gen --help`` lists the kinds as KINDS holds them."""
    assert KINDS == (
        "orthonormal", "mercedes", "harmonic", "random_frame", "random_gframe",
        "weighted", "swap_fixture", "rank_deficient", "prescribed_spectrum",
    )


def test_spec_validation():
    with pytest.raises(InvalidSpecError):
        generate(GenSpec("nonsense", dim=2))
    with pytest.raises(InvalidSpecError):
        generate(GenSpec("orthonormal", dim=0))
    with pytest.raises(InvalidSpecError):
        generate(GenSpec("harmonic", dim=2, count=0))
    with pytest.raises(InvalidSpecError):
        generate(GenSpec("random_frame", dim=2, count=3, seed=-1))
    with pytest.raises(InvalidSpecError):
        generate(GenSpec("orthonormal", dim=2, params={"bogus": 1}))
    with pytest.raises(InvalidSpecError, match=r"does not accept params \['codim'\]"):
        generate(GenSpec("weighted", dim=2, params={"scales": [1.0, 2.0], "codim": 2}))


def test_same_spec_is_bit_identical():
    for spec in (
        GenSpec("random_frame", dim=5, count=9, seed=123),
        GenSpec("random_gframe", dim=4, count=5, seed=7, params={"codim": 3}),
        GenSpec("prescribed_spectrum", dim=3, count=4, seed=2,
                params={"eigenvalues": [0.5, 1.0, 2.0]}),
    ):
        a, b = generate(spec), generate(spec)
        for ma, mb in zip(a.members, b.members):
            assert np.array_equal(ma, mb)


def test_different_seeds_differ():
    a = generate(GenSpec("random_frame", dim=4, count=6, seed=1))
    b = generate(GenSpec("random_frame", dim=4, count=6, seed=2))
    assert not all(np.array_equal(x, y) for x, y in zip(a.members, b.members))


def test_orthonormal_rows():
    fam = generate(GenSpec("orthonormal", dim=3))
    assert fam.count == 3
    assert_allclose(fam.stacked, np.eye(3))
    with pytest.raises(InvalidSpecError):
        generate(GenSpec("orthonormal", dim=3, count=4))


def test_mercedes_exact_tight_operator():
    fam = generate(GenSpec("mercedes", dim=2))
    s = frame_operator(fam)
    assert s[0, 1] == 0.0 and s[1, 0] == 0.0  # off-diagonals cancel exactly
    assert_allclose(np.diagonal(s), [1.5, 1.5], atol=3e-16)  # diagonal to 1 ulp
    with pytest.raises(InvalidSpecError):
        generate(GenSpec("mercedes", dim=3))
    with pytest.raises(InvalidSpecError):
        generate(GenSpec("mercedes", dim=2, count=4))


def test_harmonic_is_tight():
    for dim, count in ((2, 4), (3, 7), (5, 12)):
        fam = generate(GenSpec("harmonic", dim=dim, count=count))
        s = frame_operator(fam)
        assert np.abs(s - (count / dim) * np.eye(dim)).max() <= 1e-12 * (count / dim)
        for m in fam.members:
            assert np.linalg.norm(m) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(InvalidSpecError):
        generate(GenSpec("harmonic", dim=4, count=3))


def test_random_frame_conditioning_floor():
    for seed in range(5):
        fam = generate(GenSpec("random_frame", dim=4, count=6, seed=seed))
        w = np.linalg.eigvalsh(frame_operator(fam))
        assert w[0] > 0.05 * w[-1]
        for m in fam.members:
            assert np.linalg.norm(m) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(InvalidSpecError):
        generate(GenSpec("random_frame", dim=4, count=3))


def test_random_gframe_codims():
    fam = generate(GenSpec("random_gframe", dim=3, count=4, seed=5))
    assert fam.codims == (2, 2, 2, 2)  # default codim 2
    fam = generate(GenSpec("random_gframe", dim=3, count=3, seed=5,
                           params={"codims": [1, 3, 2]}))
    assert fam.codims == (1, 3, 2)
    for m in fam.members:
        assert np.linalg.norm(m) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(InvalidSpecError):
        generate(GenSpec("random_gframe", dim=3, count=3, params={"codims": [1, 2]}))
    with pytest.raises(InvalidSpecError):
        generate(GenSpec("random_gframe", dim=3, count=2, params={"codims": [1, 0]}))


def test_weighted_scales():
    fam = generate(GenSpec("weighted", dim=3, params={"scales": [1.0, 2.0, 0.5]}))
    assert_allclose(frame_operator(fam), np.diag([1.0, 4.0, 0.25]))
    with pytest.raises(InvalidSpecError):
        generate(GenSpec("weighted", dim=3, params={"scales": [1.0, 2.0]}))
    with pytest.raises(InvalidSpecError):
        generate(GenSpec("weighted", dim=3))


def test_swap_fixture_reverses_basis():
    fam = generate(GenSpec("swap_fixture", dim=3))
    assert_allclose(fam.stacked, np.eye(3)[::-1])


def test_rank_deficient_is_singular():
    fam = generate(GenSpec("rank_deficient", dim=3, count=5))
    w = np.linalg.eigvalsh(frame_operator(fam))
    assert w[0] <= 1e-14
    assert not classify(fam).is_frame
    trivial = generate(GenSpec("rank_deficient", dim=1, count=2))
    assert np.abs(frame_operator(trivial)).max() == 0.0


def test_prescribed_spectrum_round_trip():
    eigs = [0.5, 4.0, 1.25]
    fam = generate(GenSpec("prescribed_spectrum", dim=3, count=5, seed=9,
                           params={"eigenvalues": eigs}))
    assert fam.count == 5
    w = np.linalg.eigvalsh(frame_operator(fam))
    assert_allclose(np.sort(w), np.sort(eigs), atol=1e-10)
    rep = classify(fam)
    assert rep.bounds.lower == pytest.approx(0.5, abs=1e-10)
    assert rep.bounds.upper == pytest.approx(4.0, abs=1e-10)


def test_prescribed_spectrum_validation():
    with pytest.raises(InvalidSpecError):
        generate(GenSpec("prescribed_spectrum", dim=2, params={"eigenvalues": [1.0]}))
    with pytest.raises(InvalidSpecError):
        generate(GenSpec("prescribed_spectrum", dim=2,
                         params={"eigenvalues": [1.0, -1.0]}))
    with pytest.raises(InvalidSpecError):
        generate(GenSpec("prescribed_spectrum", dim=2, count=1,
                         params={"eigenvalues": [1.0, 2.0]}))
    with pytest.raises(InvalidSpecError):
        generate(GenSpec("prescribed_spectrum", dim=2))


def test_generate_pair_defaults_and_mismatch():
    sys = generate_pair(GenSpec("swap_fixture", dim=2), GenSpec("orthonormal", dim=2))
    assert sys.m.values == (1.0 + 0j, 1.0 + 0j)
    assert_allclose(pair_operator(sys), [[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(DimensionMismatchError):
        generate_pair(GenSpec("orthonormal", dim=2), GenSpec("orthonormal", dim=3))
    with pytest.raises(DimensionMismatchError):
        generate_pair(
            GenSpec("orthonormal", dim=2),
            GenSpec("orthonormal", dim=2),
            weights=[1.0, 2.0, 3.0],
        )


def test_generate_pair_weights_applied():
    sys = generate_pair(
        GenSpec("orthonormal", dim=2),
        GenSpec("orthonormal", dim=2),
        weights=[1.0, 3.0],
    )
    assert_allclose(pair_operator(sys), np.diag([1.0, 3.0]))
