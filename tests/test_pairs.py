import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import complex_noise, random_pair_system, rng_for, summed_pair_operator, unit_vector
from numpy.testing import assert_allclose

from pairframe import (
    DimensionMismatchError,
    ExponentMismatchError,
    GenSpec,
    InvalidExponentError,
    OperatorFamily,
    PairFrameError,
    PairSystem,
    WeightSequence,
    adjoint_check,
    classify,
    classify_pair,
    compose,
    frame_operator,
    generate,
    generate_pair,
    numerical_range_bracket,
    op_norm,
    p_bessel_bound,
    pair_operator,
    pq_pair_norm_bound,
)
from pairframe import pairs


def test_weight_sequence_basics():
    m = WeightSequence([1.0, -2j, 0.5 + 0.5j])
    assert len(m) == 3
    assert m.sup_norm == 2.0
    assert m.conjugated().values == (1.0 + 0j, 2j, 0.5 - 0.5j)
    assert m.as_array().dtype == np.complex128


def test_weight_sequence_rejects_bad_input():
    with pytest.raises(ValueError):
        WeightSequence([])
    with pytest.raises(ValueError):
        WeightSequence([1.0, float("nan")])
    with pytest.raises(ValueError):
        WeightSequence([complex(1.0, float("inf"))])


def test_pair_system_validation():
    e2 = OperatorFamily.from_vectors(np.eye(2))
    e3 = OperatorFamily.from_vectors(np.eye(3))
    with pytest.raises(DimensionMismatchError):
        PairSystem([1.0, 1.0], e2, e3)
    with pytest.raises(DimensionMismatchError):
        PairSystem([1.0], e2, e2)
    tall = OperatorFamily([np.ones((2, 2)), np.ones((1, 2))], 2)
    with pytest.raises(DimensionMismatchError):
        PairSystem([1.0, 1.0], e2, tall)


def test_adjoint_system_structure():
    sys = random_pair_system(3)
    adj = sys.adjoint_system()
    assert adj.gamma is sys.lam and adj.lam is sys.gamma
    assert adj.m.values == sys.m.conjugated().values


def test_pair_operator_diagonal_weights():
    """Matching orthonormal families turn the weights into a diagonal."""
    basis = OperatorFamily.from_vectors(np.eye(3))
    sys = PairSystem([2.0, -1j, 0.5], basis, basis)
    assert_allclose(pair_operator(sys), np.diag([2.0, -1j, 0.5]))


def test_pair_operator_swap_matrix():
    sys = generate_pair(GenSpec("swap_fixture", dim=2), GenSpec("orthonormal", dim=2))
    assert_allclose(pair_operator(sys), [[0.0, 1.0], [1.0, 0.0]])


def test_summed_and_factorized_routes_agree():
    for seed in range(30):
        sys = random_pair_system(seed)
        a = summed_pair_operator(sys)
        b = pair_operator(sys)
        assert np.abs(a - b).max() <= 1e-12 * max(1.0, np.abs(a).max())


def test_adjoint_residual_is_roundoff():
    for seed in range(30):
        sys = random_pair_system(100 + seed)
        s = pair_operator(sys)
        assert adjoint_check(sys) <= 1e-12 * (1.0 + op_norm(s))


def test_classify_pair_residual_is_adjoint_check():
    for seed in range(5):
        sys = random_pair_system(200 + seed)
        assert classify_pair(sys).adjoint_residual == adjoint_check(sys)


@pytest.mark.parametrize("tol", [-1.0, float("nan"), float("inf")])
def test_classify_pair_rejects_negative_or_non_finite_tol(tol):
    """On a singular S a negative tol would divide by min_singular = 0, and
    NaN or inf would report "not a pair frame" for any S."""
    basis = generate(GenSpec("rank_deficient", dim=3))
    with pytest.raises(ValueError, match="tol"):
        classify_pair(PairSystem([1.0, 1.0, 1.0], basis, basis), tol=tol)


def test_classify_pair_positive_system_matches_frame_bounds():
    """With Gamma = Lambda and positive weights, S is the weighted frame
    operator: the frame-like constants coincide with its spectral bounds."""
    fam = generate(GenSpec("random_frame", dim=3, count=6, seed=9))
    sys = PairSystem([1.0, 2.0, 0.5, 1.5, 1.0, 3.0], fam, fam)
    rep = classify_pair(sys)
    evals = np.linalg.eigvalsh(pair_operator(sys))
    assert rep.is_pair_frame
    assert_allclose(rep.framelike_lower, evals[0], atol=1e-9)
    assert_allclose(rep.framelike_upper, evals[-1], atol=1e-9)
    assert rep.condition_number == pytest.approx(evals[-1] / evals[0], rel=1e-8)
    assert rep.op_norm == op_norm(rep.S)
    assert rep.min_singular == np.linalg.svd(rep.S, compute_uv=False)[-1]
    assert_allclose([rep.min_singular, rep.op_norm], [evals[0], evals[-1]], rtol=1e-10)


def test_min_singular_hand_values():
    """Matching orthonormal families make S the diagonal of the weights;
    fewer members than dimensions leave S singular."""
    basis = OperatorFamily.from_vectors(np.eye(2))
    rep = classify_pair(PairSystem([2.0, 5.0], basis, basis))
    assert_allclose([rep.min_singular, rep.op_norm], [2.0, 5.0])
    short = OperatorFamily.from_vectors(np.eye(3)[:2])
    rep = classify_pair(PairSystem([2.0, 5.0], short, short))
    assert rep.min_singular == 0.0 and rep.op_norm == pytest.approx(5.0)
    assert not rep.is_pair_frame


@pytest.mark.parametrize("small", [0.0, 1e-14], ids=["singular", "tiny"])
def test_classify_pair_rejects_singular_operator(small):
    """sigma_min at or below PAIR_TOL * sigma_max is no pair frame and has
    no condition number."""
    basis = OperatorFamily.from_vectors(np.eye(2))
    rep = classify_pair(PairSystem([1.0, small], basis, basis))
    assert not rep.is_pair_frame and rep.condition_number is None
    assert rep.min_singular == pytest.approx(small, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("seed", range(8))
def test_min_singular_matches_adjoint_system(seed):
    """The adjoint system's operator is S^H, which has the singular values of S."""
    sys = random_pair_system(800 + seed)
    rep, adj = classify_pair(sys), classify_pair(sys.adjoint_system())
    assert abs(rep.min_singular - adj.min_singular) <= 1e-10
    assert abs(rep.op_norm - adj.op_norm) <= 1e-10 * max(1.0, rep.op_norm)
    assert rep.is_pair_frame == adj.is_pair_frame


def test_positive_framelike_lower_implies_pair_frame():
    for seed in range(20):
        sys = random_pair_system(200 + seed)
        rep = classify_pair(sys)
        if rep.framelike_lower > 1e-8 * max(1.0, rep.framelike_upper):
            assert rep.is_pair_frame


def test_swap_system_shows_converse_fails():
    """The swap system is an invertible pair frame whose numerical range
    touches the origin: a positive lower frame-like constant is sufficient
    for the pair-frame property but not necessary."""
    rep = classify_pair(generate_pair(GenSpec("swap_fixture", dim=2), GenSpec("orthonormal", dim=2)))
    assert rep.is_pair_frame
    assert rep.condition_number == pytest.approx(1.0)
    assert rep.framelike_lower == 0.0
    assert rep.framelike_upper == pytest.approx(1.0, abs=1e-12)


def test_framelike_constants_sandwich_quadratic_form():
    """framelike bounds contain |<S f, f>| for 1000 random unit vectors."""
    rng = rng_for(11)
    for seed in (300, 301, 302):
        sys = random_pair_system(seed)
        rep = classify_pair(sys)
        n = sys.ambient_dim
        for _ in range(334):
            f = unit_vector(rng, n)
            q = abs(np.vdot(f, rep.S @ f))
            assert rep.framelike_lower - 1e-6 <= q <= rep.framelike_upper + 1e-6


def test_framelike_constants_spectral_consistency():
    for seed in range(10):
        sys = random_pair_system(400 + seed)
        rep = classify_pair(sys)
        s = pair_operator(sys)
        norm = op_norm(s)
        smin = np.linalg.svd(s, compute_uv=False)[-1]
        # distance to origin never exceeds the smallest singular value,
        # and the numerical radius sits in [norm/2, norm]
        assert rep.framelike_lower <= smin + 1e-9
        assert norm / 2 - 1e-9 <= rep.framelike_upper <= norm + 1e-9


def test_framelike_gap_is_the_bracket_width():
    """framelike_gap is the wider width of the numerical-range bracket of S:
    at most 1e-13 * norm(S) plus the n * eps pad for a non-hermitian S, and
    norm_F(S - S^H)/2 for a hermitian one."""
    eps = np.finfo(float).eps
    for seed in range(6):
        sys = random_pair_system(500 + seed)
        rep = classify_pair(sys)
        bracket = numerical_range_bracket(rep.S)
        assert rep.framelike_gap == bracket.gap
        assert (rep.framelike_lower, rep.framelike_upper) == (bracket.dist_lo, bracket.radius_lo)
        assert rep.framelike_gap <= (1e-13 + sys.ambient_dim * eps) * rep.op_norm
    fam = generate(GenSpec("random_frame", dim=3, count=6, seed=9))
    rep = classify_pair(PairSystem([1.0, 2.0, 0.5, 1.5, 1.0, 3.0], fam, fam))
    half_skew = 0.5 * np.linalg.norm(rep.S - rep.S.conj().T)
    assert rep.framelike_gap == pytest.approx(half_skew, abs=4 * eps * rep.op_norm)


def test_compose_identity_is_noop():
    sys = random_pair_system(17)
    n = sys.ambient_dim
    composed = compose(sys, np.eye(n), np.eye(n))
    a, b = pair_operator(sys), pair_operator(composed)
    assert np.abs(a - b).max() <= 1e-12 * max(1.0, np.abs(a).max())


def test_compose_matches_congruence():
    """pair_operator(compose(P, V, W)) equals V^H S W."""
    rng = rng_for(23)
    for seed in range(15):
        sys = random_pair_system(500 + seed)
        n = sys.ambient_dim
        v = complex_noise(rng, (n, n))
        w = complex_noise(rng, (n, n))
        got = pair_operator(compose(sys, v, w))
        want = v.conj().T @ pair_operator(sys) @ w
        scale = 1.0 + op_norm(v) * op_norm(pair_operator(sys)) * op_norm(w)
        assert op_norm(got - want) <= 1e-12 * scale


@pytest.mark.parametrize("codims", [[1, 3, 2, 1, 2, 3, 1], [2] * 7], ids=["mixed", "uniform"])
def test_compose_maps_each_member(codims):
    """Each composed member is Gamma_i V (Lambda_i W), with the members'
    shapes kept, though both families are mapped by one product each."""
    gamma, lam = (
        generate(GenSpec("random_gframe", dim=4, count=7, seed=seed, params={"codims": codims}))
        for seed in (3, 4)
    )
    rng = rng_for(31)
    v, w = complex_noise(rng, (4, 4)), complex_noise(rng, (4, 4))
    composed = compose(PairSystem(np.ones(7), gamma, lam), v, w)
    for family, mapped, mat in ((gamma, composed.gamma, v), (lam, composed.lam, w)):
        assert mapped.codims == tuple(codims) and mapped.ambient_dim == 4
        for got, member in zip(mapped.members, family.members):
            assert_allclose(got, member @ mat, rtol=0, atol=1e-14 * op_norm(mat))


def test_compose_preserves_pair_frame_verdict():
    rng = rng_for(29)
    sys = generate_pair(GenSpec("swap_fixture", dim=2), GenSpec("orthonormal", dim=2))
    v = complex_noise(rng, (2, 2)) + 3 * np.eye(2)
    w = complex_noise(rng, (2, 2)) + 3 * np.eye(2)
    assert classify_pair(compose(sys, v, w)).is_pair_frame


def test_compose_shape_validation():
    sys = random_pair_system(31, dim=3)
    with pytest.raises(DimensionMismatchError):
        compose(sys, np.eye(2), np.eye(3))
    with pytest.raises(DimensionMismatchError):
        compose(sys, np.eye(3), np.ones((3, 4)))


def test_weights_absorb_into_gamma():
    """m_i Gamma_i^H Lambda_i = (conj(m_i) Gamma_i)^H Lambda_i."""
    sys = random_pair_system(37)
    absorbed_gamma = OperatorFamily(
        [np.conj(w) * g for w, g in zip(sys.m.values, sys.gamma.members)],
        sys.ambient_dim,
    )
    flat = PairSystem(np.ones(sys.count), absorbed_gamma, sys.lam)
    a, b = pair_operator(sys), pair_operator(flat)
    assert np.abs(a - b).max() <= 1e-12 * max(1.0, np.abs(a).max())


def test_overflow_raises_pair_frame_error():
    """Finite inputs whose pair operator, composed family or p-Bessel
    estimate leaves the floating-point range raise PairFrameError naming
    it, with no RuntimeWarning on the way."""
    basis = OperatorFamily.from_vectors(np.eye(2))
    tens = OperatorFamily.from_vectors(10.0 * np.eye(2))
    cases = [
        (lambda: pair_operator(PairSystem([1e308, 1e308], tens, tens)), "pair operator"),
        (lambda: compose(PairSystem([1.0, 1.0], tens, basis), 1e308 * np.eye(2), np.eye(2)),
         "composed gamma"),
        (lambda: p_bessel_bound(OperatorFamily.from_vectors(1e110 * np.eye(2)), 3.0),
         "p-Bessel estimate"),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call, name in cases:
            with pytest.raises(PairFrameError, match=f"{name} overflows"):
                call()


def test_p_bessel_orthonormal_values():
    basis = OperatorFamily.from_vectors(np.eye(2))
    # p = 2: the frame operator is the identity, so B_2 = 1 exactly
    assert p_bessel_bound(basis, 2.0) == pytest.approx(1.0, abs=1e-12)
    # p = 4: maximize |f_1|^4 + |f_2|^4 on the sphere -> 1 at a basis vector
    assert p_bessel_bound(basis, 4.0) == pytest.approx(1.0, abs=1e-9)
    # p = 1: maximize |f_1| + |f_2| -> sqrt(2) at the balanced vector
    assert p_bessel_bound(basis, 1.0) == pytest.approx(np.sqrt(2.0), abs=1e-7)


def test_p_bessel_two_matches_top_eigenvalue():
    for seed in (41, 42, 43):
        fam = generate(GenSpec("random_frame", dim=4, count=7, seed=seed))
        top = np.linalg.eigvalsh(np.asarray(
            sum(m.conj().T @ m for m in fam.members)))[-1]
        assert p_bessel_bound(fam, 2.0) == pytest.approx(top, rel=1e-10)


def test_p_bessel_two_runs_no_ascent(evaluations):
    """At p = 2 the top eigenvalue of the frame operator is B_2 itself: no
    start is evaluated, and the value is the eigenvalue bit for bit."""
    fam = generate(GenSpec("random_gframe", dim=32, count=64, seed=0, params={"codim": 2}))
    assert p_bessel_bound(fam, 2.0) == np.linalg.eigh(frame_operator(fam))[0][-1]
    assert evaluations == []


def test_p_bessel_is_lower_estimate():
    """No sampled unit vector beats the reported supremum estimate."""
    rng = rng_for(47)
    fam = generate(GenSpec("random_frame", dim=3, count=5, seed=12))
    for p in (1.5, 3.0):
        bound = p_bessel_bound(fam, p)
        for _ in range(200):
            f = unit_vector(rng, 3)
            val = sum(
                float(np.linalg.norm(m @ f) ** p) for m in fam.members
            )
            assert val <= bound + 1e-9 * max(1.0, bound)


@pytest.mark.parametrize("c", [1e-3, 1e4])
@pytest.mark.parametrize("p", [1.5, 3.0])
def test_p_bessel_is_scale_equivariant(p, c):
    """B_p(cL) = c^p B_p(L): neither the step nor the stop sees the scale."""
    for fam in (
        generate(GenSpec("random_frame", dim=3, count=5, seed=12)),
        generate(GenSpec("random_gframe", dim=6, count=8, seed=5)),
    ):
        scaled = OperatorFamily([c * m for m in fam.members], fam.ambient_dim)
        assert p_bessel_bound(scaled, p) == pytest.approx(c**p * p_bessel_bound(fam, p), rel=1e-12)


@pytest.fixture
def evaluations(monkeypatch):
    """The column count of each _objective_grad call, in call order."""
    columns = []
    evaluate = pairs._objective_grad

    def counting_evaluate(*args):
        columns.append(args[-1].shape[1])
        return evaluate(*args)

    monkeypatch.setattr(pairs, "_objective_grad", counting_evaluate)
    return columns


def test_p_bessel_evaluates_once_per_step_plus_one_jump_batch_per_merge(evaluations):
    """One evaluation of all starts per power step, plus the first, plus at
    most one batch of Aitken jumps every _MERGE_EVERY steps."""
    fam = generate(GenSpec("random_gframe", dim=32, count=64, seed=0, params={"codim": 2}))
    assert p_bessel_bound(fam, 3.0) > 0.0
    assert len(evaluations) <= pairs._MAX_ITERS + 1 + pairs._MAX_ITERS // pairs._MERGE_EVERY


def _objective_args(family: OperatorFamily, p: float) -> tuple:
    return family.stacked, np.array(family.offsets), np.array(family.codims), float(p)


def _starts(family: OperatorFamily, restarts: int, seed: int) -> np.ndarray:
    """The unit starts of p_bessel_bound: the top eigenvector of the frame
    operator, then ``restarts`` random ones drawn from ``seed``."""
    n = family.ambient_dim
    rng = np.random.Generator(np.random.PCG64(seed))
    starts = rng.standard_normal((n, restarts)) + 1j * rng.standard_normal((n, restarts))
    _, top_vec = np.linalg.eigh(frame_operator(family))
    X = np.concatenate([top_vec[:, -1:], starts], axis=1)
    return X / np.linalg.norm(X, axis=0)


def _plain_power_bound(family: OperatorFamily, p: float, restarts: int = 32, seed: int = 0) -> float:
    """p_bessel_bound with the plain power step x <- g/||g|| and no merging
    (the same starts, tolerance and step budget): the reference the shifted
    iteration must not fall below."""
    args = _objective_args(family, p)
    X = _starts(family, restarts, seed)
    phi, grad = pairs._objective_grad(*args, X)
    best = phi.max()
    for _ in range(pairs._MAX_ITERS):
        gnorm = np.linalg.norm(grad, axis=0)
        inner = np.real(np.sum(X.conj() * grad, axis=0))
        moving = np.linalg.norm(grad - X * inner, axis=0) > pairs._GRAD_TOL * gnorm
        if not moving.any():
            break
        X = grad[:, moving] / gnorm[moving]
        phi, grad = pairs._objective_grad(*args, X)
        best = max(best, phi.max())
    return float(best)


def _unaccelerated_bound(family: OperatorFamily, p: float, restarts: int = 32, seed: int = 0) -> float:
    """p_bessel_bound at any p without the Aitken jumps: the shifted,
    merged iteration from the same starts, tolerance and step budget, the
    reference the jumps must not fall below."""
    args = _objective_args(family, p)
    X = _starts(family, restarts, seed)
    phi, grad = pairs._objective_grad(*args, X)
    best = phi.max()
    for step in range(pairs._MAX_ITERS):
        merge = step % pairs._MERGE_EVERY == pairs._MERGE_EVERY - 1
        X, _ = pairs._power_step(X, phi, grad, merge=merge)
        if not X.shape[1]:
            break
        phi, grad = pairs._objective_grad(*args, X)
        best = max(best, phi.max())
    return float(best)


def _small_corpus() -> list:
    """13 small families with mixed codimensions."""
    fams = [random_pair_system(2000 + k).gamma for k in range(12)]
    fams.append(generate(GenSpec("random_gframe", dim=12, count=24, seed=3, params={"codim": 1})))
    return fams


def test_p_bessel_is_no_lower_than_the_plain_power_step():
    """On a fixed corpus of families and exponents, the shifted, merged
    iteration ends no lower than the plain step from the same starts."""
    for k, fam in enumerate(_small_corpus()):
        for p in (1.0, 1.5, 2.0, 3.0, 4.0):
            new = p_bessel_bound(fam, p, restarts=12, seed=k)
            old = _plain_power_bound(fam, p, restarts=12, seed=k)
            assert new >= old * (1.0 - 1e-12), (k, p, new, old)


@settings(max_examples=60, deadline=None)
@given(p=st.floats(1.0, 5.0), seed=st.integers(0, 2**32 - 1))
def test_power_step_never_lowers_phi(p, seed):
    """No shifted step lowers any start's phi, for p in [1, 5], on random
    families with mixed codimensions and, at times, a zero member."""
    rng = rng_for(seed)
    dim = int(rng.integers(2, 9))
    members = [complex_noise(rng, (int(d), dim)) for d in rng.integers(1, 4, int(rng.integers(1, 10)))]
    if rng.uniform() < 0.3:
        members.append(np.zeros((1, dim)))
    args = _objective_args(OperatorFamily(members, dim), p)
    X = complex_noise(rng, (dim, 6))
    X /= np.linalg.norm(X, axis=0)
    phi, grad = pairs._objective_grad(*args, X)
    for _ in range(20):
        nxt, moving = pairs._power_step(X, phi, grad, merge=False)
        assert moving.shape == phi.shape and nxt.shape[1] == moving.sum()
        if not moving.all():
            break  # a start has stopped: the columns no longer line up
        phi_next, grad = pairs._objective_grad(*args, nxt)
        assert (phi_next >= phi * (1.0 - 1e-12)).all(), (phi_next - phi) / phi
        X, phi = nxt, phi_next


def test_power_step_retires_a_start_duplicated_up_to_phase():
    """Of two starts equal up to a phase, the merge keeps one, whose next
    iterate is the other's up to phase; a third start is untouched."""
    fam = generate(GenSpec("random_gframe", dim=6, count=8, seed=5))
    args = _objective_args(fam, 3.0)
    rng = rng_for(7)
    x, y = unit_vector(rng, 6), unit_vector(rng, 6)
    X = np.stack([x, np.exp(0.7j) * x, y], axis=1)
    phi, grad = pairs._objective_grad(*args, X)
    nxt, moving = pairs._power_step(X, phi, grad, merge=False)
    assert nxt.shape[1] == 3 and moving.all()
    kept, moving = pairs._power_step(X, phi, grad, merge=True)
    assert kept.shape[1] == 2 and moving.sum() == 2 and moving[2]
    alone, _ = pairs._power_step(X[:, [0, 2]], phi[[0, 2]], grad[:, [0, 2]], merge=False)
    assert abs(np.vdot(kept[:, 0], alone[:, 0])) == pytest.approx(1.0, abs=1e-12)
    assert_allclose(kept[:, 1], alone[:, 1], rtol=0, atol=1e-12)


#: column evaluations of _objective_grad by the plain power step over the two
#: n = 32 families of the test below at p = 3 and q = 1.5 (8591 + 4755 and
#: 11168 + 10496 with one BLAS thread)
_PLAIN_STEP_COLUMNS = 35010


def _two_fixed_families() -> list:
    return [
        generate(GenSpec("random_gframe", dim=32, count=64, seed=0, params={"codim": 2})),
        generate(GenSpec("random_gframe", dim=32, count=64, seed=1)),
    ]


def test_p_bessel_needs_at_most_six_tenths_of_the_plain_step_evaluations(evaluations):
    """Column evaluations of _objective_grad on two fixed n = 32 families at
    p = 3 and q = 1.5: the shifted, merged iteration needs at most 0.6 of
    the plain step's, and ends no lower."""
    columns = evaluations
    plain_columns = shifted_columns = 0
    for fam in _two_fixed_families():
        for p in (3.0, 1.5):
            plain = _plain_power_bound(fam, p)
            plain_columns += sum(columns)
            columns.clear()
            assert p_bessel_bound(fam, p) >= plain * (1.0 - 1e-12)
            shifted_columns += sum(columns)
            columns.clear()
    # another BLAS may round a start's stop test a step earlier or later
    assert plain_columns == pytest.approx(_PLAIN_STEP_COLUMNS, rel=0.02)
    assert shifted_columns <= 0.6 * _PLAIN_STEP_COLUMNS


#: _objective_grad calls and column evaluations without the Aitken jumps
#: over the two families of the test above at p = 3 and q = 1.5 (130 + 64 +
#: 501 + 158 calls, 1698 + 1072 + 3936 + 2286 columns, one BLAS thread)
_UNACCELERATED_CALLS = 853
_UNACCELERATED_COLUMNS = 8992


def test_aitken_jumps_save_a_third_of_the_evaluations(evaluations):
    """On the same two families, the Aitken jumps cut both the calls of
    _objective_grad and the columns they evaluate to at most 0.65 of the
    unaccelerated iteration's, and the estimates end no lower."""
    totals = {"unaccelerated": [0, 0], "jumps": [0, 0]}
    for fam in _two_fixed_families():
        for p in (3.0, 1.5):
            ref = _unaccelerated_bound(fam, p)
            totals["unaccelerated"][0] += len(evaluations)
            totals["unaccelerated"][1] += sum(evaluations)
            evaluations.clear()
            assert p_bessel_bound(fam, p) >= ref * (1.0 - 1e-12)
            totals["jumps"][0] += len(evaluations)
            totals["jumps"][1] += sum(evaluations)
            evaluations.clear()
    # another BLAS may round a start's stop test a step earlier or later
    assert totals["unaccelerated"][0] == pytest.approx(_UNACCELERATED_CALLS, rel=0.02)
    assert totals["unaccelerated"][1] == pytest.approx(_UNACCELERATED_COLUMNS, rel=0.02)
    assert totals["jumps"][0] <= 0.65 * _UNACCELERATED_CALLS
    assert totals["jumps"][1] <= 0.65 * _UNACCELERATED_COLUMNS


def test_aitken_jumps_end_no_lower_than_the_unaccelerated_iteration():
    """On the small corpus at p in {1, 1.5, 3, 4} and on eight n = 32
    families at p = 3 and 1.5, the estimate with the jumps is at least the
    unaccelerated one from the same starts."""
    cases = [(fam, p, 12, k) for k, fam in enumerate(_small_corpus()) for p in (1.0, 1.5, 3.0, 4.0)]
    for k in range(8):
        fam = generate(GenSpec("random_gframe", dim=32, count=64, seed=100 + k,
                               params={"codim": 1 + k % 3}))
        cases += [(fam, p, 32, k) for p in (3.0, 1.5)]
    for fam, p, restarts, seed in cases:
        new = p_bessel_bound(fam, p, restarts=restarts, seed=seed)
        ref = _unaccelerated_bound(fam, p, restarts=restarts, seed=seed)
        assert new >= ref * (1.0 - 1e-12), (fam.ambient_dim, p, seed, new, ref)


@settings(max_examples=60, deadline=None)
@given(p=st.floats(1.0, 5.0), seed=st.integers(0, 2**32 - 1))
def test_aitken_jump_never_lowers_phi(p, seed):
    """After three power steps of random unit starts, a jump keeps every
    column a unit vector, replaces only columns whose phi it raises, and
    hands back the phi and gradient of the columns it leaves."""
    rng = rng_for(seed)
    dim = int(rng.integers(2, 9))
    members = [complex_noise(rng, (int(d), dim)) for d in rng.integers(1, 4, int(rng.integers(1, 10)))]
    args = _objective_args(OperatorFamily(members, dim), p)
    X = complex_noise(rng, (dim, 6))
    path = [X / np.linalg.norm(X, axis=0)]
    phi, grad = pairs._objective_grad(*args, path[0])
    for _ in range(2):
        nxt, moving = pairs._power_step(path[-1], phi, grad, merge=False)
        path = [x[:, moving] for x in path] + [nxt]
        phi, grad = pairs._objective_grad(*args, nxt)
    x0, x1, x2 = path
    before, phi_before = x2.copy(), phi.copy()
    pairs._aitken_jump(lambda Y: pairs._objective_grad(*args, Y), x0, x1, x2, phi, grad)
    jumped = (x2 != before).any(axis=0)
    assert (phi[jumped] > phi_before[jumped]).all()
    assert (phi[~jumped] == phi_before[~jumped]).all()
    assert_allclose(np.linalg.norm(x2, axis=0), 1.0, rtol=1e-14)
    phi_again, grad_again = pairs._objective_grad(*args, x2)
    assert_allclose(phi, phi_again, rtol=1e-12)
    assert_allclose(grad, grad_again, rtol=1e-12, atol=1e-12 * np.abs(grad_again).max())


def test_pq_bound_memory_peak_on_a_near_identity_system():
    """One Hoelder bound at p = 3 and q = 1.5 of an n = 32 system of 64
    members with codimensions 1-3, Lambda near Gamma, allocates at most
    0.6 MB at its peak: the Aitken jumps are a batch of their own, at most
    as wide as the starts still moving."""
    rng = rng_for(61)
    codims = [int(d) for d in rng.integers(1, 4, size=64)]
    gamma = generate(GenSpec("random_gframe", dim=32, count=64, seed=61, params={"codims": codims}))
    lam = OperatorFamily([g + 0.05 * complex_noise(rng, g.shape) / np.sqrt(g.size)
                          for g in gamma.members], 32)
    system = PairSystem(np.exp(1j * rng.uniform(-0.3, 0.3, size=64)), gamma, lam)
    tracemalloc.start()
    try:
        pq_pair_norm_bound(system, 3.0, 1.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.6e6


def test_p_bessel_rejects_bad_arguments():
    basis = OperatorFamily.from_vectors(np.eye(2))
    with pytest.raises(InvalidExponentError):
        p_bessel_bound(basis, 0.5)
    with pytest.raises(InvalidExponentError):
        p_bessel_bound(basis, float("nan"))
    with pytest.raises(ValueError, match="restarts must be >= 1"):
        p_bessel_bound(basis, 2.0, restarts=0)
    with pytest.raises(TypeError, match="restarts must be an integer, got 2.5"):
        p_bessel_bound(basis, 3.0, restarts=2.5)
    with pytest.raises(TypeError, match="seed must be an integer, got 1.5"):
        p_bessel_bound(basis, 3.0, seed=1.5)
    with pytest.raises(ValueError, match="seed must be >= 0"):
        p_bessel_bound(basis, 3.0, seed=-1)
    assert p_bessel_bound(basis, 4.0, restarts=np.int64(2), seed=np.uint8(1)) == pytest.approx(1.0)


def test_pq_bound_mercedes():
    fam = generate(GenSpec("mercedes", dim=2))
    sys = PairSystem(np.ones(3), fam, fam)
    rep = pq_pair_norm_bound(sys, 2.0, 2.0)
    assert rep.norm == pytest.approx(1.5, abs=1e-10)
    assert rep.holder_bound == pytest.approx(1.5, abs=1e-9)
    assert rep.paper_bound == pytest.approx(np.sqrt(1.5), abs=1e-9)
    # the square-root form falls below the actual operator norm here
    assert rep.paper_bound < rep.norm


def test_pq_bound_dominates_norm():
    for k, (p, q) in enumerate([(2.0, 2.0), (1.5, 3.0), (3.0, 1.5), (4.0, 4.0 / 3.0)]):
        sys = random_pair_system(600 + k, dim=3, count=5)
        rep = pq_pair_norm_bound(sys, p, q, seed=k)
        assert rep.norm <= rep.holder_bound + 1e-6
        assert rep.paper_bound == pytest.approx(np.sqrt(rep.holder_bound))


def test_pq_bound_exponent_validation():
    sys = random_pair_system(51)
    with pytest.raises(InvalidExponentError):
        pq_pair_norm_bound(sys, 0.5, 2.0)
    with pytest.raises(ExponentMismatchError):
        pq_pair_norm_bound(sys, 2.0, 3.0)
