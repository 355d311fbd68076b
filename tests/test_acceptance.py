"""End-to-end acceptance suite.

Each test covers one numbered criterion of the library contract and prints a
single ``criterion N: PASS/FAIL`` line (visible with ``pytest -s``; under
plain ``pytest -v`` the per-test PASSED/FAILED line carries the same verdict).
"""

import numpy as np
import pytest
from conftest import classification_specs, complex_noise, random_pair_system, rng_for
from oracle import brute_numerical_range, sphere_extremes
from test_cli import FIX, GOLDEN_CASES, GOLD, run_cli

from pairframe import (
    GenSpec,
    OperatorFamily,
    PairSystem,
    analysis,
    canonical_dual,
    classify,
    classify_pair,
    compose,
    find_alpha,
    frame_operator,
    generate,
    generate_pair,
    neumann_inverse,
    numerical_range_bounds,
    op_norm,
    p_bessel_bound,
    pair_operator,
    pq_pair_norm_bound,
    reconstruct,
    synthesis,
)
from pairframe.frames import FRAME_TOL


def _verdict(num: int, failures: list, detail: str) -> None:
    ok = not failures
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {num}: {len(failures)} failure(s); first: {failures[0]}"


# ---------------------------------------------------------------------------
# 1. classification equivalence: six verdicts agree on >= 50 families


def test_criterion_1_classification_equivalence():
    specs = classification_specs()
    assert len(specs) >= 50
    failures = []
    for spec in specs:
        fam = generate(spec)
        rep = classify(fam)
        s = frame_operator(fam)
        a, b = rep.bounds.lower, rep.bounds.upper
        residual_ok = b > 0.0 and op_norm(np.eye(fam.ambient_dim) - s / b) < 1.0 - 1e-10
        # the SVD gate at the verdict's relative tolerance, independent of classify
        sv = np.linalg.svd(s, compute_uv=False)
        verdicts = {
            "is_frame": rep.is_frame,
            "lower_bound_positive": a > 1e-10 * b,
            "residual_below_one": residual_ok,
            "invertible": rep.cert_invertible,
            "surjective": rep.cert_surjective,
            "svd_invertible": sv[-1] > FRAME_TOL * sv[0],
        }
        if len(set(verdicts.values())) != 1:
            failures.append(f"{spec}: verdicts diverge: {verdicts}")
        if rep.is_frame:
            residual = op_norm(np.eye(fam.ambient_dim) - s / b)
            if residual > 1.0 - a / b + 1e-10:
                failures.append(
                    f"{spec}: residual {residual} exceeds 1 - A/B = {1.0 - a / b}"
                )
            if rep.alpha_star != pytest.approx(1.0 / b, rel=1e-12):
                failures.append(f"{spec}: alpha_star != 1/B")
    _verdict(1, failures, f"six verdicts agree on {len(specs)} families")


# ---------------------------------------------------------------------------
# 2. tight-frame bound values


def test_criterion_2_tight_frame_values():
    failures = []
    rep = classify(generate(GenSpec("mercedes", dim=2)))
    if abs(rep.bounds.lower - 1.5) > 1e-10 or abs(rep.bounds.upper - 1.5) > 1e-10:
        failures.append(f"mercedes bounds {rep.bounds} != (1.5, 1.5)")
    rep = classify(generate(GenSpec("harmonic", dim=2, count=4)))
    if abs(rep.bounds.lower - 2.0) > 1e-10 or abs(rep.bounds.upper - 2.0) > 1e-10:
        failures.append(f"harmonic(2,4) bounds {rep.bounds} != (2, 2)")
    for d in (1, 2, 3, 5, 8):
        rep = classify(generate(GenSpec("orthonormal", dim=d)))
        if abs(rep.bounds.lower - 1.0) > 1e-12 or abs(rep.bounds.upper - 1.0) > 1e-12:
            failures.append(f"orthonormal dim {d} bounds {rep.bounds} != (1, 1)")
    _verdict(2, failures, "mercedes/harmonic/orthonormal optimal bounds")


# ---------------------------------------------------------------------------
# 3. adjoint identity on 100 random pair systems


def test_criterion_3_adjoint_identity():
    failures = []
    for seed in range(100):
        sys = random_pair_system(seed)
        s = pair_operator(sys)
        s_adj = pair_operator(sys.adjoint_system())
        gap = op_norm(s.conj().T - s_adj)
        if gap > 1e-12 * (1.0 + op_norm(s)):
            failures.append(f"seed {seed}: adjoint gap {gap}")
    _verdict(3, failures, "swap-and-conjugate realizes the adjoint, 100 systems")


# ---------------------------------------------------------------------------
# 4. composition identity on 100 random triples


def _well_conditioned(rng, n: int) -> np.ndarray:
    while True:
        m = complex_noise(rng, (n, n))
        sv = np.linalg.svd(m, compute_uv=False)
        if sv[0] <= 1e3 * sv[-1]:
            return m


def test_criterion_4_composition_identity():
    failures = []
    rng = rng_for(2024)
    for seed in range(100):
        sys = random_pair_system(1000 + seed)
        n = sys.ambient_dim
        v = _well_conditioned(rng, n)
        w = _well_conditioned(rng, n)
        s = pair_operator(sys)
        got = pair_operator(compose(sys, v, w))
        want = v.conj().T @ s @ w
        scale = 1.0 + op_norm(v) * op_norm(s) * op_norm(w)
        if op_norm(got - want) > 1e-12 * scale:
            failures.append(f"seed {seed}: composition gap {op_norm(got - want)}")
        before = classify_pair(sys).is_pair_frame
        after = classify_pair(compose(sys, v, w)).is_pair_frame
        if before != after:
            failures.append(f"seed {seed}: verdict flipped {before} -> {after}")
    _verdict(4, failures, "V^H S W identity and verdict preservation, 100 triples")


# ---------------------------------------------------------------------------
# 5. Neumann decay and telescoping


def _neumann_fixtures():
    fixtures = [(np.diag([1.0, 3.0]), 0.5)]
    for spec in classification_specs():
        if spec.dim > 16:
            continue
        fam = generate(spec)
        s = frame_operator(fam)
        near = find_alpha(s)
        if near.is_near_identity:
            fixtures.append((s, near.alpha))
    rng = rng_for(55)
    for _ in range(3):  # non-hermitian near-identity instances
        m = np.eye(3) * (1.0 + 0.3j) + 0.1 * complex_noise(rng, (3, 3))
        near = find_alpha(m)
        if near.is_near_identity:
            fixtures.append((m, near.alpha))
    return fixtures


def test_criterion_5_neumann_decay():
    failures = []
    fixtures = _neumann_fixtures()
    for k, (s, alpha) in enumerate(fixtures):
        n = s.shape[0]
        eye = np.eye(n)
        r_op = eye - alpha * s
        r = op_norm(r_op)
        if not r < 1.0:
            failures.append(f"fixture {k}: residual {r} not below 1")
            continue
        r_pow = eye.astype(complex)
        for order in range(21):
            r_pow = r_pow @ r_op
            j = neumann_inverse(s, alpha, order)
            defect = eye - j @ s
            if op_norm(defect) > r ** (order + 1) + 1e-9:
                failures.append(
                    f"fixture {k}, N={order}: error {op_norm(defect)} above bound"
                )
            if op_norm(defect - r_pow) > 1e-10:
                failures.append(f"fixture {k}, N={order}: telescoping gap")
    j3 = neumann_inverse(np.diag([1.0, 3.0]), 0.5, 3)
    err3 = op_norm(np.eye(2) - j3 @ np.diag([1.0, 3.0]))
    if abs(err3 - 0.0625) > 1e-12:
        failures.append(f"diag(1,3) N=3 error {err3} != 0.0625")
    _verdict(5, failures, f"geometric decay and telescoping on {len(fixtures)} fixtures")


# ---------------------------------------------------------------------------
# 6. Hoelder-type norm bound on 100 (p, q) systems


def test_criterion_6_holder_bound():
    failures = []
    sqrt_form_held = 0
    exponents = (1.5, 2.0, 3.0, 4.0)
    for k in range(100):
        p = exponents[k % 4]
        q = p / (p - 1.0)
        sys = random_pair_system(2000 + k, dim=2 + k % 3, count=4 + k % 3)
        rep = pq_pair_norm_bound(sys, p, q, restarts=12, seed=k)
        if rep.norm > rep.holder_bound + 1e-6:
            failures.append(
                f"seed {2000 + k} (p={p}): norm {rep.norm} > bound {rep.holder_bound}"
            )
        if rep.norm <= rep.paper_bound + 1e-6:
            sqrt_form_held += 1
    _verdict(
        6,
        failures,
        f"norm <= sup|m| B^(1/p) B'^(1/q) on 100 systems "
        f"(sqrt form held on {sqrt_form_held}/100, informational)",
    )


# ---------------------------------------------------------------------------
# 7. oracle agreement in dims 2-3


def _p_objective(family: OperatorFamily, p: float):
    stacked = family.stacked
    offsets = np.array(family.offsets)

    def objective(points: np.ndarray) -> np.ndarray:
        points = np.atleast_2d(points)
        sq = np.abs(stacked @ points.T) ** 2
        r = np.sqrt(np.add.reduceat(sq, offsets, axis=0))
        return (r**p).sum(axis=0)

    return objective


def test_criterion_7_oracle_agreement():
    failures = []
    rng = rng_for(73)

    matrices = [
        pair_operator(generate_pair(GenSpec("swap_fixture", dim=2), GenSpec("orthonormal", dim=2))),
        np.diag([0.5, 2.0]),
        frame_operator(generate(GenSpec("mercedes", dim=2))),
    ]
    matrices += [complex_noise(rng, (d, d)) for d in (2, 3, 3)]
    for k, m in enumerate(matrices):
        lo_fast, hi_fast = numerical_range_bounds(m)
        lo_ref, hi_ref = brute_numerical_range(m)
        scale = max(1.0, hi_fast)
        if abs(lo_fast - lo_ref) > 1e-3 * scale or abs(hi_fast - hi_ref) > 1e-3 * scale:
            failures.append(
                f"matrix {k}: numerical range ({lo_fast}, {hi_fast}) vs brute ({lo_ref}, {hi_ref})"
            )

    swap = matrices[0]
    lo_ref, _ = brute_numerical_range(swap)
    if not (lo_ref <= 1e-3 and np.linalg.svd(swap, compute_uv=False)[-1] == pytest.approx(1.0)):
        failures.append("swap fixture: expected distance ~0 with min singular value 1")

    families = [
        generate(GenSpec("orthonormal", dim=2)),
        generate(GenSpec("mercedes", dim=2)),
        generate(GenSpec("harmonic", dim=2, count=4)),
        generate(GenSpec("random_frame", dim=3, count=5, seed=4)),
        generate(GenSpec("random_gframe", dim=3, count=3, seed=6, params={"codim": 2})),
    ]
    for fam in families:
        for p in (1.0, 1.5, 2.0, 3.0, 4.0):
            fast = p_bessel_bound(fam, p)
            _, ref = sphere_extremes(_p_objective(fam, p), fam.ambient_dim)
            if abs(fast - ref) > 1e-3 * max(fast, ref):
                failures.append(
                    f"family {fam.count}x{fam.ambient_dim}, p={p}: {fast} vs oracle {ref}"
                )
    _verdict(7, failures, "fast paths match brute-force sphere oracles in dims 2-3")


# ---------------------------------------------------------------------------
# 8. reconstruction quality


def test_criterion_8_reconstruction():
    failures = []
    rng = rng_for(88)
    for k in range(100):
        dim = 2 + k % 7
        spec = GenSpec("random_frame", dim=dim, count=dim + 2 + k % 5, seed=3000 + k)
        fam = generate(spec)
        dual = canonical_dual(fam)
        f = complex_noise(rng, dim)
        rec = synthesis(dual, analysis(fam, f))
        rel = np.linalg.norm(rec - f) / np.linalg.norm(f)
        if rel > 1e-8:
            failures.append(f"seed {3000 + k}: dual reconstruction error {rel}")

    for k in range(20):
        dim = 2 + k % 4
        fam = generate(GenSpec("random_frame", dim=dim, count=dim + 3, seed=4000 + k))
        system = PairSystem(np.ones(fam.count), fam, fam)
        near = find_alpha(pair_operator(system))
        if not near.is_near_identity:
            failures.append(f"seed {4000 + k}: frame operator not near-identity")
            continue
        f = complex_noise(rng, dim)
        for order in (0, 3, 7):
            _, rel = reconstruct(system, near.alpha, order, f)
            if rel > near.residual ** (order + 1) + 1e-9:
                failures.append(
                    f"seed {4000 + k}, N={order}: rel error {rel} above geometric bound"
                )
    _verdict(8, failures, "dual (100 frames) and Neumann (20 systems) reconstruction")


# ---------------------------------------------------------------------------
# 9. CLI contract


def test_criterion_9_cli_contract():
    failures = []
    by_command = {}
    for args, golden in GOLDEN_CASES:
        key = args[0] if args[0] != "frame" and args[0] != "pair" else " ".join(args[:2])
        by_command.setdefault(key, (args, golden))
    for args, golden in by_command.values():  # one golden case per command
        proc = run_cli(*args, check_exit=None)
        if proc.returncode != 0:
            failures.append(f"{args}: exit {proc.returncode}")
        elif proc.stdout != (GOLD / golden).read_bytes():
            failures.append(f"{args}: output differs from {golden}")

    for args, expected in [
        (("frame", "analyze", str(FIX / "bad.json")), 2),
        (("pair", "analyze", str(FIX / "mismatch.json")), 3),
        (("dual", str(FIX / "rank_deficient2.json")), 4),
        (("neumann", str(FIX / "swap_pair.json")), 4),
    ]:
        proc = run_cli(*args, check_exit=None)
        if proc.returncode != expected:
            failures.append(f"{args}: exit {proc.returncode}, expected {expected}")

    gen_args = ("gen", "random_frame", "--dim", "3", "--count", "6", "--seed", "5")
    a = run_cli(*gen_args, check_exit=None)
    b = run_cli(*gen_args, check_exit=None)
    if a.stdout != b.stdout or a.returncode != 0:
        failures.append("gen determinism: same seed produced different bytes")
    _verdict(9, failures, "golden outputs, exit codes 0/2/3/4, gen determinism")
