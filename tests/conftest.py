"""Shared fixture corpora and helpers for the test suite."""

from __future__ import annotations

import os
from pathlib import Path

# One BLAS thread, set before numpy loads: under CPU contention a threaded
# BLAS slows the suite several-fold. Child CLI interpreters inherit these
# through src_env().
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np
import pytest

from pairframe import GenSpec, OperatorFamily, PairSystem, WeightSequence, generate


SRC = Path(__file__).resolve().parent.parent / "src"


def src_env() -> dict:
    """This process's environment with ``src`` first on PYTHONPATH, so a
    child interpreter imports the pairframe of this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


@pytest.fixture
def lapack_calls(monkeypatch):
    """``lapack_calls(*names)`` wraps each named ``numpy.linalg`` function
    and returns a dict counting its calls from then on; ``monkeypatch.undo()``
    ends the count."""

    def count(*names) -> dict:
        calls = dict.fromkeys(names, 0)
        for name in names:
            original = getattr(np.linalg, name)

            def counting(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counting)
        return calls

    return count


def rng_for(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


def complex_noise(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def unit_vector(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = complex_noise(rng, dim)
    return v / np.linalg.norm(v)


def classification_specs() -> list:
    """>= 50 family recipes spanning every generator kind, dims 1..64."""
    specs = [GenSpec("orthonormal", dim=d) for d in (1, 2, 3, 5, 8, 16)]
    specs.append(GenSpec("mercedes", dim=2))
    specs += [
        GenSpec("harmonic", dim=d, count=c)
        for d, c in ((2, 2), (2, 4), (3, 7), (4, 4), (5, 12), (6, 9))
    ]
    specs += [
        GenSpec("random_frame", dim=d, count=c, seed=s)
        for s, (d, c) in enumerate(
            # counts >= ~3x dim once dim grows: random unit rows only clear the
            # generator's conditioning floor at comfortable aspect ratios
            [(2, 3), (2, 6), (3, 4), (3, 9), (4, 5), (5, 8), (6, 6), (8, 24),
             (10, 30), (12, 40), (16, 48), (24, 80), (32, 100), (48, 150), (64, 200)]
        )
    ]
    specs += [
        GenSpec("rank_deficient", dim=d, count=c)
        for d, c in ((1, 1), (2, 2), (2, 5), (3, 3), (4, 6), (6, 8), (8, 8), (16, 20))
    ]
    specs += [
        GenSpec("prescribed_spectrum", dim=d, count=d + pad, seed=31 + k,
                params={"eigenvalues": list(eigs)})
        for k, (d, pad, eigs) in enumerate(
            [
                (2, 0, (0.5, 2.0)),
                (2, 2, (1.0, 1.0)),
                (3, 0, (0.1, 1.0, 10.0)),
                (3, 1, (2.0, 2.0, 2.0)),
                (4, 0, (0.25, 0.5, 1.0, 8.0)),
                (5, 2, (0.5, 1.0, 1.5, 2.0, 2.5)),
                (6, 0, (0.05, 0.1, 0.2, 0.4, 0.8, 1.6)),
                (8, 0, tuple(float(j) for j in range(1, 9))),
            ]
        )
    ]
    specs += [
        GenSpec("weighted", dim=3, params={"scales": [1.0, 2.0, 0.5]}),
        GenSpec("weighted", dim=2, params={"scales": [1.0, 1.0]}),
        GenSpec("swap_fixture", dim=2),
        GenSpec("swap_fixture", dim=4),
        GenSpec("random_gframe", dim=3, count=4, seed=77, params={"codim": 2}),
        GenSpec("random_gframe", dim=4, count=6, seed=78, params={"codims": [1, 2, 3, 1, 2, 2]}),
    ]
    assert len(specs) >= 50
    return specs


def random_gframe_family(rng: np.random.Generator, dim: int, count: int, max_codim: int = 3) -> OperatorFamily:
    members = []
    for _ in range(count):
        d = int(rng.integers(1, max_codim + 1))
        members.append(complex_noise(rng, (d, dim)))
    return OperatorFamily(members, dim)


def random_pair_system(seed: int, dim: int | None = None, count: int | None = None) -> PairSystem:
    """Random pair system with complex weights and mixed member codimensions."""
    rng = rng_for(seed)
    if dim is None:
        dim = int(rng.integers(2, 7))
    if count is None:
        count = int(rng.integers(dim, dim + 5))
    codims = [int(rng.integers(1, 4)) for _ in range(count)]
    gamma = OperatorFamily([complex_noise(rng, (d, dim)) for d in codims], dim)
    lam = OperatorFamily([complex_noise(rng, (d, dim)) for d in codims], dim)
    weights = WeightSequence(complex_noise(rng, count))
    return PairSystem(weights, gamma, lam)


def family_for(spec: GenSpec) -> OperatorFamily:
    return generate(spec)


#: exponents k of the scale tests: 2^k S is outside the range where an
#: unscaled alpha search or numerical-range bracket works
SCALE_EXPONENTS = [-900, -600, 600, 900]


def scale_matrices() -> list:
    """(name, S) of the scale tests: the near-identity
    S0 = e^{0.4i} (I + 0.3 G / sqrt 8), G complex gaussian from
    default_rng(1); the operator of fixtures/complex_weights.json; and the
    hermitian definite frame operator of a random frame."""
    rng = np.random.default_rng(1)
    g = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    frame = generate(GenSpec("random_frame", dim=6, count=18, seed=4)).stacked
    return [
        ("near-identity", np.exp(0.4j) * (np.eye(8) + 0.3 * g / np.sqrt(8))),
        ("complex-weights", np.diag([1.0, 0.8j, 0.5 + 0.5j])),
        ("hermitian", frame.conj().T @ frame),
    ]


# Reference routes: the operators summed member by member, independent of the
# library's stacked factorizations L^H L and Gamma^H diag(m) Lambda.


def summed_frame_operator(family: OperatorFamily) -> np.ndarray:
    """S = sum of L_i^H L_i, accumulated member by member."""
    n = family.ambient_dim
    s = np.zeros((n, n), dtype=np.complex128)
    for m in family.members:
        s += m.conj().T @ m
    return s


def summed_pair_operator(system: PairSystem) -> np.ndarray:
    """S = sum of m_i Gamma_i^H Lambda_i, accumulated member by member."""
    n = system.ambient_dim
    s = np.zeros((n, n), dtype=np.complex128)
    for w, g, l in zip(system.m.values, system.gamma.members, system.lam.members):
        s += w * (g.conj().T @ l)
    return s
