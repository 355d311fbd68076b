"""Deterministic constructors for canonical frames, randomized families, and
adversarial fixtures.

Every construction is a pure function of its GenSpec — the random kinds draw
from a freshly seeded PCG64 stream, so equal specs produce bit-identical
families on every platform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidSpecError
from .frames import OperatorFamily, frame_operator
from .pairs import PairSystem, WeightSequence

#: random_frame resamples until lambda_min exceeds this fraction of lambda_max
_RANDOM_FRAME_FLOOR = 0.05
_RANDOM_FRAME_ATTEMPTS = 64


@dataclass(frozen=True, eq=False)
class GenSpec:
    """Recipe for one family: kind, sizes, seed, and kind-specific params."""

    kind: str
    dim: int
    count: int | None = None
    seed: int = 0
    params: dict = field(default_factory=dict)


def _rng(spec: GenSpec) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(spec.seed))


def _check(spec: GenSpec) -> int:
    if spec.kind not in _KINDS:
        raise InvalidSpecError(f"unknown kind {spec.kind!r}; expected one of {KINDS}")
    if spec.dim < 1:
        raise InvalidSpecError(f"dim must be >= 1, got {spec.dim}")
    if spec.count is not None and spec.count < 1:
        raise InvalidSpecError(f"count must be >= 1, got {spec.count}")
    if spec.seed < 0:
        raise InvalidSpecError(f"seed must be >= 0, got {spec.seed}")
    extra = set(spec.params) - set(_KINDS[spec.kind][1])
    if extra:
        raise InvalidSpecError(f"kind {spec.kind!r} does not accept params {sorted(extra)}")
    return spec.count if spec.count is not None else _default_count(spec)


def _default_count(spec: GenSpec) -> int:
    if spec.kind == "mercedes":
        return 3
    return spec.dim


def _complex_noise(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(_complex_noise(rng, (n, n)))
    d = np.diagonal(r)
    return q * (d.conj() / np.abs(d))


def generate(spec: GenSpec) -> OperatorFamily:
    """Build the family described by ``spec``.

    Kinds:

    - ``orthonormal``: standard basis rows; count must equal dim.
    - ``mercedes``: the three unit vectors (0,1), (-s,-1/2), (s,-1/2) with
      s = sqrt(3)/2, embedded in C^2; frame operator 1.5 I.
    - ``harmonic``: rows from the first ``dim`` coordinates of the
      count-point discrete Fourier vectors, scaled to unit norm; tight with
      bound count/dim.
    - ``random_frame``: count >= dim unit rows with gaussian entries,
      resampled until lambda_min > 0.05 lambda_max; if no draw clears that
      in 64 attempts, the best one, provided its lambda_min/lambda_max
      exceeds half the Marchenko-Pastur edge ratio
      ((1 - sqrt(r))/(1 + sqrt(r)))^2, r = dim/count.
    - ``random_gframe``: gaussian d x dim members, unit Frobenius norm;
      params ``codim`` (uniform, default 2) or ``codims`` (per member).
    - ``weighted``: rows scale_i * e_i; params ``scales`` of length dim.
    - ``swap_fixture``: the standard basis in reversed order; pairing it
      against ``orthonormal`` yields the antidiagonal pair operator.
    - ``rank_deficient``: basis rows that never touch the last coordinate
      (zero rows when dim = 1), so the frame operator is singular.
    - ``prescribed_spectrum``: frame operator with exactly the eigenvalues
      in params ``eigenvalues`` (dim positive reals); members beyond dim are
      zero rows.
    """
    count = _check(spec)
    return _KINDS[spec.kind][0](spec, count)


def _gen_orthonormal(spec: GenSpec, count: int) -> OperatorFamily:
    if count != spec.dim:
        raise InvalidSpecError(f"orthonormal needs count == dim, got {count} != {spec.dim}")
    return OperatorFamily.from_vectors(np.eye(spec.dim), spec.dim)


def _gen_mercedes(spec: GenSpec, count: int) -> OperatorFamily:
    if spec.dim != 2 or count != 3:
        raise InvalidSpecError("mercedes is the fixed 3-vector family on C^2")
    s = math.sqrt(3.0) / 2.0
    vectors = [(0.0, 1.0), (-s, -0.5), (s, -0.5)]
    return OperatorFamily.from_vectors(vectors, 2)


def _gen_harmonic(spec: GenSpec, count: int) -> OperatorFamily:
    if count < spec.dim:
        raise InvalidSpecError(f"harmonic needs count >= dim, got {count} < {spec.dim}")
    k = np.arange(count)[:, None]
    j = np.arange(spec.dim)[None, :]
    rows = np.exp(-2j * math.pi * k * j / count) / math.sqrt(spec.dim)
    return OperatorFamily.from_vectors(rows, spec.dim)


def _gen_random_frame(spec: GenSpec, count: int) -> OperatorFamily:
    if count < spec.dim:
        raise InvalidSpecError(f"random_frame needs count >= dim, got {count} < {spec.dim}")
    rng = _rng(spec)
    best, best_ratio = None, 0.0
    for _ in range(_RANDOM_FRAME_ATTEMPTS):
        rows = _complex_noise(rng, (count, spec.dim))
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        fam = OperatorFamily.from_vectors(rows, spec.dim)
        w = np.linalg.eigvalsh(frame_operator(fam))
        if w[0] > _RANDOM_FRAME_FLOOR * w[-1]:
            return fam
        if w[0] / w[-1] > best_ratio:
            best, best_ratio = fam, w[0] / w[-1]
    # large draws concentrate at the Marchenko-Pastur edge ratio, which is
    # below the floor once the frame is less than about 2.5 times redundant
    root = math.sqrt(spec.dim / count)
    if best_ratio > 0.5 * ((1.0 - root) / (1.0 + root)) ** 2:
        return best
    raise InvalidSpecError(
        f"no well-conditioned draw in {_RANDOM_FRAME_ATTEMPTS} attempts for {spec}"
    )


def _gen_random_gframe(spec: GenSpec, count: int) -> OperatorFamily:
    codims = spec.params.get("codims")
    if codims is None:
        codims = [int(spec.params.get("codim", 2))] * count
    codims = [int(d) for d in codims]
    if len(codims) != count or any(d < 1 for d in codims):
        raise InvalidSpecError(f"codims must be {count} positive counts, got {codims}")
    rng = _rng(spec)
    members = []
    for d in codims:
        m = _complex_noise(rng, (d, spec.dim))
        members.append(m / np.linalg.norm(m))
    return OperatorFamily(members, spec.dim)


def _gen_weighted(spec: GenSpec, count: int) -> OperatorFamily:
    scales = spec.params.get("scales")
    if scales is None or len(scales) != spec.dim or count != spec.dim:
        raise InvalidSpecError("weighted needs count == dim and params['scales'] of length dim")
    scales = np.asarray(scales, dtype=np.complex128)
    if not np.isfinite(scales).all():
        raise InvalidSpecError("weighted scales must be finite")
    rows = np.diag(scales)
    return OperatorFamily.from_vectors(rows, spec.dim)


def _gen_swap_fixture(spec: GenSpec, count: int) -> OperatorFamily:
    if count != spec.dim:
        raise InvalidSpecError(f"swap_fixture needs count == dim, got {count} != {spec.dim}")
    return OperatorFamily.from_vectors(np.eye(spec.dim)[::-1], spec.dim)


def _gen_rank_deficient(spec: GenSpec, count: int) -> OperatorFamily:
    if spec.dim == 1:
        rows = np.zeros((count, 1))
    else:
        rows = np.eye(spec.dim)[[i % (spec.dim - 1) for i in range(count)]]
    return OperatorFamily.from_vectors(rows, spec.dim)


def _gen_prescribed_spectrum(spec: GenSpec, count: int) -> OperatorFamily:
    eigs = spec.params.get("eigenvalues")
    if eigs is None or len(eigs) != spec.dim:
        raise InvalidSpecError("prescribed_spectrum needs params['eigenvalues'] of length dim")
    eigs = np.asarray(eigs, dtype=np.float64)
    if not (np.isfinite(eigs).all() and (eigs > 0).all()):
        raise InvalidSpecError("prescribed eigenvalues must be finite and positive")
    if count < spec.dim:
        raise InvalidSpecError(f"prescribed_spectrum needs count >= dim, got {count}")
    u = _random_unitary(_rng(spec), spec.dim)
    vectors = list((np.sqrt(eigs)[:, None] * u.conj().T))
    vectors += [np.zeros(spec.dim, dtype=np.complex128)] * (count - spec.dim)
    return OperatorFamily.from_vectors(vectors, spec.dim)


#: kind -> (builder, params it accepts), in the order ``gen --help`` lists them
_KINDS = {
    "orthonormal": (_gen_orthonormal, ()),
    "mercedes": (_gen_mercedes, ()),
    "harmonic": (_gen_harmonic, ()),
    "random_frame": (_gen_random_frame, ()),
    "random_gframe": (_gen_random_gframe, ("codim", "codims")),
    "weighted": (_gen_weighted, ("scales",)),
    "swap_fixture": (_gen_swap_fixture, ()),
    "rank_deficient": (_gen_rank_deficient, ()),
    "prescribed_spectrum": (_gen_prescribed_spectrum, ("eigenvalues",)),
}
KINDS = tuple(_KINDS)


def generate_pair(
    spec_gamma: GenSpec,
    spec_lambda: GenSpec,
    weights=None,
) -> PairSystem:
    """Assemble a pair system from two family specs and a weight sequence.

    ``weights`` defaults to all ones; dimension or count clashes surface as
    ``DimensionMismatchError`` from the PairSystem validator.
    """
    gamma = generate(spec_gamma)
    lam = generate(spec_lambda)
    if weights is None:
        weights = WeightSequence([1.0] * gamma.count)
    return PairSystem(weights, gamma, lam)
