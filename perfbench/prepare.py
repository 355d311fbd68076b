"""Set-up of the pairframe benchmark: build a workload's inputs from its seed.

Every input is a frame file written into a run directory, so the program
receives nothing but the generated inputs. The same seed gives
byte-identical files.

Run as a script, this module times one cold set-up in a fresh interpreter
and prints it as JSON on stdout:

    python3 perfbench/prepare.py WORKLOAD SEED OUT_DIR

``import_s`` is the time from interpreter start of this script to the end
of ``import pairframe``; ``setup_s`` runs on to the last input loaded back.
"""

import time

_START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import pairframe  # noqa: E402
from pairframe import fileformat, generators  # noqa: E402

_IMPORTED = time.perf_counter()

WORKLOADS = ("pair-analyze", "frame-reconstruct")

#: pair-analyze: non-hermitian near-identity systems of this size
PAIR_DIM = 32
PAIR_SYSTEMS = 4
#: frame-reconstruct: rank-one random frames with 4x redundancy
FRAME_DIM = 64
FRAME_COUNT = 4 * FRAME_DIM
FRAME_SIGNALS = 4
#: condition number of the frame-reconstruct S, the same for every seed: the
#: Neumann order N follows it and the trace costs O(N^2), so a drawn S (N from
#: 70 to 82 over seeds 1-20 at n = 64) made the work vary by seed
FRAME_KAPPA = 8.0


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64([seed, stream]))


def _sub_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31 - 1))


def near_identity_pair(rng: np.random.Generator, dim: int, count: int):
    """Non-hermitian system with Lambda_i = Gamma_i + small noise.

    Gamma is a random g-frame with member codimensions 1-3; the weights have
    unit modulus and phases in a narrow arc around a random common angle, so
    S is close to a rotated multiple of the identity but far from hermitian.
    """
    codims = [int(d) for d in rng.integers(1, 4, size=count)]
    gamma = generators.generate(
        generators.GenSpec(
            "random_gframe", dim=dim, count=count, seed=_sub_seed(rng), params={"codims": codims}
        )
    )
    lam = []
    for g in gamma.members:
        noise = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
        lam.append(g + 0.05 * noise / np.sqrt(g.size))
    lam = pairframe.OperatorFamily(lam, dim)
    phases = rng.uniform(0.0, 2.0 * np.pi) + rng.uniform(-0.3, 0.3, size=count)
    weights = pairframe.pairs.WeightSequence(np.exp(1j * phases))
    return fileformat.FrameDocument(
        dim=dim,
        lam=lam,
        lam_encoding="operators",
        gamma=gamma,
        gamma_encoding="operators",
        weights=weights,
    )


def positive_frame(rng: np.random.Generator, dim: int, count: int, kappa: float):
    """Random rank-one frame with positive real weights; Gamma defaults to Lambda.

    The drawn vectors f_i are mapped to B f_i with B = Q D^(1/2) Q^H S0^(-1/2),
    where S0 is the multiplier of the draw, Q a random unitary and D evenly
    spaced from 1 to ``kappa``: S = Q D Q^H has condition number ``kappa``
    and random eigenvectors.
    """
    fam = generators.generate(
        generators.GenSpec("random_frame", dim=dim, count=count, seed=_sub_seed(rng))
    )
    w = rng.uniform(0.5, 1.5, size=count)
    vecs = fam.stacked.conj()
    s0 = np.einsum("ri,r,rj->ij", vecs, w, vecs.conj())
    lam0, u0 = np.linalg.eigh(s0)
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    d = np.linspace(1.0, kappa, dim) * lam0.mean()
    b = (q * np.sqrt(d)) @ q.conj().T @ (u0 / np.sqrt(lam0)) @ u0.conj().T
    lam = pairframe.OperatorFamily.from_vectors(vecs @ b.T, dim)
    weights = pairframe.pairs.WeightSequence(w)
    return fileformat.FrameDocument(dim=dim, lam=lam, lam_encoding="vectors", weights=weights)


def prepare(workload: str, seed: int, out: Path) -> dict:
    """Write the inputs of one workload into ``out`` and load them back.

    Returns the loaded documents and the plain parameters the operations
    need, keyed by name.
    """
    out.mkdir(parents=True, exist_ok=True)
    rng = _rng(seed, WORKLOADS.index(workload))
    docs = {}
    params = {}
    if workload == "pair-analyze":
        for k in range(PAIR_SYSTEMS):
            docs[f"pair{k}"] = near_identity_pair(rng, PAIR_DIM, 2 * PAIR_DIM)
    elif workload == "frame-reconstruct":
        docs["frame"] = positive_frame(rng, FRAME_DIM, FRAME_COUNT, FRAME_KAPPA)
        signals = rng.standard_normal((FRAME_SIGNALS, FRAME_DIM))
        params["signals"] = signals + 1j * rng.standard_normal((FRAME_SIGNALS, FRAME_DIM))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    for name, doc in docs.items():
        (out / f"{name}.json").write_text(fileformat.serialize_document(doc), encoding="utf-8")
    loaded = {name: fileformat.load_document(out / f"{name}.json") for name in docs}
    return {"dir": out, "docs": loaded, **params}


def main(argv) -> int:
    workload, seed, out = argv[1], int(argv[2]), Path(argv[3])
    prepare(workload, seed, out)
    done = time.perf_counter()
    print(json.dumps({"import_s": _IMPORTED - _START, "setup_s": done - _START}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
