"""The two benchmark workloads: one round of operations and their checks.

Each workload exposes ``round()``, a list of operations run in order,
``run(op)``, which returns the operation's result and leaves the time of
each call it made into the program in ``phases``, and ``check(op, result)``,
which compares a result with numbers the benchmark computes apart from the
program (its own ``numpy`` reductions of the raw input files) or with a
property the method guarantees. A check that fails raises
:class:`CheckError`. An operation the program rejects raises
:class:`OperationFailed`; no operation of these workloads should be
rejected, so the runner counts it as failed and the run as incorrect.

Relative slack on a computed quantity is ``RTOL`` unless stated; it covers
roundoff of a different evaluation order at n <= 128.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

RTOL = 1e-9
#: sample unit vectors for the numerical-range inequality
RANGE_SAMPLES = 64
#: Neumann target of the frame-reconstruct workload
TARGET = 1e-8


class CheckError(Exception):
    pass


class OperationFailed(Exception):
    """The program rejected an operation, by an exception or an exit code."""


def require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckError(what)


def close(a: float, b: float, rtol: float = RTOL, atol: float = 0.0) -> bool:
    return abs(a - b) <= atol + rtol * max(abs(a), abs(b))


# -- independent readers and references ------------------------------------

def _cplx(node) -> np.ndarray:
    arr = np.asarray(node, dtype=np.float64)
    return arr[..., 0] + 1j * arr[..., 1]


def read_rows(node: dict) -> np.ndarray:
    """Stacked member rows of a family node, read without the program."""
    if "vectors" in node:
        return _cplx(node["vectors"]).conj()
    return np.vstack([_cplx(m) for m in node["operators"]])


def row_weights(node: dict, weights) -> np.ndarray:
    """One weight per stacked row: each member's weight repeated d_i times."""
    if "vectors" in node:
        codims = [1] * len(node["vectors"])
    else:
        codims = [len(m) for m in node["operators"]]
    w = np.ones(len(codims), dtype=np.complex128) if weights is None else _cplx(weights)
    return np.repeat(w, codims)


@dataclass
class PairRef:
    """The benchmark's own picture of a pair system read from its file."""

    S: np.ndarray
    svals: np.ndarray
    frame_op: np.ndarray

    @classmethod
    def from_file(cls, path: Path) -> "PairRef":
        root = json.loads(path.read_text(encoding="utf-8"))
        lam = read_rows(root)
        gamma = read_rows(root["gamma"]) if "gamma" in root else lam
        w = row_weights(root, root.get("weights"))
        s = np.einsum("ri,r,rj->ij", gamma.conj(), w, lam)
        return cls(S=s, svals=np.linalg.svd(s, compute_uv=False), frame_op=lam.conj().T @ lam)

    @property
    def norm(self) -> float:
        return float(self.svals[0])

    def residual(self, alpha: complex) -> float:
        n = self.S.shape[0]
        return float(np.linalg.svd(np.eye(n) - alpha * self.S, compute_uv=False)[0])


def unit_vectors(rng: np.random.Generator, dim: int, count: int) -> np.ndarray:
    v = rng.standard_normal((count, dim)) + 1j * rng.standard_normal((count, dim))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def check_s(s: np.ndarray, ref: PairRef, what: str) -> None:
    err = float(np.abs(s - ref.S).max())
    require(err <= RTOL * ref.norm, f"{what}: S differs from the einsum of Gamma^H diag(m) Lambda by {err:.3e}")


def check_framelike(lower: float, upper: float, ref: PairRef, rng) -> None:
    """lower <= |<Sf, f>| <= upper at random unit f, and norm/2 <= upper <= norm."""
    f = unit_vectors(rng, ref.S.shape[0], RANGE_SAMPLES)
    q = np.abs(np.einsum("ki,ij,kj->k", f.conj(), ref.S, f))
    slack = RTOL * ref.norm
    require(lower >= 0.0, f"framelike lower {lower} is negative")
    require(lower <= q.min() + slack, f"framelike lower {lower} above |<Sf,f>| = {q.min()}")
    require(upper >= q.max() - slack, f"framelike upper {upper} below |<Sf,f>| = {q.max()}")
    require(0.5 * ref.norm - slack <= upper <= ref.norm + slack,
            f"framelike upper {upper} outside [norm/2, norm] with norm {ref.norm}")


def check_alpha(alpha: complex, residual: float, ref: PairRef) -> None:
    own = ref.residual(alpha)
    require(close(residual, own), f"find_alpha residual {residual} != ||I - alpha S|| = {own}")
    require(own < 1.0, f"find_alpha residual {own} is not below 1")


def check_adjoint(residual: float, ref: PairRef) -> None:
    require(residual <= 1e-11 * (1.0 + ref.norm), f"adjoint residual {residual:.3e} too large")


def check_frame_bounds(lower: float, upper: float, frame_op: np.ndarray) -> None:
    w = np.linalg.eigvalsh(frame_op)
    require(close(lower, w[0]) and close(upper, w[-1]),
            f"frame bounds ({lower}, {upper}) != eigvalsh extremes ({w[0]}, {w[-1]})")


def check_pair_report(rep: dict, ref: PairRef, rng) -> None:
    """The JSON of ``pair analyze`` on a near-identity system."""
    require(rep["is_pair_frame"] and rep["near_identity"], "near-identity pair not recognised")
    require(close(rep["op_norm"], ref.norm), f"op_norm {rep['op_norm']} != {ref.norm}")
    require(close(rep["min_singular"], ref.svals[-1]), "min_singular differs from svd")
    require(close(rep["condition_number"], ref.svals[0] / ref.svals[-1], rtol=1e-8),
            "condition number differs from svd")
    check_framelike(rep["framelike_lower"], rep["framelike_upper"], ref, rng)
    check_adjoint(rep["adjoint_residual"], ref)
    check_alpha(complex(*rep["alpha"]), rep["alpha_residual"], ref)


def check_dual(rows: np.ndarray, dual_rows: np.ndarray, rng) -> None:
    """synthesis(dual, analysis(family, f)) recovers random f to 1e-10."""
    f = unit_vectors(rng, rows.shape[1], 8).T
    rec = dual_rows.conj().T @ (rows @ f)
    err = float(np.linalg.norm(rec - f, axis=0).max())
    require(err <= 1e-10, f"dual reconstruction error {err:.3e} above 1e-10")


# -- in-process workloads -------------------------------------------------------

class InProcess:
    """Operations that call the program in this process; a ``PairFrameError``
    or a non-zero CLI exit code fails one.

    Each call into the program goes through :meth:`call`, which keeps its
    duration: after ``run(op)``, ``phases`` holds one time per call, in order.
    """

    def __init__(self, pf) -> None:
        self.pf = pf
        self.phases = []

    def run(self, op):
        self.phases = []
        try:
            return self.operation(op)
        except self.pf.PairFrameError as exc:
            raise OperationFailed(f"{type(exc).__name__}: {exc}") from exc

    def call(self, fn, *args):
        t0 = time.perf_counter()
        out = fn(*args)
        self.phases.append(time.perf_counter() - t0)
        return out


# -- pair-analyze --------------------------------------------------------------

@dataclass
class PairReportResult:
    S: np.ndarray
    stdout: bytes
    pq: object


class PairAnalyze(InProcess):
    """Full report of a general (non-hermitian) pair system, in process.

    The report is what ``pairframe pair analyze --format json`` prints,
    taken from ``cli.main`` in this process, next to ``pair_operator`` and
    the Hoelder bound ``pq_pair_norm_bound``, which the CLI does not give.
    """

    P, Q = 3.0, 1.5

    def __init__(self, pf, inputs: dict, seed: int) -> None:
        super().__init__(pf)
        self.paths = [inputs["dir"] / f"{name}.json" for name in inputs["docs"]]
        self.systems = [doc.pair_system() for doc in inputs["docs"].values()]
        self.refs = [PairRef.from_file(path) for path in self.paths]
        self.rng = np.random.Generator(np.random.PCG64([seed, 99]))

    def round(self) -> list:
        return list(range(len(self.systems)))

    def operation(self, k: int) -> PairReportResult:
        pf = self.pf
        system = self.systems[k]
        s = self.call(pf.pairs.pair_operator, system)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = self.call(pf.cli.main, ["pair", "analyze", str(self.paths[k]), "--format", "json"])
        if code != 0:
            raise OperationFailed(f"pair analyze exited {code}")
        pq = self.call(pf.pairs.pq_pair_norm_bound, system, self.P, self.Q)
        return PairReportResult(s, out.getvalue().encode("utf-8"), pq)

    def check(self, k: int, res: PairReportResult) -> None:
        ref = self.refs[k]
        check_s(res.S, ref, "pair_operator")
        check_pair_report(json.loads(res.stdout), ref, self.rng)
        require(close(res.pq.norm, ref.norm), "pq bound norm differs from svd")
        require(ref.norm <= res.pq.holder_bound * (1 + RTOL),
                f"||S|| = {ref.norm} above holder bound {res.pq.holder_bound}")


# -- frame-reconstruct -----------------------------------------------------------

@dataclass
class FrameResult:
    classification: object
    dual: object
    report: object
    near: object
    N: int
    trace: object
    recs: list


def order_for(residual: float) -> int:
    """Smallest N with residual^(N+1) <= TARGET."""
    n = max(0, math.ceil(math.log(TARGET) / math.log(residual)) - 1)
    while residual ** (n + 1) > TARGET:
        n += 1
    return n


class FrameReconstruct(InProcess):
    """Hermitian positive multiplier: frame report, then Neumann reconstruction."""

    def __init__(self, pf, inputs: dict, seed: int) -> None:
        super().__init__(pf)
        doc = inputs["docs"]["frame"]
        self.family = doc.lam
        self.system = doc.pair_system()
        self.signals = inputs["signals"]
        self.ref = PairRef.from_file(inputs["dir"] / "frame.json")
        self.rows = read_rows(json.loads((inputs["dir"] / "frame.json").read_text(encoding="utf-8")))
        self.solved = np.linalg.solve(self.ref.S, self.ref.S @ self.signals.T).T
        self.rng = np.random.Generator(np.random.PCG64([seed, 99]))

    def round(self) -> list:
        return [0]

    def operation(self, _k: int) -> FrameResult:
        pf = self.pf
        cls = self.call(pf.frames.classify, self.family)
        dual = self.call(pf.frames.canonical_dual, self.family)
        rep = self.call(pf.pairs.classify_pair, self.system)
        near = self.call(pf.neumann.find_alpha, rep.S)
        n = order_for(near.residual)
        trace = self.call(pf.neumann.neumann_trace, rep.S, near.alpha, n)
        recs = [self.call(pf.neumann.reconstruct, self.system, near.alpha, n, f) for f in self.signals]
        return FrameResult(cls, dual, rep, near, n, trace, recs)

    def check(self, _k: int, res: FrameResult) -> None:
        ref = self.ref
        cls = res.classification
        require(cls.is_frame, "random frame not classified as a frame")
        check_frame_bounds(cls.bounds.lower, cls.bounds.upper, ref.frame_op)
        check_dual(self.rows, np.vstack(res.dual.members), self.rng)
        check_s(res.report.S, ref, "classify_pair")
        require(res.report.is_pair_frame, "positive multiplier not a pair frame")
        check_framelike(res.report.framelike_lower, res.report.framelike_upper, ref, self.rng)
        w = np.linalg.eigvalsh(0.5 * (ref.S + ref.S.conj().T))
        require(close(res.report.framelike_lower, w[0]) and close(res.report.framelike_upper, w[-1]),
                "hermitian S: framelike bounds are not its extreme eigenvalues")
        check_adjoint(res.report.adjoint_residual, ref)
        require(res.near.is_positive_variant, "hermitian positive S missed the closed form")
        require(close(res.near.alpha.real, 2.0 / (w[0] + w[-1])), "alpha != 2/(lmin + lmax)")
        check_alpha(res.near.alpha, res.near.residual, ref)
        rows = res.trace.entries
        require(len(rows) == res.N + 1, f"neumann_trace gave {len(rows)} rows for N={res.N}")
        for e in rows:
            require(e.error <= e.bound * (1 + 1e-6) + 1e-12, f"N={e.N}: error {e.error} above bound {e.bound}")
        for (approx, rel), f, x in zip(res.recs, self.signals, self.solved):
            own = float(np.linalg.norm(approx - f) / np.linalg.norm(f))
            require(close(rel, own, rtol=1e-6, atol=1e-14), f"reported rel error {rel} != {own}")
            require(own <= TARGET * (1 + 1e-6), f"reconstruction error {own:.3e} above {TARGET}")
            dev = float(np.linalg.norm(approx - x) / np.linalg.norm(x))
            require(dev <= TARGET * (1 + 1e-6), f"reconstruction differs from linalg.solve by {dev:.3e}")
