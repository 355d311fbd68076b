"""Command-line interface.

Commands::

    pairframe frame analyze FILE   frame/Bessel classification
    pairframe pair analyze FILE    pair-frame verdict and frame-like bounds
    pairframe neumann FILE         Neumann-series decay table
    pairframe dual FILE            canonical dual as a frame file
    pairframe gen KIND             write a generated frame file

Exit codes: 0 success (verdicts included), 2 parse or validation failure,
3 dimension mismatch, 4 unmet precondition (non-frame dual, --alpha auto on
a system that is not near-identity).

Text reports print every number with 6 significant digits; JSON reports
carry full double precision with complex numbers as [re, im] pairs.
"""

from __future__ import annotations

import argparse
import cmath
import json
import sys

import numpy as np

from . import fileformat, generators, neumann, pairs, spectral
from .errors import (
    DimensionMismatchError,
    FrameFileError,
    NotAFrameError,
    PairFrameError,
)
from .frames import canonical_dual, classify
from .pairs import classify_pair, pair_operator

_TIGHT_REL = 1e-10

def _num(x: float) -> str:
    return f"{float(x):.6g}"


def _cplx(z: complex) -> str:
    z = complex(z)
    if z.imag == 0.0:
        return _num(z.real)
    sign = "+" if z.imag >= 0 else "-"
    return f"{_num(z.real)}{sign}{_num(abs(z.imag))}i"


def _cplx_json(z: complex) -> list:
    z = complex(z)
    return [z.real, z.imag]


def _yesno(flag: bool) -> str:
    return "yes" if flag else "no"


def _parse_alpha(text: str) -> complex:
    try:
        alpha = complex(text.strip().replace("i", "j"))
    except ValueError:
        raise FrameFileError(f"cannot parse alpha {text!r}; use 're' or 're+imi'") from None
    if not cmath.isfinite(alpha):
        raise FrameFileError(f"alpha must be finite, got {text!r}")
    return alpha


def _tolerance(text: str) -> float:
    """argparse type for --tol: a finite number >= 0."""
    try:
        tol = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    try:
        return spectral._check_tol(tol)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be finite and >= 0, got {text!r}") from None


def _order(text: str) -> int:
    """argparse type for --N: an integer with 0 <= N <= sys.maxsize."""
    try:
        n = int(text)
    except ValueError:
        n = -1
    if not 0 <= n <= sys.maxsize:
        raise argparse.ArgumentTypeError(f"must be an integer in [0, {sys.maxsize}], got {text!r}")
    return n


def _emit(lines) -> None:
    sys.stdout.write("\n".join(lines) + "\n")


def _emit_json(payload) -> None:
    sys.stdout.write(fileformat.compact_pairs(json.dumps(payload, indent=2)) + "\n")


def cmd_frame_analyze(args) -> int:
    doc = fileformat.load_document(args.path)
    rep = classify(doc.lam, args.tol)
    tight = rep.is_frame and (rep.bounds.upper - rep.bounds.lower) <= _TIGHT_REL * rep.bounds.upper
    if args.format == "json":
        _emit_json(
            {
                "command": "frame analyze",
                "members": doc.lam.count,
                "dim": doc.dim,
                "is_frame": rep.is_frame,
                "is_bessel": rep.is_bessel,
                "bounds": {"lower": rep.bounds.lower, "upper": rep.bounds.upper},
                "tight": tight,
                "alpha_star": rep.alpha_star,
                "residual": rep.residual,
                "invertible": rep.cert_invertible,
                "surjective": rep.cert_surjective,
            }
        )
        return 0
    lines = [
        f"family: {doc.lam.count} members on C^{doc.dim}",
        f"frame: {_yesno(rep.is_frame)}",
        f"bessel: {_yesno(rep.is_bessel)}",
        f"A: {_num(rep.bounds.lower)}",
        f"B: {_num(rep.bounds.upper)}",
        f"tight: {_yesno(tight)}",
    ]
    if rep.is_frame:
        lines.append(f"alpha_star: {_num(rep.alpha_star)}")
        lines.append(f"residual: {_num(rep.residual)}")
    lines.append(f"invertible: {_yesno(rep.cert_invertible)}")
    lines.append(f"surjective: {_yesno(rep.cert_surjective)}")
    _emit(lines)
    return 0


def cmd_pair_analyze(args) -> int:
    doc = fileformat.load_document(args.path)
    defaulted = doc.gamma is None
    system = doc.pair_system()
    rep = classify_pair(system, tol=args.tol)
    near = neumann.find_alpha(rep.S)
    if args.format == "json":
        _emit_json(
            {
                "command": "pair analyze",
                "members": system.count,
                "dim": doc.dim,
                "gamma_defaulted": defaulted,
                "is_pair_frame": rep.is_pair_frame,
                "op_norm": rep.op_norm,
                "min_singular": rep.min_singular,
                "condition_number": rep.condition_number,
                "framelike_lower": rep.framelike_lower,
                "framelike_upper": rep.framelike_upper,
                "adjoint_residual": rep.adjoint_residual,
                "alpha": _cplx_json(near.alpha),
                "alpha_residual": near.residual,
                "near_identity": near.is_near_identity,
            }
        )
        return 0
    lines = [f"system: {system.count} members on C^{doc.dim}"]
    if defaulted:
        lines.append("gamma: defaulted to the primary family")
    lines += [
        f"pair frame: {_yesno(rep.is_pair_frame)}",
        f"op norm: {_num(rep.op_norm)}",
        f"min singular: {_num(rep.min_singular)}",
    ]
    if rep.condition_number is not None:
        lines.append(f"condition number: {_num(rep.condition_number)}")
    lines += [
        f"framelike A: {_num(rep.framelike_lower)}",
        f"framelike B: {_num(rep.framelike_upper)}",
        f"adjoint residual: {_num(rep.adjoint_residual)}",
        f"alpha: {_cplx(near.alpha)}",
        f"alpha residual: {_num(near.residual)}",
        f"near identity: {_yesno(near.is_near_identity)}",
    ]
    _emit(lines)
    return 0


def _signal_for(args, dim: int):
    if args.signal is None:
        return None
    if args.signal.startswith("random:"):
        try:
            seed = int(args.signal.split(":", 1)[1])
        except ValueError:
            raise FrameFileError(f"bad signal argument {args.signal!r}; use random:SEED") from None
        if seed < 0:
            raise FrameFileError("signal seed must be >= 0")
        rng = np.random.Generator(np.random.PCG64(seed))
        return rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    vec = fileformat.load_signal(args.signal)
    if len(vec) != dim:
        raise DimensionMismatchError(f"signal lives on C^{len(vec)}, system on C^{dim}")
    return vec


def cmd_neumann(args) -> int:
    doc = fileformat.load_document(args.path)
    signal = _signal_for(args, doc.dim)
    s = pair_operator(doc.pair_system())
    if args.alpha == "auto":
        near = neumann.find_alpha(s)
        if not near.is_near_identity:
            print(
                f"error: not near-identity (best residual {near.residual:.6g}); "
                "pass an explicit --alpha to force a table",
                file=sys.stderr,
            )
            return 4
        alpha = near.alpha
    else:
        alpha = _parse_alpha(args.alpha)
    trace, rel_errors = neumann._trace(s, alpha, args.N, signal)
    rows = [entry._asdict() for entry in trace.entries]
    for row, rel_error in zip(rows, rel_errors):
        row["rel_error"] = rel_error
    if args.format == "json":
        _emit_json(
            {
                "command": "neumann",
                "alpha": _cplx_json(trace.alpha),
                "residual": trace.residual,
                "rows": rows,
            }
        )
        return 0
    header = list(rows[0])
    table = [header]
    for row in rows:
        table.append([str(row["N"])] + [_num(row[key]) for key in header[1:]])
    widths = [max(len(r[c]) for r in table) for c in range(len(header))]
    lines = [
        f"alpha: {_cplx(trace.alpha)}",
        f"residual: {_num(trace.residual)}",
    ]
    lines += ["  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip() for r in table]
    _emit(lines)
    return 0


def cmd_dual(args) -> int:
    doc = fileformat.load_document(args.path)
    dual = canonical_dual(doc.lam, args.tol)
    out = fileformat.FrameDocument(dim=doc.dim, lam=dual, lam_encoding=doc.lam_encoding)
    sys.stdout.write(fileformat.serialize_document(out))
    return 0


def _gen_params(args) -> dict:
    params = {}
    if args.scales is not None:
        params["scales"] = [float(x) for x in args.scales.split(",") if x]
    if args.eigenvalues is not None:
        params["eigenvalues"] = [float(x) for x in args.eigenvalues.split(",") if x]
    if args.codim is not None:
        params["codim"] = args.codim
    return params


def cmd_gen(args) -> int:
    dim = args.dim
    if dim is None:
        if args.kind == "mercedes":
            dim = 2
        else:
            print("error: --dim is required for this kind", file=sys.stderr)
            return 2
    try:
        params = _gen_params(args)
    except ValueError:
        print("error: parameter lists must be comma-separated numbers", file=sys.stderr)
        return 2
    spec = generators.GenSpec(kind=args.kind, dim=dim, count=args.count, seed=args.seed, params=params)
    family = generators.generate(spec)
    doc = fileformat.FrameDocument(
        dim=dim, lam=family, lam_encoding=fileformat.vector_encoding(family)
    )
    text = fileformat.serialize_document(doc)
    if args.out is None:
        sys.stdout.write(text)
    else:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise FrameFileError(f"cannot write {args.out}: {exc.strerror}") from None
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pairframe",
        description="Frame and pair-frame analysis of finite operator families.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    frame = sub.add_parser("frame", help="single-family analyses")
    frame_sub = frame.add_subparsers(dest="subcommand", required=True)
    fa = frame_sub.add_parser("analyze", help="frame/Bessel classification")
    fa.add_argument("path")
    fa.add_argument("--tol", type=_tolerance, default=None, help="absolute frame threshold")
    fa.add_argument("--format", choices=("text", "json"), default="text")
    fa.set_defaults(func=cmd_frame_analyze)

    pair = sub.add_parser("pair", help="pair-system analyses")
    pair_sub = pair.add_subparsers(dest="subcommand", required=True)
    pa = pair_sub.add_parser("analyze", help="pair-frame verdict and bounds")
    pa.add_argument("path")
    pa.add_argument("--tol", type=_tolerance, default=pairs.PAIR_TOL)
    pa.add_argument("--format", choices=("text", "json"), default="text")
    pa.set_defaults(func=cmd_pair_analyze)

    ne = sub.add_parser("neumann", help="Neumann-series decay table")
    ne.add_argument("path")
    ne.add_argument("--alpha", default="auto", help="'auto' or a complex scalar ('re' or 're+imi')")
    ne.add_argument("--N", type=_order, default=10, help="largest truncation order")
    ne.add_argument("--signal", default=None, help="signal file path or random:SEED")
    ne.add_argument("--format", choices=("text", "json"), default="text")
    ne.set_defaults(func=cmd_neumann)

    du = sub.add_parser("dual", help="canonical dual as a frame file")
    du.add_argument("path")
    du.add_argument("--tol", type=_tolerance, default=None)
    du.set_defaults(func=cmd_dual)

    ge = sub.add_parser("gen", help="write a generated frame file")
    ge.add_argument("kind", choices=generators.KINDS)
    ge.add_argument("--dim", type=int, default=None)
    ge.add_argument("--count", type=int, default=None)
    ge.add_argument("--seed", type=int, default=0)
    ge.add_argument("--out", default=None, help="output path (default: stdout)")
    ge.add_argument("--scales", default=None, help="comma list for kind 'weighted'")
    ge.add_argument("--eigenvalues", default=None, help="comma list for kind 'prescribed_spectrum'")
    ge.add_argument("--codim", type=int, default=None, help="member rows for kind 'random_gframe'")
    ge.set_defaults(func=cmd_gen)
    return parser


#: exit code per error type; the first matching entry wins, so subclasses
#: come before PairFrameError, their common base
_EXIT_CODES = (
    (DimensionMismatchError, 3),
    (NotAFrameError, 4),
    (PairFrameError, 2),
)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except PairFrameError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
