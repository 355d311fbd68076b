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

Each report is one list of ``(json key, text label, value)`` fields. JSON
carries every keyed field (``null`` when absent) at full double precision,
complex numbers as [re, im]; text prints every labelled field present, to 6
significant digits. Arguments are checked at parse time.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import fileformat, generators, neumann, spectral
from .errors import (
    DimensionMismatchError,
    FrameFileError,
    InvalidSpecError,
    NotAFrameError,
    PairFrameError,
)
from .frames import canonical_dual, classify
from .pairs import classify_pair, pair_operator

_TIGHT_REL = 1e-10

def _text(value) -> str:
    """A report value as text: yes/no, an int or str as it is, a number to
    6 significant digits, a complex number as re+imi or re-imi."""
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, (int, str)):
        return str(value)
    z = complex(value)
    if z.imag == 0.0:
        return f"{z.real:.6g}"
    return f"{z.real:.6g}{'+' if z.imag > 0 else '-'}{abs(z.imag):.6g}i"


def _alpha(text: str):
    """argparse type for --alpha: 'auto' or a finite complex number."""
    if text == "auto":
        return text
    try:
        return neumann._check_alpha(complex(text.strip().replace("i", "j")))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must be 'auto' or a finite 're' or 're+imi', got {text!r}"
        ) from None


def _order(text: str) -> int:
    """argparse type for --N: an integer in [0, neumann.MAX_ORDER]."""
    try:
        return neumann._check_order(int(text), "N")
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must be an integer in [0, {neumann.MAX_ORDER}], got {text!r}"
        ) from None


def _report(args, command: str, fields, table=()) -> None:
    """Print one report from its ``(json key, text label, value)`` fields.

    JSON holds ``command`` and then every keyed value, complex ones as
    [re, im]; text holds ``label: value`` for every labelled value that is
    not None, then the table lines.
    """
    if args.format == "json":
        payload = {"command": command, **{key: value for key, _, value in fields if key}}
        text = fileformat.compact_pairs(
            json.dumps(payload, indent=2, default=lambda z: [z.real, z.imag])
        )
    else:
        lines = [f"{label}: {_text(value)}" for _, label, value in fields
                 if label and value is not None]
        text = "\n".join([*lines, *table])
    sys.stdout.write(text + "\n")


def cmd_frame_analyze(args) -> int:
    doc = fileformat.load_document(args.path)
    rep = classify(doc.lam)
    lower, upper = rep.bounds.lower, rep.bounds.upper
    _report(args, "frame analyze", [
        ("members", None, doc.lam.count),
        ("dim", None, doc.dim),
        (None, "family", f"{doc.lam.count} members on C^{doc.dim}"),
        ("is_frame", "frame", rep.is_frame),
        ("is_bessel", "bessel", rep.is_bessel),
        ("bounds", None, {"lower": lower, "upper": upper}),
        (None, "A", lower),
        (None, "B", upper),
        ("tight", "tight", rep.is_frame and upper - lower <= _TIGHT_REL * upper),
        ("alpha_star", "alpha_star", rep.alpha_star),
        ("residual", "residual", rep.residual),
        ("invertible", "invertible", rep.cert_invertible),
        ("surjective", "surjective", rep.cert_surjective),
    ])
    return 0


def cmd_pair_analyze(args) -> int:
    doc = fileformat.load_document(args.path)
    defaulted = doc.gamma is None
    system = doc.pair_system()
    rep = classify_pair(system)
    near = neumann.find_alpha(rep.S)
    _report(args, "pair analyze", [
        ("members", None, system.count),
        ("dim", None, doc.dim),
        (None, "system", f"{system.count} members on C^{doc.dim}"),
        ("gamma_defaulted", None, defaulted),
        (None, "gamma", "defaulted to the primary family" if defaulted else None),
        ("is_pair_frame", "pair frame", rep.is_pair_frame),
        ("op_norm", "op norm", rep.op_norm),
        ("min_singular", "min singular", rep.min_singular),
        ("condition_number", "condition number", rep.condition_number),
        ("framelike_lower", "framelike A", rep.framelike_lower),
        ("framelike_upper", "framelike B", rep.framelike_upper),
        ("adjoint_residual", "adjoint residual", rep.adjoint_residual),
        ("alpha", "alpha", near.alpha),
        ("alpha_residual", "alpha residual", near.residual),
        ("near_identity", "near identity", near.is_near_identity),
    ])
    return 0


def _signal_for(args, dim: int):
    if args.signal is None:
        return None
    if args.signal.startswith("random:"):
        try:
            seed = spectral._check_count(int(args.signal.split(":", 1)[1]), "seed")
        except ValueError:
            raise FrameFileError(
                f"bad signal argument {args.signal!r}; use random:SEED with an integer SEED >= 0"
            ) from None
        rng = np.random.Generator(np.random.PCG64(seed))
        return rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return spectral._vector(fileformat.load_signal(args.signal), dim, "signal")


def cmd_neumann(args) -> int:
    doc = fileformat.load_document(args.path)
    signal = _signal_for(args, doc.dim)
    s = pair_operator(doc.pair_system())
    alpha = args.alpha
    if alpha == "auto":
        near = neumann.find_alpha(s)
        if not near.is_near_identity:
            print(
                f"error: not near-identity (best residual {near.residual:.6g}); "
                "pass an explicit --alpha to force a table",
                file=sys.stderr,
            )
            return 4
        alpha = near.alpha
    trace, rel_errors = neumann._trace(s, alpha, args.N, signal)
    rows = [entry._asdict() for entry in trace.entries]
    for row, rel_error in zip(rows, rel_errors):
        row["rel_error"] = rel_error
    table = [list(rows[0])] + [[_text(value) for value in row.values()] for row in rows]
    widths = [max(map(len, column)) for column in zip(*table)]
    _report(args, "neumann", [
        ("alpha", "alpha", trace.alpha),
        ("residual", "residual", trace.residual),
        ("rows", None, rows),
    ], ["  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip() for r in table])
    return 0


def cmd_dual(args) -> int:
    doc = fileformat.load_document(args.path)
    pair_keys = [key for key in ("gamma", "weights") if getattr(doc, key) is not None]
    if pair_keys:
        raise FrameFileError(f"dual writes a frame file; it would drop the pair keys {pair_keys}")
    dual = canonical_dual(doc.lam)
    out = fileformat.FrameDocument(dim=doc.dim, lam=dual, lam_encoding=doc.lam_encoding)
    sys.stdout.write(fileformat.serialize_document(out))
    return 0


def _gen_params(args) -> dict:
    params = {}
    if args.scales is not None:
        params["scales"] = [float(x) for x in args.scales.split(",")]
    if args.eigenvalues is not None:
        params["eigenvalues"] = [float(x) for x in args.eigenvalues.split(",")]
    if args.codim is not None:
        params["codim"] = args.codim
    return params


def cmd_gen(args) -> int:
    dim = 2 if args.dim is None and args.kind == "mercedes" else args.dim
    if dim is None:
        raise InvalidSpecError("--dim is required for this kind")
    try:
        params = _gen_params(args)
    except ValueError:
        raise InvalidSpecError("parameter lists must be comma-separated numbers") from None
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
    fa.add_argument("--format", choices=("text", "json"), default="text")
    fa.set_defaults(func=cmd_frame_analyze)

    pair = sub.add_parser("pair", help="pair-system analyses")
    pair_sub = pair.add_subparsers(dest="subcommand", required=True)
    pa = pair_sub.add_parser("analyze", help="pair-frame verdict and bounds")
    pa.add_argument("path")
    pa.add_argument("--format", choices=("text", "json"), default="text")
    pa.set_defaults(func=cmd_pair_analyze)

    ne = sub.add_parser("neumann", help="Neumann-series decay table")
    ne.add_argument("path")
    ne.add_argument(
        "--alpha", type=_alpha, default="auto", help="'auto' or a complex scalar ('re' or 're+imi')"
    )
    ne.add_argument("--N", type=_order, default=10, help="largest truncation order")
    ne.add_argument("--signal", default=None, help="signal file path or random:SEED")
    ne.add_argument("--format", choices=("text", "json"), default="text")
    ne.set_defaults(func=cmd_neumann)

    du = sub.add_parser("dual", help="canonical dual as a frame file")
    du.add_argument("path")
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
