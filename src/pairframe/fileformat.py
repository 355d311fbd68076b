"""Reading and writing frame files.

A frame file is a UTF-8 JSON document, format_version "1", describing one
family (and optionally a second family plus weights, making it a pair
system). Complex numbers are two-element [re, im] arrays throughout. The
primary family appears under exactly one of:

- ``"vectors"``: list of length-dim complex vectors f_i, the ordinary-frame
  shorthand for the operators f_i^H;
- ``"operators"``: list of complex matrices, each d_i x dim.

Optional keys: ``"weights"`` (complex list, one per member, defaults to
ones) and ``"gamma"`` (an object holding the second family under the same
two encodings).

A signal file is {"format_version": "1", "dim": n, "vector": [...]}. Both
kinds share one header reader (a JSON object with no unknown keys,
format_version "1", a positive integer dim) and one UTF-8 file opener.

Parse and validation problems raise :class:`FrameFileError`, text that
``json.loads`` cannot decode (too deeply nested, an integer of over 4,300
digits) included; an error names the first malformed value by its path
(``$.vectors[1][0]``) and shows its repr cut to 100 characters. Size clashes
between declared and actual dimensions raise ``DimensionMismatchError``.
Serialization keeps full double precision, so round-trips are lossless.

Data moves as whole arrays. Reading converts each family body (or each
operator), weight list and signal vector with one object array, a shape
check, a type check and a finiteness check; only a value that fails them is
walked one level at a time, to name the part at fault (``NaN`` and
``Infinity``, which ``json.loads`` accepts, are rejected there). Writing
turns each family into Python floats with one ``tolist`` and renders each
row of pairs with the C JSON encoder. The text written is byte for byte
that of ``compact_pairs(json.dumps(root, indent=2))`` over one [re, im]
list per complex value.
"""

from __future__ import annotations

import json
import re
import reprlib
from dataclasses import dataclass

import numpy as np

from . import spectral
from .errors import DimensionMismatchError, FrameFileError
from .frames import OperatorFamily
from .pairs import PairSystem, WeightSequence

FORMAT_VERSION = "1"

_ROOT_KEYS = {"format_version", "dim", "vectors", "operators", "weights", "gamma"}
_SIGNAL_KEYS = {"format_version", "dim", "vector"}
_FAMILY_KEYS = {"vectors", "operators"}


@dataclass(frozen=True, eq=False)
class FrameDocument:
    """Parsed contents of a frame file.

    ``lam`` is the primary family; ``gamma`` may be None. The encodings
    remember whether each family arrived as vectors or operators so a
    round-trip serializes the same shape.
    """

    dim: int
    lam: OperatorFamily
    lam_encoding: str
    gamma: OperatorFamily | None = None
    gamma_encoding: str | None = None
    weights: WeightSequence | None = None

    def pair_system(self) -> PairSystem:
        """Pair system with gamma defaulting to the primary family."""
        weights = self.weights if self.weights is not None else WeightSequence([1.0] * self.lam.count)
        gamma = self.gamma if self.gamma is not None else self.lam
        return PairSystem(weights, gamma, self.lam)


#: element types of a well-formed [re, im] pair as json.loads returns them;
#: bool is excluded because JSON true/false load as a subclass of int
_NUMBER_TYPES = {float, int}


def _pairs_in(node, ndim: int) -> np.ndarray | None:
    """Complex array of ``node`` in one pass, or None when it is not a
    rectangular ``ndim``-deep nested list of finite [re, im] number pairs.

    One object array, a shape, a type and a finiteness check replace the
    per-element walk; the float64 values are viewed as complex128, so every
    bit (signed zeros included) is as written.
    """
    arr = np.array(node, dtype=object)
    if arr.ndim != ndim or arr.shape[-1] != 2 or not set(map(type, arr.flat)) <= _NUMBER_TYPES:
        return None
    try:
        vals = arr.astype(np.float64)
    except OverflowError:  # an integer beyond the float range
        return None
    return vals.view(np.complex128)[..., 0] if np.isfinite(vals).all() else None


def _shown(node) -> str:
    """``repr(node)`` for an error message, at most 100 characters long;
    reprlib keeps the work small on a huge or deeply nested value."""
    text = reprlib.repr(node)
    return text if len(text) <= 100 else text[:96] + " ..."


def _array_in(node, ndim: int, where: str) -> np.ndarray:
    """Complex array of ``node``: a [re, im] pair (``ndim`` 1), a vector of
    them (2) or a matrix (3). A value :func:`_pairs_in` rejects is walked
    one level down to name the first malformed part by its path."""
    arr = _pairs_in(node, ndim)
    if arr is not None:
        return arr
    if ndim == 1:
        shaped = isinstance(node, list) and len(node) == 2 and set(map(type, node)) <= _NUMBER_TYPES
        rule = "must be finite" if shaped else "are [re, im] number pairs"
        raise FrameFileError(f"{where}: complex values {rule}, got {_shown(node)}")
    if not isinstance(node, list) or not node:
        items = "rows" if ndim == 3 else "complex values"
        raise FrameFileError(f"{where}: expected a nonempty list of {items}")
    parts = [_array_in(v, ndim - 1, f"{where}[{k}]") for k, v in enumerate(node)]
    # every part is well formed, so only the widths of the rows can clash
    raise FrameFileError(f"{where}: ragged rows with widths {_shown(sorted({p.size for p in parts}))}")


def _family_in(node: dict, dim: int, where: str) -> tuple[OperatorFamily, str]:
    present = _FAMILY_KEYS & set(node)
    if len(present) != 1:
        raise FrameFileError(
            f"{where}: exactly one of 'vectors' or 'operators' is required, found {sorted(present)}"
        )
    encoding = present.pop()
    body = node[encoding]
    if not isinstance(body, list) or not body:
        raise FrameFileError(f"{where}.{encoding}: expected a nonempty list")
    if encoding == "vectors":
        vectors = _pairs_in(body, 3)
        if vectors is None:
            vectors = [_array_in(v, 2, f"{where}.vectors[{k}]") for k, v in enumerate(body)]
        return OperatorFamily.from_vectors(vectors, dim), encoding
    members = [_array_in(m, 3, f"{where}.operators[{k}]") for k, m in enumerate(body)]
    return OperatorFamily(members, dim), encoding


def _object(node, keys: set, where: str) -> dict:
    """``node`` itself when it is a JSON object with no key outside ``keys``."""
    if not isinstance(node, dict):
        raise FrameFileError(f"{where} must be an object")
    unknown = set(node) - keys
    if unknown:
        raise FrameFileError(f"{where}: unknown keys {_shown(sorted(unknown))}")
    return node


def _header(text: str, keys: set) -> tuple[dict, int]:
    """The top-level object of a frame or signal file and its dim, after the
    rules both kinds share: valid JSON, an object, no key outside ``keys``,
    format_version FORMAT_VERSION and a positive integer dim."""
    try:
        root = _object(json.loads(text), keys, "top level")
    except (ValueError, RecursionError) as exc:  # bad syntax, a huge integer, deep nesting
        raise FrameFileError(f"not valid JSON: {exc}") from None
    if root.get("format_version") != FORMAT_VERSION:
        raise FrameFileError(
            f"format_version {_shown(root.get('format_version'))} unsupported, expected {FORMAT_VERSION!r}"
        )
    dim = root.get("dim")
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise FrameFileError(f"dim must be a positive integer, got {_shown(dim)}")
    return root, dim


def _read(path, parse):
    """``parse`` of the text of the UTF-8 file at ``path``; a file that
    cannot be read or decoded raises FrameFileError."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise FrameFileError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise FrameFileError(f"cannot read {path}: not UTF-8 text ({exc.reason})") from None
    return parse(text)


def parse_document(text: str) -> FrameDocument:
    """Parse and validate one frame file from its text."""
    root, dim = _header(text, _ROOT_KEYS)
    lam, lam_encoding = _family_in(root, dim, "$")

    gamma = gamma_encoding = None
    if "gamma" in root:
        gamma_node = _object(root["gamma"], _FAMILY_KEYS, "gamma")
        gamma, gamma_encoding = _family_in(gamma_node, dim, "gamma")

    weights = None
    if "weights" in root:
        if root["weights"] == []:  # a weight sequence is nonempty, a family too
            raise DimensionMismatchError(f"0 weights for {lam.count} members")
        weights = WeightSequence(_array_in(root["weights"], 2, "weights"))

    doc = FrameDocument(dim, lam, lam_encoding, gamma, gamma_encoding, weights)
    doc.pair_system()  # member counts and row counts must match: DimensionMismatchError
    return doc


def load_document(path) -> FrameDocument:
    return _read(path, parse_document)


_NUM = r"-?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?"
_PAIR_RE = re.compile(rf"\[\s*({_NUM}),\s*({_NUM})\s*\]")


def compact_pairs(text: str) -> str:
    """Collapse two-number JSON arrays ([re, im] pairs) onto one line."""
    return _PAIR_RE.sub(r"[\1, \2]", text)


def _pair_lists(z: np.ndarray) -> list:
    """Nested lists of [re, im] floats for a complex array, in one pass;
    + 0.0 folds IEEE negative zeros (conjugation artifacts) into plain 0.0."""
    return (np.stack([z.real, z.imag], -1) + 0.0).tolist()


def _block(items: list, level: int) -> str:
    """A JSON list of already rendered items, laid out as
    ``json.dumps(indent=2)`` lays out a list nested ``level`` deep."""
    indent = "\n" + "  " * (level + 1)
    return "[" + indent + ("," + indent).join(items) + "\n" + "  " * level + "]"


def _pairs_text(pairs: list, level: int) -> str:
    """A list of [re, im] pairs, one pair per line: the text of
    ``compact_pairs(json.dumps(pairs, indent=2))``, from the C encoder."""
    # the C encoder joins the pairs with "], ["; a line break after each comma
    # gives the indented layout
    body = json.dumps(pairs)[1:-1].replace("], [", "],\n" + "  " * (level + 1) + "[")
    return _block([body], level)


def _family_text(family: OperatorFamily, encoding: str, level: int) -> str:
    if encoding == "vectors":
        if any(d != 1 for d in family.codims):
            raise ValueError("vector encoding requires every member to be a single row")
        rows = _pair_lists(family.stacked.conj())
        return _block([_pairs_text(r, level + 1) for r in rows], level)
    rows = [_pairs_text(r, level + 2) for r in _pair_lists(family.stacked)]
    members = [_block(rows[o : o + d], level + 1) for o, d in zip(family.offsets, family.codims)]
    return _block(members, level)


def vector_encoding(family: OperatorFamily) -> str:
    """Natural file encoding for a family: vectors when every d_i = 1."""
    return "vectors" if all(d == 1 for d in family.codims) else "operators"


def serialize_document(doc: FrameDocument) -> str:
    """Render a document back to frame-file text (full double precision).

    The text is that of ``compact_pairs(json.dumps(root, indent=2))``: the
    JSON layout with every [re, im] pair on one line. Each family moves to
    Python floats in one ``tolist`` and each row of pairs goes through the
    C encoder, so no Python code runs per number.
    """
    items = [
        f'"format_version": {json.dumps(FORMAT_VERSION)}',
        f'"dim": {json.dumps(doc.dim)}',
        f'"{doc.lam_encoding}": {_family_text(doc.lam, doc.lam_encoding, 1)}',
    ]
    if doc.weights is not None:
        items.append(f'"weights": {_pairs_text(_pair_lists(doc.weights.as_array()), 1)}')
    if doc.gamma is not None:
        enc = doc.gamma_encoding or vector_encoding(doc.gamma)
        items.append(f'"gamma": {{\n    "{enc}": {_family_text(doc.gamma, enc, 2)}\n  }}')
    return "{\n  " + ",\n  ".join(items) + "\n}\n"


def parse_signal(text: str) -> np.ndarray:
    """Parse a signal file: {"format_version": "1", "dim": n, "vector": [...]}."""
    root, dim = _header(text, _SIGNAL_KEYS)
    return spectral._vector(_array_in(root.get("vector"), 2, "vector"), dim, "signal")


def load_signal(path) -> np.ndarray:
    return _read(path, parse_signal)
