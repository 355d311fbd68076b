import json
import re
from pathlib import Path

import numpy as np
import pytest
from conftest import random_pair_system
from numpy.testing import assert_allclose

from pairframe import (
    DimensionMismatchError,
    FrameFileError,
    GenSpec,
    OperatorFamily,
    WeightSequence,
    generate,
    pair_operator,
)
from pairframe.fileformat import (
    FrameDocument,
    compact_pairs,
    load_document,
    load_signal,
    parse_document,
    parse_signal,
    serialize_document,
    vector_encoding,
)

FIX = Path(__file__).resolve().parent / "fixtures"

MERCEDES_TEXT = json.dumps(
    {
        "format_version": "1",
        "dim": 2,
        "vectors": [
            [[0.0, 0.0], [1.0, 0.0]],
            [[-0.8660254037844386, 0.0], [-0.5, 0.0]],
            [[0.8660254037844386, 0.0], [-0.5, 0.0]],
        ],
    }
)


def test_parse_vectors_conjugates():
    doc = parse_document(json.dumps({
        "format_version": "1", "dim": 2,
        "vectors": [[[0.0, 1.0], [2.0, 0.0]]],
    }))
    assert doc.dim == 2 and doc.lam_encoding == "vectors"
    assert_allclose(doc.lam.members[0], [[-1j, 2.0]])


def test_parse_operators_and_pair():
    doc = parse_document(json.dumps({
        "format_version": "1", "dim": 2,
        "operators": [[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]],
        "gamma": {"operators": [[[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]]},
        "weights": [[2.0, 0.0]],
    }))
    assert doc.lam_encoding == "operators"
    assert doc.gamma is not None and doc.weights is not None
    sys = doc.pair_system()
    assert_allclose(pair_operator(sys), 2.0 * np.eye(2)[::-1])


def test_pair_system_defaults_gamma_and_weights():
    doc = parse_document(MERCEDES_TEXT)
    sys = doc.pair_system()
    assert sys.gamma is doc.lam
    assert sys.m.values == (1.0 + 0j,) * 3
    assert_allclose(pair_operator(sys), 1.5 * np.eye(2), atol=3e-16)


def test_round_trip_is_lossless():
    for seed in (1, 2, 3):
        sys = random_pair_system(seed)
        doc = FrameDocument(
            dim=sys.ambient_dim,
            lam=sys.lam,
            lam_encoding=vector_encoding(sys.lam),
            gamma=sys.gamma,
            gamma_encoding=vector_encoding(sys.gamma),
            weights=sys.m,
        )
        again = parse_document(serialize_document(doc))
        assert again.dim == doc.dim
        assert again.weights.values == doc.weights.values
        for a, b in zip(again.lam.members, doc.lam.members):
            assert np.array_equal(a, b)
        for a, b in zip(again.gamma.members, doc.gamma.members):
            assert np.array_equal(a, b)


def test_serialize_vector_encoding_round_trip():
    doc = parse_document(MERCEDES_TEXT)
    text = serialize_document(doc)
    assert '"vectors"' in text and '"operators"' not in text
    again = parse_document(text)
    for a, b in zip(again.lam.members, doc.lam.members):
        assert np.array_equal(a, b)


def test_serialize_folds_negative_zero():
    fam = OperatorFamily.from_vectors([[1j, 0.0]])  # conjugating back flips signs
    doc = FrameDocument(dim=2, lam=fam, lam_encoding="vectors")
    assert "-0.0" not in serialize_document(doc)


def reference_serialize(doc: FrameDocument) -> str:
    """The per-number route: one [re, im] list per complex value, then
    ``compact_pairs(json.dumps(root, indent=2))``."""

    def pair(z):
        return [float(z.real) + 0.0, float(z.imag) + 0.0]

    def family(fam, encoding):
        if encoding == "vectors":
            return [[pair(z) for z in m[0].conj()] for m in fam.members]
        return [[[pair(z) for z in row] for row in m] for m in fam.members]

    root = {"format_version": "1", "dim": doc.dim}
    root[doc.lam_encoding] = family(doc.lam, doc.lam_encoding)
    if doc.weights is not None:
        root["weights"] = [pair(w) for w in doc.weights.values]
    if doc.gamma is not None:
        enc = doc.gamma_encoding or vector_encoding(doc.gamma)
        root["gamma"] = {enc: family(doc.gamma, enc)}
    return compact_pairs(json.dumps(root, indent=2)) + "\n"


def reference_documents() -> list:
    """Documents with every optional part: weights, gamma in either encoding
    or defaulted, mixed codimensions, negative zeros and extreme exponents."""
    docs = []
    for seed in (1, 2, 3):
        sys = random_pair_system(seed)
        docs.append(FrameDocument(sys.ambient_dim, sys.lam, "operators", sys.gamma, "operators", sys.m))
    for kind, dim, count in (("random_frame", 8, 20), ("harmonic", 5, 7), ("random_gframe", 4, 6)):
        fam = generate(GenSpec(kind, dim=dim, count=count, seed=4))
        docs.append(FrameDocument(dim, fam, vector_encoding(fam)))
    extreme = OperatorFamily.from_vectors([[-0.0 + 1e300j, 1e-300 - 0.0j], [complex(-0.0, -0.0), 5e-324]])
    rows = OperatorFamily([[[1.5 - 2.0j, -1e-300 + 0.0j]], [[-0.0, 1e300]]], 2)
    weights = WeightSequence([complex(-0.0, -0.0), -1e300 + 1e-300j])
    docs.append(FrameDocument(2, extreme, "vectors", rows, "operators", weights))
    docs.append(FrameDocument(2, rows, "operators", extreme, None, weights))
    return docs


@pytest.mark.parametrize("doc", reference_documents())
def test_serialize_matches_the_per_number_route(doc):
    assert serialize_document(doc) == reference_serialize(doc)


def bits(doc: FrameDocument) -> list:
    """Every array of a document as raw bytes, signed zeros included."""
    out = [m.tobytes() for m in doc.lam.members]
    if doc.gamma is not None:
        out += [m.tobytes() for m in doc.gamma.members]
    if doc.weights is not None:
        out.append(doc.weights.as_array().tobytes())
    return out


@pytest.mark.parametrize(
    "text",
    [serialize_document(doc) for doc in reference_documents()]
    + [p.read_text(encoding="utf-8") for p in sorted(FIX.glob("*_pair.json")) + [FIX / "mercedes.json"]],
)
def test_parse_serialize_parse_is_bit_identical(text):
    first = parse_document(text)
    again = parse_document(serialize_document(first))
    assert bits(again) == bits(first)


def test_vector_encoding_requires_rows():
    fam = OperatorFamily([np.ones((2, 2))], 2)
    assert vector_encoding(fam) == "operators"
    doc = FrameDocument(dim=2, lam=fam, lam_encoding="vectors")
    with pytest.raises(ValueError):
        serialize_document(doc)


def test_compact_pairs_only_touches_pairs():
    text = '[\n  1.0,\n  -2e-3\n] and [\n  1.0,\n  2.0,\n  3.0\n]'
    out = compact_pairs(text)
    assert out.startswith("[1.0, -2e-3]")
    assert "\n  3.0" in out  # triples stay multi-line


#: malformed [re, im] values: JSON true and null (which a plain float
#: conversion reads as 1.0 and nan), a string, a triple, a bare number, an
#: empty pair and a pair nested one level too deep (a ragged entry)
BAD_VALUES = [[True, 0.0], [None, 0.0], ["1", 0.0], [1.0, 0.0, 0.0], 1.0, [], [[1.0, 0.0], [0.0, 0.0]]]


def in_vectors(value):
    """Mutation putting ``value`` at $.vectors[1][0]."""
    return lambda r: r.update(vectors=[[[1.0, 0.0], [0.0, 0.0]], [value, [1.0, 0.0]]])


def in_operators(value):
    """Mutation putting ``value`` at $.operators[0][1][0]."""
    return lambda r: (r.pop("vectors"), r.update(operators=[[[[1.0, 0.0], [0.0, 0.0]], [value, [1.0, 0.0]]]]))


def in_weights(value):
    """Mutation putting ``value`` at weights[1]."""
    return lambda r: r.update(weights=[[1.0, 0.0], value, [1.0, 0.0]])


def in_gamma(value):
    """Mutation putting ``value`` at gamma.vectors[1][0]."""
    return lambda r: r.update(
        gamma={"vectors": [[[1.0, 0.0], [0.0, 0.0]], [value, [1.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]}
    )


#: values json.loads accepts as numbers that are not finite doubles: NaN,
#: Infinity, -Infinity and an integer beyond the float range
NON_FINITE = [[float("nan"), 0.0], [0.0, float("inf")], [float("-inf"), 1.0], [10**400, 0.0]]


@pytest.mark.parametrize(
    "mutate",
    [
        lambda r: r.update(format_version="2"),
        lambda r: r.pop("format_version"),
        lambda r: r.update(dim="2"),
        lambda r: r.update(dim=0),
        lambda r: r.update(dim=True),
        lambda r: r.update(extra=1),
        lambda r: r.pop("vectors"),
        lambda r: r.update(operators=[]),
        lambda r: r.update(vectors=[]),
        lambda r: r.update(vectors=[[[1.0, 0.0], [0.0, "x"]]]),
        lambda r: r.update(vectors=[[[1.0, 0.0, 0.0], [0.0, 0.0]]]),
        lambda r: r.update(gamma=[1, 2]),
        lambda r: r.update(gamma={"bogus": []}),
        lambda r: r.update(weights="heavy"),
        lambda r: r.update(operators=[[[[1.0, 0.0]], [[1.0, 0.0], [2.0, 0.0]]]]),
        *[put(bad) for bad in BAD_VALUES for put in (in_vectors, in_operators, in_weights)],
        lambda r: r["vectors"].__setitem__(1, []),
        lambda r: (r.pop("vectors"), r.update(operators=[[[[1.0, 0.0], [0.0, 0.0]], []]])),
    ],
)
def test_malformed_documents_raise_frame_file_error(mutate):
    root = json.loads(MERCEDES_TEXT)
    mutate(root)
    with pytest.raises(FrameFileError):
        parse_document(json.dumps(root))


@pytest.mark.parametrize(
    "put, where",
    [(in_vectors, "$.vectors[1][0]"), (in_operators, "$.operators[0][1][0]"), (in_weights, "weights[1]")],
)
def test_malformed_value_is_named_in_the_error(put, where):
    root = json.loads(MERCEDES_TEXT)
    put([True, 0.0])(root)
    with pytest.raises(FrameFileError) as err:
        parse_document(json.dumps(root))
    assert str(err.value) == f"{where}: complex values are [re, im] number pairs, got [True, 0.0]"


@pytest.mark.parametrize("bad", NON_FINITE, ids=["nan", "inf", "-inf", "huge-int"])
@pytest.mark.parametrize(
    "put, where",
    [
        (in_vectors, "$.vectors[1][0]"),
        (in_operators, "$.operators[0][1][0]"),
        (in_gamma, "gamma.vectors[1][0]"),
        (in_weights, "weights[1]"),
    ],
)
def test_non_finite_value_is_named_in_the_error(put, where, bad):
    root = json.loads(MERCEDES_TEXT)
    put(bad)(root)
    with pytest.raises(FrameFileError, match=rf"^{re.escape(where)}: complex values must be finite"):
        parse_document(json.dumps(root))


def test_overflowing_literal_is_rejected():
    """1e400 parses as an infinite float."""
    text = MERCEDES_TEXT.replace("-0.5", "1e400", 1)
    with pytest.raises(FrameFileError, match=r"^\$\.vectors\[1\]\[1\]: complex values must be finite"):
        parse_document(text)


def test_not_json_raises_frame_file_error():
    with pytest.raises(FrameFileError):
        parse_document("{not json")
    with pytest.raises(FrameFileError):
        parse_document('"just a string"')


@pytest.mark.parametrize(
    "mutate",
    [
        lambda r: r.update(dim=3),  # vectors are length 2
        lambda r: r.update(weights=[[1.0, 0.0]]),  # 1 weight for 3 members
        lambda r: r.update(gamma={"vectors": [[[1.0, 0.0], [0.0, 0.0]]]}),  # count clash
        lambda r: r.update(weights=[]),  # 0 weights for 3 members
        # row clash: 2-row gamma members against 1-row primary members
        lambda r: r.update(gamma={"operators": [[[[1.0, 0.0], [0.0, 0.0]]] * 2] * 3}),
    ],
)
def test_size_clashes_raise_dimension_mismatch(mutate):
    root = json.loads(MERCEDES_TEXT)
    mutate(root)
    with pytest.raises(DimensionMismatchError):
        parse_document(json.dumps(root))


def test_load_document_missing_file(tmp_path):
    with pytest.raises(FrameFileError):
        load_document(tmp_path / "nope.json")


@pytest.mark.parametrize("load", [load_document, load_signal])
def test_load_rejects_a_file_that_is_not_utf8(tmp_path, load):
    p = tmp_path / "latin1.json"
    p.write_bytes(b'{"format_version": "1", "dim": 1, "vector": [[1.0, 0.0]], "x": "\xe9"}')
    with pytest.raises(FrameFileError, match="not UTF-8"):
        load(p)


def test_load_document_reads_utf8(tmp_path):
    p = tmp_path / "fam.json"
    p.write_text(MERCEDES_TEXT, encoding="utf-8")
    assert load_document(p).lam.count == 3


def test_signal_rejects_unknown_keys():
    """A signal file follows the frame file's header rules, unknown keys
    included."""
    with pytest.raises(FrameFileError, match=r"unknown keys \['extra'\]"):
        parse_signal(json.dumps({
            "format_version": "1", "dim": 2, "vector": [[1.0, 0.0], [0.0, 1.0]], "extra": 1,
        }))


def test_signal_round_trip(tmp_path):
    p = tmp_path / "sig.json"
    p.write_text(json.dumps({
        "format_version": "1", "dim": 2,
        "vector": [[1.0, -2.0], [0.5, 0.0]],
    }))
    assert_allclose(load_signal(p), [1.0 - 2.0j, 0.5])


def test_signal_validation():
    with pytest.raises(FrameFileError):
        parse_signal("[]")
    with pytest.raises(FrameFileError):
        parse_signal(json.dumps({"format_version": "1", "dim": 2}))
    with pytest.raises(DimensionMismatchError):
        parse_signal(json.dumps({
            "format_version": "1", "dim": 3, "vector": [[1.0, 0.0]],
        }))
    with pytest.raises(FrameFileError, match="format_version"):
        parse_signal(json.dumps({"format_version": "2", "dim": 1, "vector": [[1.0, 0.0]]}))
    with pytest.raises(FrameFileError, match="dim must be a positive integer"):
        parse_signal(json.dumps({"format_version": "1", "dim": True, "vector": [[1.0, 0.0]]}))
    for bad in BAD_VALUES + NON_FINITE:
        with pytest.raises(FrameFileError, match=r"vector\[1\]"):
            parse_signal(json.dumps({
                "format_version": "1", "dim": 2, "vector": [[1.0, 0.0], bad],
            }))
