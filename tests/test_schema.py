import json

import pytest

from superbracket.constructions import (
    build_char2_example,
    build_char3_example,
    build_double,
    build_osp12,
    sl2_algebra,
)
from superbracket.fields import GF, QQ
from superbracket.linalg import Matrix
from superbracket.schema import (
    SchemaError,
    parse_algebra,
    serialize_algebra,
)


ALGEBRAS = [
    build_osp12(QQ),
    build_osp12(GF(5)),
    build_double(sl2_algebra(QQ), Matrix.identity(QQ, 3)),
    build_char3_example(),
    build_char2_example(),
    sl2_algebra(GF(7)),
]


@pytest.mark.parametrize("g", ALGEBRAS, ids=lambda g: f"{g.field}-{g.mode}")
def test_round_trip_identity(g):
    text = serialize_algebra(g)
    parsed, meta = parse_algebra(text)
    assert parsed == g
    assert meta == {}
    assert serialize_algebra(parsed) == text


def test_metadata_round_trip():
    g = build_osp12(QQ)
    text = serialize_algebra(g, {"b": "2", "a": "1"})
    parsed, meta = parse_algebra(text)
    assert meta == {"a": "1", "b": "2"}
    assert serialize_algebra(parsed, meta) == text


def doc_of(g):
    return json.loads(serialize_algebra(g))


def test_unknown_keys_rejected():
    doc = doc_of(build_osp12(QQ))
    doc["extra"] = []
    with pytest.raises(SchemaError, match="unknown top-level"):
        parse_algebra(json.dumps(doc))


def test_out_of_range_entries_rejected():
    doc = doc_of(build_osp12(QQ))
    doc["p_map"].append([0, 5, 0, "1/1"])
    with pytest.raises(SchemaError, match="outside declared dims"):
        parse_algebra(json.dumps(doc))


def test_ordering_constraints():
    doc = doc_of(build_osp12(QQ))
    doc["bracket_even"] = [[1, 0, 0, "1/1"]]
    with pytest.raises(SchemaError, match="i < j"):
        parse_algebra(json.dumps(doc))
    doc = doc_of(build_osp12(QQ))
    doc["p_map"] = [[1, 0, 0, "1/1"]]
    with pytest.raises(SchemaError, match="i <= j"):
        parse_algebra(json.dumps(doc))


def test_scalar_strings_validated():
    doc = doc_of(build_osp12(GF(5)))
    doc["p_map"][0][3] = "1/2"
    with pytest.raises(SchemaError, match="coefficient"):
        parse_algebra(json.dumps(doc))
    doc = doc_of(build_osp12(QQ))
    doc["p_map"][0][3] = 2  # must be a string
    with pytest.raises(SchemaError):
        parse_algebra(json.dumps(doc))


def test_mode_key_constraints():
    doc = doc_of(build_char2_example())
    doc["p_map"] = []
    with pytest.raises(SchemaError, match="squaring"):
        parse_algebra(json.dumps(doc))
    doc = doc_of(build_osp12(QQ))
    doc["squaring"] = []
    with pytest.raises(SchemaError, match="char2"):
        parse_algebra(json.dumps(doc))


def test_field_spec_errors():
    with pytest.raises(SchemaError):
        parse_algebra(json.dumps({"field": {"kind": "real"}, "dim_even": 0, "dim_odd": 0}))
    with pytest.raises(SchemaError):
        parse_algebra(
            json.dumps(
                {"field": {"kind": "prime_field", "p": 6}, "dim_even": 0, "dim_odd": 0}
            )
        )


def test_duplicate_entries_rejected():
    doc = doc_of(build_osp12(QQ))
    doc["p_map"].append(doc["p_map"][0])
    with pytest.raises(SchemaError, match="duplicated"):
        parse_algebra(json.dumps(doc))
    # non-adjacent duplicate, another coefficient: reported at the first
    # repeat of the same (x, v, w) index
    doc = doc_of(build_osp12(QQ))
    action = doc["action"]
    assert len(action) >= 3
    x, v, w, _ = action[0]
    action.append([x, v, w, "5/1"])
    action.append(list(action[1]))
    with pytest.raises(SchemaError, match=rf"^action entry \({x},{v},{w}\) duplicated$"):
        parse_algebra(json.dumps(doc))


def test_mode_characteristic_mismatch():
    doc = doc_of(build_osp12(GF(5)))
    doc["axiom_mode"] = "char3"
    with pytest.raises(SchemaError, match="characteristic 3"):
        parse_algebra(json.dumps(doc))
