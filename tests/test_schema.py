import json

import pytest

from superbracket.constructions import (
    build_char2_example,
    build_char3_example,
    build_double,
    build_osp12,
    sl2_algebra,
)
from superbracket.fields import GF, QQ, FieldError
from superbracket.linalg import Matrix
from superbracket.schema import (
    SchemaError,
    parse_algebra,
    serialize_algebra,
)
from superbracket.superalgebra import SuperAlgebra


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


SPELLINGS = {QQ: ["3", "+3", "03", "6/2", "3", " 3", "3/1", "6/2", "+3"], GF(7): ["3", "+3", "03", "10", "3", "-4", "10", "+3", "3"]}


@pytest.mark.parametrize("field", list(SPELLINGS), ids=str)
def test_repeated_and_respelled_scalars_parse_to_the_same_algebra(field):
    # each distinct scalar string is parsed once per sector; every entry is
    # still checked, and every spelling of 3 gives the same algebra as the
    # entries given as values
    spellings = SPELLINGS[field]
    cells = [(x, v, w) for x in range(3) for v in range(3) for w in range(3)][: len(spellings)]
    doc = {
        "field": {"kind": "rationals"} if field is QQ else {"kind": "prime_field", "p": field.p},
        "dim_even": 3,
        "dim_odd": 3,
        "action": [[*cell, c] for cell, c in zip(cells, spellings)],
        "p_map": [[0, 0, 0, c] for c in spellings[:1]] + [[0, 1, 0, spellings[1]], [1, 2, 2, spellings[2]]],
    }
    parsed, _ = parse_algebra(json.dumps(doc))
    three = field.coerce(3)
    expected = SuperAlgebra.from_entries(
        field, 3, 3, action=[(*cell, three) for cell in cells], odd_bracket=[(0, 0, 0, three), (0, 1, 0, three), (1, 2, 2, three)]
    )
    assert parsed == expected
    assert serialize_algebra(parsed) == serialize_algebra(expected)


@pytest.mark.parametrize(
    "field, bad",
    [(QQ, "3x"), (QQ, "3/0"), (QQ, "1" * 5000), (GF(7), "1/2"), (GF(7), "3.0")],
    ids=["letter", "zero-denominator", "too-long", "fraction-over-Fp", "decimal"],
)
def test_bad_scalar_after_good_ones_gives_the_same_error(field, bad):
    try:
        field.parse(bad)
    except FieldError as exc:
        message = f"action coefficient: {exc}"
    doc = {
        "field": {"kind": "rationals"} if field is QQ else {"kind": "prime_field", "p": field.p},
        "dim_even": 1,
        "dim_odd": 3,
        "action": [[0, 0, 0, "3"], [0, 0, 1, "3"], [0, 0, 2, bad], [0, 1, 0, bad]],
    }
    with pytest.raises(SchemaError) as refused:
        parse_algebra(json.dumps(doc))
    assert str(refused.value) == message
    # a repeated scalar still meets the zero and duplicate checks
    doc["action"] = [[0, 0, 0, "3"], [0, 0, 1, "3"], [0, 0, 0, "3"]]
    with pytest.raises(SchemaError, match=r"^action entry \(0,0,0\) duplicated$"):
        parse_algebra(json.dumps(doc))
    doc["action"] = [[0, 0, 0, "00"], [0, 0, 1, "00"]]
    with pytest.raises(SchemaError, match=r"^action entry \(0,0,0\) has zero coefficient$"):
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


MINIMAL = {"field": {"kind": "prime_field", "p": 5}, "dim_even": 1, "dim_odd": 1}
REFUSALS = [
    ({**MINIMAL, "field": "q"}, "field must be an object"),
    ({**MINIMAL, "field": {"kind": "rationals", "p": 5}}, "unexpected keys in rational field spec"),
    ({**MINIMAL, "field": {"kind": "prime_field", "p": 5, "q": 5}}, "unexpected keys in prime field spec"),
    ({**MINIMAL, "field": {"kind": "prime_field", "p": "5"}}, "p must be an integer"),
    ({**MINIMAL, "dim_odd": -1}, "dim_odd must be a nonnegative integer"),
    ({**MINIMAL, "action": {}}, "action must be a list"),
    ({**MINIMAL, "action": [[0, 0, 0]]}, "action entries must be [i, j, k, coeff]"),
    ({**MINIMAL, "action": [[0, 0, True, "1"]]}, "action indices must be integers"),
    ({**MINIMAL, "action": [[0, 0, 0, "5"]]}, "action entry (0,0,0) has zero coefficient"),
    ([MINIMAL], "top level must be an object"),
    ({"field": MINIMAL["field"], "dim_odd": 1}, "missing key 'dim_even'"),
    ({**MINIMAL, "axiom_mode": "char5"}, "unknown axiom_mode 'char5'"),
    ({**MINIMAL, "metadata": {"name": 1}}, "metadata must be a string-to-string object"),
]


@pytest.mark.parametrize("doc, message", REFUSALS, ids=[message for _, message in REFUSALS])
def test_each_refusal_names_its_cause(doc, message):
    # one minimal document per refusal that no other test reaches
    parse_algebra(json.dumps(MINIMAL))
    with pytest.raises(SchemaError) as refused:
        parse_algebra(json.dumps(doc))
    assert str(refused.value) == message
