"""Canonical JSON form of a superalgebra.

The document layout (keys in this order, entries sorted by indices,
zero entries omitted, scalars as canonical strings):

    {
      "field": {"kind": "rationals"} | {"kind": "prime_field", "p": 5},
      "dim_even": 3,
      "dim_odd": 2,
      "axiom_mode": "standard" | "char3" | "char2",
      "bracket_even": [[i, j, k, "c"], ...]   # i < j
      "action":       [[x, v, w, "c"], ...],
      "p_map":        [[u, v, x, "c"], ...],  # u <= v; absent in char2 mode
      "squaring":     [[v, w, x, "c"], ...],  # v <= w; char2 mode only
      "metadata":     {"key": "value", ...}   # optional free-form strings
    }

Unknown keys are rejected, as are entries outside the declared dimensions.
Serialization is canonical: parse . serialize is the identity on bytes.
"""

from __future__ import annotations

import json

from .fields import Field, FieldError
from .superalgebra import SuperAlgebra

__all__ = ["SchemaError", "parse_algebra", "serialize_algebra", "field_to_json", "field_from_json"]

_TOP_KEYS = (
    "field",
    "dim_even",
    "dim_odd",
    "axiom_mode",
    "bracket_even",
    "action",
    "p_map",
    "squaring",
    "metadata",
)


class SchemaError(ValueError):
    """Document does not conform to the canonical schema."""


def field_to_json(field: Field) -> dict:
    if field.kind == "rationals":
        return {"kind": "rationals"}
    return {"kind": "prime_field", "p": field.p}


def field_from_json(doc) -> Field:
    if not isinstance(doc, dict):
        raise SchemaError("field must be an object")
    kind = doc.get("kind")
    if kind == "rationals":
        if set(doc) != {"kind"}:
            raise SchemaError("unexpected keys in rational field spec")
        return Field.rationals()
    if kind == "prime_field":
        if set(doc) != {"kind", "p"}:
            raise SchemaError("unexpected keys in prime field spec")
        p = doc["p"]
        if not isinstance(p, int) or isinstance(p, bool):
            raise SchemaError("p must be an integer")
        try:
            return Field.prime(p)
        except FieldError as exc:
            raise SchemaError(str(exc)) from None
    raise SchemaError(f"unknown field kind {kind!r}")


def _check_dim(value, name: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise SchemaError(f"{name} must be a nonnegative integer")
    return value


def _entries(doc, key, field, bound1, bound2, bound3, ordered) -> dict:
    """The document's ``key`` entries as ``{(i, j, k): raw value}``, each
    checked in range and order, nonzero and not duplicated.  Each distinct
    scalar string is parsed once: a dense document repeats few values."""
    raw = doc.get(key, [])
    if not isinstance(raw, list):
        raise SchemaError(f"{key} must be a list")
    out: dict = {}
    parsed: dict = {}  # scalar string -> its parsed value
    for item in raw:
        if not (isinstance(item, list) and len(item) == 4):
            raise SchemaError(f"{key} entries must be [i, j, k, coeff]")
        i, j, k, coeff = item
        for n in (i, j, k):
            if not isinstance(n, int) or isinstance(n, bool):
                raise SchemaError(f"{key} indices must be integers")
        if not (0 <= i < bound1 and 0 <= j < bound2 and 0 <= k < bound3):
            raise SchemaError(f"{key} entry ({i},{j},{k}) outside declared dims")
        if ordered == "strict" and not i < j:
            raise SchemaError(f"{key} entry ({i},{j},{k}) needs i < j")
        if ordered == "weak" and not i <= j:
            raise SchemaError(f"{key} entry ({i},{j},{k}) needs i <= j")
        value = parsed.get(coeff) if type(coeff) is str else None
        if value is None:
            try:
                value = parsed[coeff] = field.parse(coeff)
            except FieldError as exc:
                raise SchemaError(f"{key} coefficient: {exc}") from None
        if not value:
            raise SchemaError(f"{key} entry ({i},{j},{k}) has zero coefficient")
        if (i, j, k) in out:
            raise SchemaError(f"{key} entry ({i},{j},{k}) duplicated")
        out[i, j, k] = value
    return out


def parse_algebra(text: str | bytes) -> tuple[SuperAlgebra, dict]:
    """Parse the canonical JSON document; returns (algebra, metadata)."""
    try:
        doc = json.loads(text)
    except RecursionError:
        raise SchemaError("not valid JSON: nested too deeply") from None
    except ValueError as exc:  # JSONDecodeError, or an integer too long to convert
        raise SchemaError(f"not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise SchemaError("top level must be an object")
    unknown = set(doc) - set(_TOP_KEYS)
    if unknown:
        raise SchemaError(f"unknown top-level keys: {sorted(unknown)}")
    for required in ("field", "dim_even", "dim_odd"):
        if required not in doc:
            raise SchemaError(f"missing key {required!r}")
    field = field_from_json(doc["field"])
    d0 = _check_dim(doc["dim_even"], "dim_even")
    d1 = _check_dim(doc["dim_odd"], "dim_odd")
    mode = doc.get("axiom_mode", "standard")
    if mode not in ("standard", "char3", "char2"):
        raise SchemaError(f"unknown axiom_mode {mode!r}")

    bracket = _entries(doc, "bracket_even", field, d0, d0, d0, "strict")
    action = _entries(doc, "action", field, d0, d1, d1, "any")
    if mode == "char2":
        if "p_map" in doc:
            raise SchemaError("char2 documents carry squaring, not p_map")
        squaring = _entries(doc, "squaring", field, d1, d1, d0, "weak")
        p_map = None  # derived from the squaring by polarization
    else:
        if "squaring" in doc:
            raise SchemaError("squaring is only valid in char2 mode")
        p_map = _entries(doc, "p_map", field, d1, d1, d0, "weak")
        squaring = None

    metadata = doc.get("metadata", {})
    if not isinstance(metadata, dict) or not all(
        isinstance(k, str) and isinstance(v, str) for k, v in metadata.items()
    ):
        raise SchemaError("metadata must be a string-to-string object")

    try:
        g = SuperAlgebra._of(field, d0, d1, mode, bracket, action, p_map, squaring)
    except ValueError as exc:
        raise SchemaError(str(exc)) from None
    return g, dict(metadata)


def serialize_algebra(g: SuperAlgebra, metadata: dict | None = None) -> str:
    """Canonical serialization (stable key order, sorted sparse entries)."""
    field = g.field

    def entries(sector: dict) -> list:
        return [[*key, field.format(c)] for key, c in sorted(sector.items())]

    doc: dict = {
        "field": field_to_json(field),
        "dim_even": g.dim_even,
        "dim_odd": g.dim_odd,
        "axiom_mode": g.mode,
        "bracket_even": entries(g._even),
        "action": entries(g._act),
    }
    if g.mode == "char2":
        doc["squaring"] = entries(g._sq)
    else:
        doc["p_map"] = entries(g._odd)
    if metadata:
        doc["metadata"] = {k: metadata[k] for k in sorted(metadata)}
    return json.dumps(doc, indent=2) + "\n"
