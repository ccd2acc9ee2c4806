"""Command-line front end.

Subcommands operate on the canonical JSON documents (see ``schema``) and
compose through pipes: a path argument of "-" reads stdin, and every
``construct`` subcommand writes canonical JSON to stdout, so e.g.

    superbracket construct irrep --m 2 --field fp:5 | superbracket pspace -
    superbracket construct double --field q | superbracket classify -

Exit codes: 0 success (classification cases A/B/C), 1 validation failure
(also ``pspace`` and ``decompose`` on an action that is not a
representation), 2 not applicable (classification, ``pspace`` on a char2
document, ``decompose`` on an even part that is not 3-dimensional), 3
undetermined (``decompose``'s triple search), 64 usage error, 65 schema
error.  Commands raise their errors, and :func:`main` alone turns each into
its exit code and stderr text; only ``validate``'s violations and
``classify``'s ``not_applicable``, which are results printed on stdout,
exit from their command.
"""

from __future__ import annotations

import contextlib
import json
import sys

import click

from . import superalgebra as sa
from .classify import classify as run_classify, is_simple_superalgebra
from .constructions import (
    AssembleError,
    BilinearFormPair,
    add_centre,
    assemble,
    build_char2_example,
    build_char3_example,
    build_double,
    build_osp,
    build_osp12,
    sl2_algebra,
)
from .fields import Field, FieldError
from .linalg import Matrix
from .moduli import (
    NotARepresentation,
    UnsupportedMode,
    odd_bracket_space,
    sweep_irrep_sums,
)
from .schema import SchemaError, parse_algebra, serialize_algebra
from .sl2 import (
    INCONCLUSIVE,
    IrrepSpec,
    RepMatrices,
    Undetermined,
    build_irrep,
    decompose as rep_decompose,
    find_sl2_triple,
    jacobson_test,
)

EXIT_VALIDATION = 1
EXIT_NOT_APPLICABLE = 2
EXIT_UNDETERMINED = 3
EXIT_USAGE = 64
EXIT_SCHEMA = 65


def parse_field_flag(text: str) -> Field:
    if text == "q":
        return Field.rationals()
    if text.startswith("fp:"):
        try:
            return Field.prime(int(text[3:]))
        except (ValueError, FieldError) as exc:
            raise click.UsageError(f"bad --field {text!r}: {exc}") from None
    raise click.UsageError(f"--field must be 'q' or 'fp:<prime>', got {text!r}")


field_option = click.option(
    "--field", "field_text", default="q", show_default=True,
    help="Coefficient field: q or fp:<prime>.",
)


def _echo(message, err: bool = False, nl: bool = True) -> None:
    """``click.echo`` to the stream current at this call.  click's default
    stream is cached per stream in a WeakKeyDictionary whose value for a
    text stream is that stream itself, which would keep every stream ever
    captured in-process (an ``io.StringIO`` in place of sys.stdout) alive."""
    click.echo(message, nl=nl, file=click.get_text_stream("stderr" if err else "stdout"))


def _show_help(ctx, param, value) -> None:
    if value and not ctx.resilient_parsing:
        _echo(ctx.get_help())
        ctx.exit()


class _Command(click.Command):
    """--help through :func:`_echo`, not click's cached default stream."""

    def get_help_option(self, ctx):
        option = super().get_help_option(ctx)
        if option is not None:
            option.callback = _show_help
        return option


class _Group(_Command, click.Group):
    command_class, group_class = _Command, type  # subgroups are _Group too


def _read_document(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise click.UsageError(f"cannot read {path}: {exc}") from None


def _load(path: str):
    return parse_algebra(_read_document(path))


def _emit(g, metadata=None):
    _echo(serialize_algebra(g, metadata), nl=False)


@click.group(cls=_Group)
def cli():
    """Exact construction, validation and classification of Lie
    superalgebras with three-dimensional simple even part."""


@cli.command("validate")
@click.argument("path")
def cmd_validate(path):
    """Check every axiom of the document's mode; exit 1 on violations."""
    g, _ = _load(path)
    report = sa.validate(g)
    if report.ok:
        _echo("valid")
        return
    for violation in report.violations:
        _echo(str(violation))
    sys.exit(EXIT_VALIDATION)


@cli.command("classify")
@click.argument("path")
def cmd_classify(path):
    """Decide case A/B/C and print the verified certificate."""
    g, _ = _load(path)
    result = run_classify(g)
    doc = {"case": result.case}
    if result.centre_dim is not None:
        doc["centre_dim"] = result.centre_dim
    if result.certificate is not None:
        field = g.field
        doc["certificate"] = {
            "even": [
                [field.format(x) for x in row]
                for row in result.certificate.m_even.data
            ],
            "odd": [
                [field.format(x) for x in row]
                for row in result.certificate.m_odd.data
            ],
        }
    if result.reason:
        doc["reason"] = result.reason
    if result.restricted_note:
        doc["restricted"] = result.restricted_note
    _echo(json.dumps(doc, indent=2))
    if result.case == "not_applicable":
        sys.exit(EXIT_NOT_APPLICABLE)


@cli.group("construct")
def construct():
    """Builders; each prints canonical JSON."""


@contextlib.contextmanager
def _flag_errors():
    """A ValueError (a FieldError included) of a builder or the sweep means
    that the flags describe no algebra: a usage error.  An AssembleError is
    not one."""
    try:
        yield
    except AssembleError:
        raise
    except ValueError as exc:
        raise click.UsageError(str(exc)) from None


@construct.command("osp12")
@field_option
def construct_osp12(field_text):
    """The 3|2 orthosymplectic algebra."""
    field = parse_field_flag(field_text)
    with _flag_errors():
        g = build_osp12(field)
    _emit(g)


@construct.command("osp")
@field_option
@click.option("--d0", type=click.IntRange(0), required=True, help="Quadratic dimension.")
@click.option("--d1", type=click.IntRange(0), required=True, help="Symplectic dimension (even).")
@click.option(
    "--q-diag",
    default=None,
    help="Comma-separated diagonal of the quadratic form (default all ones).",
)
def construct_osp(field_text, d0, d1, q_diag):
    """Orthosymplectic algebra of diag(q) + standard symplectic form."""
    field = parse_field_flag(field_text)
    entries = [field.one()] * d0
    if q_diag is not None:
        try:
            entries = [field.parse(x) for x in q_diag.split(",")]
        except FieldError as exc:
            raise click.UsageError(f"bad --q-diag: {exc}") from None
        if len(entries) != d0:
            raise click.UsageError("--q-diag length must equal --d0")
    with _flag_errors():
        omega = BilinearFormPair.standard(field, 0, d1).omega
        g = build_osp(BilinearFormPair(Matrix.diagonal(field, entries), omega), field)
    _emit(g)


@construct.command("double")
@field_option
def construct_double(field_text):
    """The double of sl(2): sl2 + (sl2' + centralizer line)."""
    field = parse_field_flag(field_text)
    with _flag_errors():
        g = build_double(sl2_algebra(field), Matrix.identity(field, 3))
    _emit(g)


@construct.command("irrep")
@field_option
@click.option("--m", type=int, required=True, help="Highest weight (dim = m+1).")
@click.option("--alpha", default=None, help="Override alpha (dim = p only).")
@click.option("--beta", default=None, help="Override beta (dim = p only).")
def construct_irrep(field_text, m, alpha, beta):
    """sl(2) + V(m, alpha, beta) with zero odd bracket."""
    field = parse_field_flag(field_text)
    _emit(_sl2_module_algebra(field, m, alpha, beta, ()))


def _sl2_module_algebra(field, m, alpha, beta, odd_entries):
    with _flag_errors():
        spec = IrrepSpec(
            m,
            field.scalar(field.parse(alpha)) if alpha is not None else field.scalar(m),
            field.scalar(field.parse(beta)) if beta is not None else field.scalar(0),
        )
        rep = build_irrep(spec, field)
        return assemble(sl2_algebra(field), rep, odd_entries)


@construct.command("char3")
def construct_char3():
    """The 3|3 characteristic-3 structure outside the classification."""
    _emit(build_char3_example())


@construct.command("char2")
@click.option(
    "--literal-elementary-symmetric",
    is_flag=True,
    help="Use the elementary-symmetric squaring (fails validation; kept for "
    "comparison).",
)
def construct_char2(literal_elementary_symmetric):
    """The 3|3 characteristic-2 structure with nonzero squaring."""
    if literal_elementary_symmetric:
        g = sa.SuperAlgebra.from_entries(
            Field.prime(2),
            3,
            3,
            bracket=[(0, 2, 1, 1)],
            action=[(0, 2, 1, 1), (2, 0, 1, 1)],
            mode="char2",
            squaring=[(0, 1, 1, 1), (0, 2, 1, 1), (1, 2, 1, 1)],
        )
        _emit(g)
        return
    _emit(build_char2_example())


@construct.command("add-centre")
@click.argument("path")
@click.option("--z", type=int, required=True, help="Number of central odd lines.")
def construct_add_centre(path, z):
    """Append z central odd coordinates to an existing document."""
    g, meta = _load(path)
    if z < 0:
        raise click.UsageError("--z must be nonnegative")
    _emit(add_centre(g, z), meta)


@construct.command("assemble")
@field_option
@click.option("--m", type=int, required=True, help="Highest weight of the module.")
@click.option("--alpha", default=None)
@click.option("--beta", default=None)
@click.option(
    "--p-file",
    default=None,
    help="JSON file holding [[u, v, x, coeff], ...] odd bracket entries "
    "(default: zero bracket).",
)
def construct_assemble(field_text, m, alpha, beta, p_file):
    """sl(2) + V(m) with a supplied odd bracket, validated on assembly."""
    field = parse_field_flag(field_text)
    entries = ()
    if p_file is not None:
        try:
            raw = json.loads(_read_document(p_file))
            entries = [
                (u, v, x, field.parse(c)) for u, v, x, c in raw
            ]
        except (ValueError, TypeError, FieldError) as exc:
            raise SchemaError(f"bad --p-file: {exc}") from None
    _emit(_sl2_module_algebra(field, m, alpha, beta, entries))


@cli.command("pspace")
@click.argument("path")
def cmd_pspace(path):
    """Dimension and basis of all odd brackets compatible with the module,
    in the document's axiom mode.

    Exits 1 when the action is not a representation, 2 on char2 documents.
    """
    g, _ = _load(path)
    space = odd_bracket_space(g)
    fmt = g.field.format
    basis_entries = [[[u, v, y, fmt(c)] for u, v, y, c in space.entries(i)] for i in range(space.dimension)]
    _echo(json.dumps({"dim": space.dimension, "basis": basis_entries}, indent=2))


class _Refusal(Exception):
    """``decompose`` declines to answer: exit ``code``, with the reason as
    a JSON ``error`` on stderr."""

    def __init__(self, code: int, reason: str):
        super().__init__(reason)
        self.code, self.reason = code, reason


@cli.command("decompose")
@click.argument("path")
def cmd_decompose(path):
    """Split the document's odd module into irreducible summands.

    Exits 1 when the action is not a representation, 2 when the even part
    is not 3-dimensional or not split, or complete reducibility is not
    certified, 3 when the triple search is undetermined.
    """
    g, _ = _load(path)
    try:
        triple = find_sl2_triple(g)
    except ValueError as exc:  # an even part that is not 3-dimensional
        raise _Refusal(EXIT_NOT_APPLICABLE, f"not applicable: {exc}") from None
    if isinstance(triple, Undetermined):
        raise _Refusal(EXIT_UNDETERMINED, triple.reason)
    if triple is None:
        raise _Refusal(EXIT_NOT_APPLICABLE, "even part admits no sl(2)-triple (non-split)")
    failures = sa.representation_failures(g.field, *sa._even_system(g))
    if failures:
        raise NotARepresentation(failures)
    rep = RepMatrices.from_algebra(g, triple)
    status = jacobson_test(rep)
    if status == INCONCLUSIVE:
        raise _Refusal(EXIT_NOT_APPLICABLE, "complete reducibility is not certified")
    summands = rep_decompose(rep)
    field = g.field
    doc = {
        "triple": {
            "e": [field.format(x) for x in triple.e.entries],
            "h": [field.format(x) for x in triple.h.entries],
            "f": [field.format(x) for x in triple.f.entries],
        },
        "jacobson": status,
        "summands": [
            {
                "m": spec.m,
                "alpha": str(spec.alpha),
                "beta": str(spec.beta),
                "dim": spec.m + 1,
                "basis": [
                    [field.format(x) for x in vec.entries] for vec in chain
                ],
            }
            for chain, spec in summands
        ],
    }
    _echo(json.dumps(doc, indent=2))


@cli.command("info")
@click.argument("path")
def cmd_info(path):
    """Dimensions, centre, Killing determinant, simplicity flags."""
    g, meta = _load(path)
    even_centre, odd_centre = sa.supercentre(g)
    doc = {
        "field": str(g.field),
        "axiom_mode": g.mode,
        "dim_even": g.dim_even,
        "dim_odd": g.dim_odd,
        "centre_dim_even": len(even_centre),
        "centre_dim_odd": len(odd_centre),
        "odd_bracket_zero": g.odd_bracket_is_zero(),
    }
    if g.dim_even == 3:
        det = sa.killing_form(g).det()
        doc["killing_det"] = str(det)
        doc["even_part_simple"] = bool(det)
        if g.mode == "standard" and doc["even_part_simple"]:
            try:
                doc["simple"] = is_simple_superalgebra(g)
            except ValueError:
                pass
    if meta:
        doc["metadata"] = meta
    _echo(json.dumps(doc, indent=2))


@cli.command("sweep")
@field_option
@click.option("--max-odd-dim", type=int, default=6, show_default=True)
@click.option(
    "--output",
    type=click.Choice(["csv", "json"]),
    default="csv",
    show_default=True,
)
def cmd_sweep(field_text, max_odd_dim, output):
    """Solution dimensions over all irreducible-sum modules up to a bound."""
    field = parse_field_flag(field_text)
    with _flag_errors():
        rows = sweep_irrep_sums(field, max_odd_dim)
    if output == "json":
        _echo(
            json.dumps(
                [
                    {"p": r.p, "composition": list(r.composition), "dim": r.dimension}
                    for r in rows
                ],
                indent=2,
            )
        )
        return
    _echo("p,composition,dim")
    for r in rows:
        _echo(f"{r.p},{'+'.join(map(str, r.composition))},{r.dimension}")


def main(argv=None):
    try:
        cli.main(args=argv, standalone_mode=False)
    except click.UsageError as exc:
        _echo(f"usage error: {exc.format_message()}", err=True)
        sys.exit(EXIT_USAGE)
    except click.ClickException as exc:
        exc.show()
        sys.exit(exc.exit_code)
    except click.exceptions.Abort:
        sys.exit(130)
    except SchemaError as exc:
        _echo(f"schema error: {exc}", err=True)
        sys.exit(EXIT_SCHEMA)
    except NotARepresentation as exc:
        # each pair i < j at which the action fails, as validate names them
        for pair in exc.pairs:
            _echo(str(sa.Violation("representation", pair)), err=True)
        sys.exit(EXIT_VALIDATION)
    except UnsupportedMode as exc:
        _echo(f"not applicable: {exc}", err=True)
        sys.exit(EXIT_NOT_APPLICABLE)
    except AssembleError as exc:
        _echo(f"assembly produced an invalid structure:\n{exc}", err=True)
        sys.exit(EXIT_VALIDATION)
    except _Refusal as exc:
        _echo(json.dumps({"error": exc.reason}), err=True)
        sys.exit(exc.code)
    return 0


if __name__ == "__main__":
    main()
