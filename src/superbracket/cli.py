"""Command-line front end.

Subcommands operate on the canonical JSON documents (see ``schema``) and
compose through pipes: a path argument of "-" reads stdin, and every
``construct`` subcommand writes canonical JSON to stdout, so e.g.

    superbracket construct irrep --m 2 --field fp:5 | superbracket pspace -
    superbracket construct double --field q | superbracket classify -

The command line is parsed by the standard library's ``argparse``, with one
parser built once per process; ``--help`` is its only help flag, and no
option may be abbreviated.

Exit codes: 0 success (classification cases A/B/C), 1 validation failure
(also ``pspace`` and ``decompose`` on an action that is not a
representation, and any command whose reader closes stdout before all is
printed), 2 not applicable (classification, ``pspace`` on a char2
document, ``decompose`` on an even part that is not 3-dimensional), 3
undetermined (``decompose``'s triple search), 64 usage error (argparse's
wording for a malformed command line), 65 schema error, 130 interrupted.
Commands raise their errors, and :func:`main` alone turns each into its
exit code and stderr text; only ``validate``'s violations and
``classify``'s ``not_applicable``, which are results printed on stdout,
exit from their command.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import re
import sys

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
EXIT_INTERRUPTED = 130
EXIT_BROKEN_PIPE = 1


class UsageError(Exception):
    """A command line that names no document or no algebra: exit 64."""


def parse_field_flag(text: str) -> Field:
    if text == "q":
        return Field.rationals()
    if text.startswith("fp:"):
        try:
            return Field.prime(int(text[3:]))
        except (ValueError, FieldError) as exc:
            raise UsageError(f"bad --field {text!r}: {exc}") from None
    raise UsageError(f"--field must be 'q' or 'fp:<prime>', got {text!r}")


def _read_document(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from None


def _load(path: str):
    return parse_algebra(_read_document(path))


def _emit(g, metadata=None):
    sys.stdout.write(serialize_algebra(g, metadata))


def cmd_validate(path):
    """Check every axiom of the document's mode; exit 1 on violations."""
    g, _ = _load(path)
    report = sa.validate(g)
    if report.ok:
        print("valid")
        return
    for violation in report.violations:
        print(violation)
    sys.exit(EXIT_VALIDATION)


def cmd_classify(path):
    """Decide case A/B/C and print the verified certificate."""
    g, _ = _load(path)
    result = run_classify(g)
    doc = {"case": result.case}
    if result.centre_dim is not None:
        doc["centre_dim"] = result.centre_dim
    if result.certificate is not None:
        fmt, cert = g.field.format, result.certificate
        doc["certificate"] = {
            "even": [[fmt(x) for x in row] for row in cert.m_even.data],
            "odd": [[fmt(x) for x in row] for row in cert.m_odd.data],
        }
    if result.reason:
        doc["reason"] = result.reason
    if result.restricted_note:
        doc["restricted"] = result.restricted_note
    print(json.dumps(doc, indent=2))
    if result.case == "not_applicable":
        sys.exit(EXIT_NOT_APPLICABLE)


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
        raise UsageError(str(exc)) from None


def construct_osp12(field):
    """The 3|2 orthosymplectic algebra."""
    with _flag_errors():
        g = build_osp12(field)
    _emit(g)


def construct_osp(field, d0, d1, q_diag):
    """Orthosymplectic algebra of diag(q) + standard symplectic form."""
    entries = [field.one()] * d0
    if q_diag is not None:
        try:
            entries = [field.parse(x) for x in q_diag.split(",")]
        except FieldError as exc:
            raise UsageError(f"bad --q-diag: {exc}") from None
        if len(entries) != d0:
            raise UsageError("--q-diag length must equal --d0")
    with _flag_errors():
        omega = BilinearFormPair.standard(field, 0, d1).omega
        g = build_osp(BilinearFormPair(Matrix.diagonal(field, entries), omega), field)
    _emit(g)


def construct_double(field):
    """The double of sl(2): sl2 + (sl2' + centralizer line)."""
    with _flag_errors():
        g = build_double(sl2_algebra(field), Matrix.identity(field, 3))
    _emit(g)


def construct_irrep(field, m, alpha, beta):
    """sl(2) + V(m, alpha, beta) with zero odd bracket."""
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


def construct_char3():
    """The 3|3 characteristic-3 structure outside the classification."""
    _emit(build_char3_example())


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


def construct_add_centre(path, z):
    """Append z central odd coordinates to an existing document."""
    g, meta = _load(path)
    _emit(add_centre(g, z), meta)


def construct_assemble(field, m, alpha, beta, p_file):
    """sl(2) + V(m) with a supplied odd bracket, validated on assembly."""
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


def cmd_pspace(path):
    """Dimension and basis of all odd brackets compatible with the module,
    in the document's axiom mode.

    Exits 1 when the action is not a representation, 2 on char2 documents.
    """
    g, _ = _load(path)
    space = odd_bracket_space(g)
    fmt = g.field.format
    basis_entries = [[[u, v, y, fmt(c)] for u, v, y, c in space.entries(i)] for i in range(space.dimension)]
    print(json.dumps({"dim": space.dimension, "basis": basis_entries}, indent=2))


class _Refusal(Exception):
    """``decompose`` declines to answer: exit ``code``, with the reason as
    a JSON ``error`` on stderr."""

    def __init__(self, code: int, reason: str):
        super().__init__(reason)
        self.code, self.reason = code, reason


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
    print(json.dumps(doc, indent=2))


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
    print(json.dumps(doc, indent=2))


def cmd_sweep(field, max_odd_dim, output):
    """Solution dimensions over all irreducible-sum modules up to a bound."""
    with _flag_errors():
        rows = sweep_irrep_sums(field, max_odd_dim)
    if output == "json":
        doc = [{"p": r.p, "composition": list(r.composition), "dim": r.dimension} for r in rows]
        print(json.dumps(doc, indent=2))
        return
    print("p,composition,dim")
    for r in rows:
        print(f"{r.p},{'+'.join(map(str, r.composition))},{r.dimension}")


# --- the parser --------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """An argparse parser, and each of its subparsers, whose errors are
    raised as :class:`UsageError` for :func:`main` to report; ``--help`` is
    its only help flag (``-h`` is refused as unrecognized), and no option may
    be abbreviated.  A token that starts with "-" and a digit, such as
    ``-1,1`` or ``-1/2``, is a value, since no option starts with a digit."""

    def __init__(self, **kwargs):
        super().__init__(add_help=False, allow_abbrev=False, **kwargs)
        self._negative_number_matcher = re.compile(r"-\d")
        self.add_argument("--help", action="help", help="Show this message and exit.")
        # refused as soon as it is read, before any required argument is missed
        self.add_argument("-h", nargs=0, action=_Unrecognized, dest=argparse.SUPPRESS, help=argparse.SUPPRESS)

    def error(self, message):
        raise UsageError(message)


class _Unrecognized(argparse.Action):
    """A flag that is reported as unrecognized."""

    def __call__(self, parser, namespace, values, option_string=None):
        parser.error(f"unrecognized arguments: {option_string}")


class _NonNegative(argparse.Action):
    """An integer flag that must be >= 0, refused while parsing, so before
    any document is read."""

    def __call__(self, parser, namespace, value, option_string=None):
        if value < 0:
            parser.error(f"Invalid value for '{option_string}': {value} is not in the range x>=0.")
        setattr(namespace, self.dest, value)


def _command(group, name, func, field=False):
    """The subcommand ``name`` of ``group``, which calls ``func`` with its
    parsed flags; ``field`` gives it ``--field``."""
    doc = func.__doc__
    sub = group.add_parser(name, help=doc.split("\n\n")[0], description=doc)
    sub.set_defaults(command=func)
    if field:
        sub.add_argument(
            "--field", type=parse_field_flag, default="q",
            help="Coefficient field: q or fp:<prime> (default: q).",
        )
    return sub


_PATH_HELP = "A canonical JSON document; - reads stdin."


@functools.cache
def _parser() -> _Parser:
    """The whole command line, built once per process."""
    top = _Parser(
        prog="superbracket",
        description="Exact construction, validation and classification of Lie "
        "superalgebras with three-dimensional simple even part.",
    )
    commands = top.add_subparsers(metavar="COMMAND", required=True)
    for name, func in (
        ("validate", cmd_validate),
        ("classify", cmd_classify),
        ("pspace", cmd_pspace),
        ("decompose", cmd_decompose),
        ("info", cmd_info),
    ):
        _command(commands, name, func).add_argument("path", help=_PATH_HELP)

    construct = commands.add_parser("construct", help="Builders; each prints canonical JSON.")
    builders = construct.add_subparsers(metavar="BUILDER", required=True)
    _command(builders, "osp12", construct_osp12, field=True)
    osp = _command(builders, "osp", construct_osp, field=True)
    osp.add_argument("--d0", type=int, action=_NonNegative, required=True, help="Quadratic dimension.")
    osp.add_argument("--d1", type=int, action=_NonNegative, required=True, help="Symplectic dimension (even).")
    osp.add_argument("--q-diag", help="Comma-separated diagonal of the quadratic form (default all ones).")
    _command(builders, "double", construct_double, field=True)
    irrep = _command(builders, "irrep", construct_irrep, field=True)
    irrep.add_argument("--m", type=int, required=True, help="Highest weight (dim = m+1).")
    irrep.add_argument("--alpha", help="Override alpha (dim = p only).")
    irrep.add_argument("--beta", help="Override beta (dim = p only).")
    _command(builders, "char3", construct_char3)
    _command(builders, "char2", construct_char2).add_argument(
        "--literal-elementary-symmetric", action="store_true",
        help="Use the elementary-symmetric squaring (fails validation; kept for comparison).",
    )
    centre = _command(builders, "add-centre", construct_add_centre)
    centre.add_argument("path", help=_PATH_HELP)
    centre.add_argument("--z", type=int, action=_NonNegative, required=True, help="Number of central odd lines.")
    assembled = _command(builders, "assemble", construct_assemble, field=True)
    assembled.add_argument("--m", type=int, required=True, help="Highest weight of the module.")
    assembled.add_argument("--alpha")
    assembled.add_argument("--beta")
    assembled.add_argument(
        "--p-file",
        help="JSON file holding [[u, v, x, coeff], ...] odd bracket entries (default: zero bracket).",
    )

    sweep = _command(commands, "sweep", cmd_sweep, field=True)
    sweep.add_argument("--max-odd-dim", type=int, default=6, help="(default: 6)")
    sweep.add_argument("--output", choices=("csv", "json"), default="csv", help="(default: csv)")
    return top


def main(argv=None):
    try:
        try:
            args = vars(_parser().parse_args(argv))
            args.pop("command")(**args)
        finally:
            sys.stdout.flush()  # a reader that left early fails here, not at exit
    except BrokenPipeError:
        # nothing more can be printed: send what is still buffered to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(EXIT_BROKEN_PIPE)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        sys.exit(EXIT_USAGE)
    except KeyboardInterrupt:
        sys.exit(EXIT_INTERRUPTED)
    except SchemaError as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        sys.exit(EXIT_SCHEMA)
    except NotARepresentation as exc:
        # each pair i < j at which the action fails, as validate names them
        for pair in exc.pairs:
            print(sa.Violation("representation", pair), file=sys.stderr)
        sys.exit(EXIT_VALIDATION)
    except UnsupportedMode as exc:
        print(f"not applicable: {exc}", file=sys.stderr)
        sys.exit(EXIT_NOT_APPLICABLE)
    except AssembleError as exc:
        print(f"assembly produced an invalid structure:\n{exc}", file=sys.stderr)
        sys.exit(EXIT_VALIDATION)
    except _Refusal as exc:
        print(json.dumps({"error": exc.reason}), file=sys.stderr)
        sys.exit(exc.code)
    return 0


if __name__ == "__main__":
    main()
