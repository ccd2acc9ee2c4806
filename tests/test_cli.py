"""End-to-end CLI tests: real subprocesses, pinned exit codes, and the
streams of in-process ``cli.main`` calls."""

import ast
import contextlib
import gc
import hashlib
import io
import json
import os
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def run_cli(*args, stdin=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "superbracket.cli", *args],
        input=stdin,
        capture_output=True,
        text=True,
        env=env,
        cwd=ROOT,
    )


def test_construct_validate_pipe():
    built = run_cli("construct", "osp12", "--field", "q")
    assert built.returncode == 0
    checked = run_cli("validate", "-", stdin=built.stdout)
    assert checked.returncode == 0
    assert checked.stdout.strip() == "valid"


def test_round_trip_is_byte_identical():
    for args in (
        ["construct", "osp12", "--field", "fp:5"],
        ["construct", "double", "--field", "q"],
        ["construct", "char3"],
        ["construct", "char2"],
        ["construct", "irrep", "--m", "3", "--field", "fp:7"],
        ["construct", "osp", "--d0", "1", "--d1", "2", "--field", "q"],
    ):
        first = run_cli(*args)
        assert first.returncode == 0, first.stderr
        # parse and re-serialize through the info-free echo path: add-centre 0
        again = run_cli("construct", "add-centre", "-", "--z", "0", stdin=first.stdout)
        assert again.returncode == 0, again.stderr
        assert again.stdout == first.stdout


def test_irrep_pspace_pipe():
    built = run_cli("construct", "irrep", "--m", "2", "--field", "fp:5")
    out = run_cli("pspace", "-", stdin=built.stdout)
    assert out.returncode == 0
    assert json.loads(out.stdout)["dim"] == 0


def test_standard_module_pspace_dim_one():
    built = run_cli("construct", "irrep", "--m", "1", "--field", "q")
    out = run_cli("pspace", "-", stdin=built.stdout)
    doc = json.loads(out.stdout)
    assert doc["dim"] == 1
    assert len(doc["basis"]) == 1


def test_pspace_on_a_non_representation_exits_1():
    doc = json.loads(run_cli("construct", "osp12", "--field", "q").stdout)
    assert doc["action"][0][3] == "1/1"
    doc["action"][0][3] = "2/1"
    text = json.dumps(doc)
    checked = run_cli("validate", "-", stdin=text)
    assert checked.returncode == 1
    assert "representation violated at (0, 2)" in checked.stdout.splitlines()
    res = run_cli("pspace", "-", stdin=text)
    assert res.returncode == 1
    assert res.stdout == ""
    assert "Traceback" not in res.stderr
    lines = res.stderr.splitlines()
    assert lines == [
        line for line in checked.stdout.splitlines() if line.startswith("representation")
    ]


def test_pspace_without_an_even_part_prints_the_zero_space():
    doc = {
        "field": {"kind": "prime_field", "p": 7},
        "dim_even": 0,
        "dim_odd": 3,
        "axiom_mode": "standard",
        "bracket_even": [],
        "action": [],
        "p_map": [],
    }
    res = run_cli("pspace", "-", stdin=json.dumps(doc))
    assert res.returncode == 0, res.stderr
    assert res.stdout == '{\n  "dim": 0,\n  "basis": []\n}\n'


def test_pspace_on_char2_is_not_applicable():
    built = run_cli("construct", "char2")
    res = run_cli("pspace", "-", stdin=built.stdout)
    assert res.returncode == 2
    assert res.stdout == ""
    assert len(res.stderr.splitlines()) == 1
    assert "char2" in res.stderr


def test_classify_cases_and_exit_codes():
    double = run_cli("construct", "double", "--field", "q")
    res = run_cli("classify", "-", stdin=double.stdout)
    assert res.returncode == 0
    assert json.loads(res.stdout)["case"] == "B"

    osp = run_cli("construct", "osp12", "--field", "fp:5")
    res = run_cli("classify", "-", stdin=osp.stdout)
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert doc["case"] == "C"
    assert doc["centre_dim"] == 0
    assert "even" in doc["certificate"] and "odd" in doc["certificate"]

    char3 = run_cli("construct", "char3")
    res = run_cli("classify", "-", stdin=char3.stdout)
    assert res.returncode == 2
    assert json.loads(res.stdout)["case"] == "not_applicable"


def test_validate_failure_exit_code():
    bad = run_cli("construct", "char2", "--literal-elementary-symmetric")
    assert bad.returncode == 0
    res = run_cli("validate", "-", stdin=bad.stdout)
    assert res.returncode == 1
    assert "char2_square" in res.stdout


def test_schema_error_exit_code():
    res = run_cli("validate", "-", stdin="{\"field\": {\"kind\": \"rationals\"}}")
    assert res.returncode == 65
    res = run_cli("validate", "-", stdin="not json")
    assert res.returncode == 65
    # unknown top-level key
    osp = run_cli("construct", "osp12", "--field", "q").stdout
    doc = json.loads(osp)
    doc["surprise"] = 1
    res = run_cli("validate", "-", stdin=json.dumps(doc))
    assert res.returncode == 65
    assert "unknown top-level keys" in res.stderr


def test_oversized_coefficient_is_a_schema_error():
    doc = json.loads(run_cli("construct", "osp12", "--field", "q").stdout)
    doc["p_map"][0][3] = "1/" + "7" * 5000
    res = run_cli("validate", "-", stdin=json.dumps(doc))
    assert res.returncode == 65
    assert res.stdout == ""
    assert "exceeds the bound of 1000 digits" in res.stderr
    assert "Traceback" not in res.stderr and "4300" not in res.stderr


def test_deeply_nested_json_is_a_schema_error():
    res = run_cli("validate", "-", stdin="[" * 100_000 + "]" * 100_000)
    assert res.returncode == 65
    assert res.stdout == ""
    assert res.stderr.strip() == "schema error: not valid JSON: nested too deeply"


@pytest.mark.parametrize(
    "command, doc, message",
    [
        ("info", [], "top level must be an object"),
        ("pspace", {"field": {"kind": "rationals"}, "dim_odd": 1}, "missing key 'dim_even'"),
    ],
    ids=["top-level", "missing-key"],
)
def test_schema_refusals_reach_stderr_through_main(command, doc, message):
    res = run_cli(command, "-", stdin=json.dumps(doc))
    assert (res.returncode, res.stdout, res.stderr) == (65, "", f"schema error: {message}\n")


def test_usage_error_exit_code():
    res = run_cli("classify", "-", "--field", "zp:5", stdin="{}")
    assert res.returncode == 64
    res = run_cli("construct", "osp12", "--field", "fp:6")
    assert res.returncode == 64
    res = run_cli("sweep", "--field", "fp:11")
    assert res.returncode == 64


def test_bad_construct_flags_are_usage_errors():
    cases = {
        ("osp", "--d0", "1", "--d1", "3"): "the symplectic space must be even-dimensional",
        ("osp", "--d0", "1", "--d1", "2", "--q-diag", "0"): "q is degenerate",
        ("osp", "--d0", "1", "--d1", "2", "--field", "fp:2"):
            "build_osp is not defined in characteristic 2",
        ("osp", "--d0", "-1", "--d1", "2"): "Invalid value for '--d0': -1 is not in the range x>=0.",
        ("osp", "--d0", "1", "--d1", "-2"): "Invalid value for '--d1': -2 is not in the range x>=0.",
        ("double", "--field", "fp:2"): "build_double requires characteristic not 2 or 3",
        ("double", "--field", "fp:3"): "build_double requires characteristic not 2 or 3",
        ("osp12", "--field", "fp:2"): "the moment-map model is not defined in characteristic 2",
        ("irrep", "--m", "-1"): "m must be nonnegative",
    }
    for args, message in cases.items():
        res = run_cli("construct", *args)
        assert (res.returncode, res.stdout) == (64, ""), args
        assert res.stderr == f"usage error: {message}\n", args


def call_main(argv):
    """(exit code, stdout, stderr) of one in-process ``cli.main`` call."""
    from superbracket import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["construct"],
        ["frobnicate", "-"],
        ["validate", "-", "--mode", "standard"],
        ["-h"],
        ["validate", "-h"],
        ["sweep", "--max", "4"],
        ["sweep", "--max-odd-dim", "x"],
        ["construct", "irrep", "--m", "x"],
        ["construct", "add-centre", "-", "--z", "x"],
        ["sweep", "--output", "xml"],
        ["validate"],
        ["construct", "osp", "--d0", "1"],
        ["validate", "a.json", "b.json"],
    ],
    ids=[
        "no-command", "no-builder", "unknown-command", "unknown-option", "-h",
        "command-h", "abbreviated", "max-odd-dim-not-int", "m-not-int",
        "z-not-int", "not-a-choice", "no-path", "missing-d1", "extra-path",
    ],
)
def test_malformed_command_lines_are_usage_errors(argv):
    # refused while parsing: no document is read, nothing is printed
    code, out, err = call_main(argv)
    assert (code, out) == (64, "")
    assert err.startswith("usage error: ") and err.endswith("\n") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [["-h"], ["validate", "-h"], ["validate", "-", "-h"], ["-h", "validate"], ["construct", "osp", "-h"]],
    ids=["top", "command", "command-with-path", "before-command", "builder"],
)
def test_h_is_reported_as_unrecognized_before_missing_arguments(argv):
    # only --help gives help; -h is refused as soon as it is read, so the
    # message names it, not a required argument that is missing after it
    assert call_main(argv) == (64, "", "usage error: unrecognized arguments: -h\n")


def test_negative_z_is_refused_before_the_document_is_read():
    # as --d0 and --d1 are: the malformed document on stdin is never parsed
    res = run_cli("construct", "add-centre", "-", "--z", "-1", stdin="{")
    assert (res.returncode, res.stdout) == (64, "")
    assert res.stderr == "usage error: Invalid value for '--z': -1 is not in the range x>=0.\n"


@pytest.mark.parametrize(
    "argv, code, digest",
    [
        (["osp", "--d0", "2", "--d1", "2", "--q-diag", "-1,1"], 0,
         "6e944a6925ea25f4d4812c44b60213484f0372073390b6f9b67f73521ee4805f"),
        (["osp", "--d0", "2", "--d1", "2", "--q-diag", "-1,-1"], 0,
         "520d2b1771dfc5d2a4a64bbb784ef8b49d581b918b920c043dfa4bde0ca49f2d"),
        (["irrep", "--m", "4", "--alpha", "-1", "--beta", "-2", "--field", "fp:5"], 0,
         "5e16ce9ab5f326dd4c019ea14fec3d0a55fdd528883dc03bbaf211028d3b814e"),
        (["assemble", "--m", "4", "--alpha", "-2", "--beta", "-1", "--field", "fp:5"], 0,
         "15c47c5dca8936529de55deb84f5b611617bd831a01f1326e0ab299e1f2c86b4"),
        (["irrep", "--m", "4", "--alpha", "-1/2"], 64, "characteristic zero forces alpha = m"),
        (["assemble", "--m", "4", "--beta", "-1/2", "--field", "fp:5"], 64,
         "bad scalar '-1/2': fraction syntax invalid over F_5"),
    ],
    ids=["q-diag-minus-first", "q-diag-all-minus", "irrep-alpha-beta", "assemble-alpha-beta",
         "alpha-fraction", "beta-fraction"],
)
def test_a_value_that_starts_with_minus_and_a_digit_is_a_value(argv, code, digest):
    # it reaches the builder, which prints the pinned bytes or refuses the value
    # itself; it is never read as an unknown option
    got, out, err = call_main(["construct", *argv])
    if code == 0:
        assert (got, err, hashlib.sha256(out.encode()).hexdigest()) == (0, "", digest)
    else:
        assert (got, out, err) == (code, "", f"usage error: {digest}\n")


@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("command, read", [("classify", 10), ("sweep", 0)])
def test_a_reader_that_leaves_early_ends_in_exit_1_without_a_traceback(buffered, command, read, tmp_path):
    # classify prints a 600 kB certificate, more than a pipe holds, and its
    # reader leaves after 10 bytes; sweep's reader leaves before anything is
    # printed, so a buffered sweep meets the closed pipe only at its flush
    from superbracket.constructions import add_centre, build_osp12
    from superbracket.fields import Field
    from superbracket.schema import serialize_algebra

    doc = tmp_path / "centred.json"
    doc.write_text(serialize_algebra(add_centre(build_osp12(Field.rationals()), 200)))
    argv = {"classify": [str(doc)], "sweep": ["--field", "fp:7", "--max-odd-dim", "8"]}[command]
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen(
        [sys.executable, "-m", "superbracket.cli", command, *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, cwd=ROOT,
    )
    assert len(proc.stdout.read(read)) == read
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), err) == (1, b"")


COMMANDS = ["validate", "classify", "pspace", "decompose", "info", "sweep", "construct"]
BUILDERS = ["osp12", "osp", "double", "irrep", "char3", "char2", "add-centre", "assemble"]


@pytest.mark.parametrize(
    "argv",
    [["--help"]] + [[c, "--help"] for c in COMMANDS] + [["construct", b, "--help"] for b in BUILDERS],
    ids=lambda argv: " ".join(argv[:-1]) or "top",
)
def test_help_goes_to_stdout_and_exits_0(argv):
    code, out, err = call_main(argv)
    assert (code, err) == (0, "")
    assert out.startswith("usage: superbracket " + " ".join(argv[:-1]))


def test_interrupt_inside_a_command_exits_130(monkeypatch):
    from superbracket import cli

    def interrupted(*args):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "sweep_irrep_sums", interrupted)
    assert call_main(["sweep", "--field", "fp:5"])[0] == 130


def test_decompose_pipe():
    built = run_cli("construct", "irrep", "--m", "2", "--field", "q")
    out = run_cli("decompose", "-", stdin=built.stdout)
    assert out.returncode == 0
    doc = json.loads(out.stdout)
    assert [s["dim"] for s in doc["summands"]] == [3]
    assert doc["jacobson"] == "char_zero"


def test_decompose_undetermined_exit_code():
    # non-split even part over Q: the cross-product algebra
    doc = {
        "field": {"kind": "rationals"},
        "dim_even": 3,
        "dim_odd": 0,
        "axiom_mode": "standard",
        "bracket_even": [
            [0, 1, 2, "1/1"],
            [0, 2, 1, "-1/1"],
            [1, 2, 0, "1/1"],
        ],
        "action": [],
        "p_map": [],
    }
    res = run_cli("decompose", "-", stdin=json.dumps(doc))
    assert res.returncode == 3


def _sl2_document(field, dim_odd, action):
    """sl(2) acting on dim_odd odd coordinates by the action entries given,
    with zero odd bracket: a canonical document over Q or F_7."""
    fmt = (lambda c: f"{c}/1") if field == "q" else str
    bracket = [[0, 1, 0, -2], [0, 2, 1, 1], [1, 2, 2, -2]] if field == "q" else [[0, 1, 0, 5], [0, 2, 1, 1], [1, 2, 2, 5]]
    return json.dumps({
        "field": {"kind": "rationals"} if field == "q" else {"kind": "prime_field", "p": 7},
        "dim_even": 3,
        "dim_odd": dim_odd,
        "axiom_mode": "standard",
        "bracket_even": [[i, j, k, fmt(c)] for i, j, k, c in bracket],
        "action": [[x, v, w, fmt(c)] for x, v, w, c in action],
        "p_map": [],
    })


@pytest.mark.parametrize(
    "make",
    [
        lambda: run_cli("construct", "osp", "--d0", "2", "--d1", "2", "--field", "fp:7").stdout,
        lambda: json.dumps({
            "field": {"kind": "rationals"}, "dim_even": 0, "dim_odd": 3, "axiom_mode": "standard",
            "bracket_even": [], "action": [], "p_map": [],
        }),
    ],
    ids=["osp-4|2", "empty-0|3"],
)
def test_decompose_on_an_even_part_that_is_not_3_dimensional_is_not_applicable(make):
    res = run_cli("decompose", "-", stdin=make())
    assert (res.returncode, res.stdout) == (2, "")
    assert "Traceback" not in res.stderr
    assert json.loads(res.stderr)["error"].startswith("not applicable")


@pytest.mark.parametrize(
    "field, action",
    [("q", [(1, 0, 0, 5)]), ("q", [(0, 1, 0, 1)]), ("fp:7", [(1, 0, 0, 3), (1, 1, 1, 4)])],
    ids=["Q-H", "Q-E", "F_7-H"],
)
def test_decompose_on_a_non_representation_exits_1(field, action):
    # the pairs that validate names, on stderr as pspace prints them, and no
    # traceback from a decomposition of a module that is none
    text = _sl2_document(field, 2, action)
    checked = run_cli("validate", "-", stdin=text)
    expected = [line for line in checked.stdout.splitlines() if line.startswith("representation")]
    assert checked.returncode == 1 and expected
    for command in ("decompose", "pspace"):
        res = run_cli(command, "-", stdin=text)
        assert (res.returncode, res.stdout) == (1, ""), command
        assert res.stderr.splitlines() == expected, command


def test_pspace_has_no_mode_flag():
    # the solver runs in the document's own mode; a flag could only repeat
    # it or drop the cubic of a char-3 document
    built = run_cli("construct", "char3")
    res = run_cli("pspace", "-", "--mode", "standard", stdin=built.stdout)
    assert (res.returncode, res.stdout) == (64, "")
    assert "--mode" in res.stderr


def test_decompose_has_no_triple_budget_flag():
    built = run_cli("construct", "irrep", "--m", "2", "--field", "q")
    res = run_cli("decompose", "-", "--triple-budget", "5", stdin=built.stdout)
    assert (res.returncode, res.stdout) == (64, "")
    assert "--triple-budget" in res.stderr


def test_irrep_over_f3_takes_the_char3_mode_of_sl2():
    built = run_cli("construct", "irrep", "--m", "1", "--field", "fp:3")
    assert built.returncode == 0
    assert json.loads(built.stdout)["axiom_mode"] == "char3"
    valid = run_cli("validate", "-", stdin=built.stdout)
    assert (valid.returncode, valid.stdout) == (0, "valid\n")
    space = run_cli("pspace", "-", stdin=built.stdout)
    assert space.returncode == 0
    assert json.loads(space.stdout)["dim"] == 1


def test_irrep_at_dimension_p_takes_any_alpha():
    built = run_cli("construct", "irrep", "--m", "4", "--field", "fp:5", "--alpha", "2")
    assert built.returncode == 0, built.stderr
    checked = run_cli("validate", "-", stdin=built.stdout)
    assert (checked.returncode, checked.stdout) == (0, "valid\n")


def test_add_centre_and_info():
    osp = run_cli("construct", "osp12", "--field", "q").stdout
    extended = run_cli("construct", "add-centre", "-", "--z", "2", stdin=osp)
    info = run_cli("info", "-", stdin=extended.stdout)
    doc = json.loads(info.stdout)
    assert doc["dim_odd"] == 4
    assert doc["centre_dim_odd"] == 2
    assert doc["even_part_simple"] is True
    assert doc["killing_det"] != "0/1"


def test_assemble_with_p_file(tmp_path):
    # the moment-map bracket entries for the standard module
    p_entries = [[0, 0, 0, "2/1"], [0, 1, 1, "-1/1"], [1, 1, 2, "-2/1"]]
    p_file = tmp_path / "p.json"
    p_file.write_text(json.dumps(p_entries))
    res = run_cli(
        "construct", "assemble", "--m", "1", "--field", "q", "--p-file", str(p_file)
    )
    assert res.returncode == 0
    out = run_cli("classify", "-", stdin=res.stdout)
    assert json.loads(out.stdout)["case"] == "C"


def test_assemble_invalid_bracket_fails_validation():
    import tempfile

    with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as fh:
        json.dump([[0, 0, 0, "1/1"]], fh)
        name = fh.name
    res = run_cli("construct", "assemble", "--m", "1", "--field", "q", "--p-file", name)
    os.unlink(name)
    assert res.returncode == 1


@pytest.mark.parametrize(
    "entry",
    [[1, 0, 0, "1/1"], [0, 5, 0, "1/1"], [0.0, 0, 0, "1"], [0, True, 1, "-1"]],
    ids=["below-diagonal", "out-of-range", "float", "bool"],
)
def test_assemble_p_file_entry_outside_u_le_v_is_a_usage_error(entry, tmp_path):
    # the odd bracket is read as entries with integer u <= v < d1: one below
    # the diagonal is refused, not dropped, and one out of range or with a
    # float or bool index is no traceback and no document
    p_file = tmp_path / "p.json"
    p_file.write_text(json.dumps([entry]))
    res = run_cli("construct", "assemble", "--m", "1", "--field", "q", "--p-file", str(p_file))
    assert (res.returncode, res.stdout) == (64, "")
    assert "(need u<=v)" in res.stderr


def test_sweep_csv():
    res = run_cli("sweep", "--field", "fp:5", "--max-odd-dim", "3")
    assert res.returncode == 0
    lines = res.stdout.strip().splitlines()
    assert lines[0] == "p,composition,dim"
    assert "5,2,1" in lines
    assert "5,3,0" in lines


@pytest.mark.parametrize("dim", ["0", "-3"])
def test_sweep_below_odd_dimension_one_is_a_usage_error(dim):
    res = run_cli("sweep", "--field", "fp:5", "--max-odd-dim", dim)
    assert res.returncode == 64
    assert res.stdout == ""
    assert "odd dimension >= 1" in res.stderr


def test_sweep_json():
    res = run_cli("sweep", "--field", "fp:5", "--max-odd-dim", "2", "--output", "json")
    rows = json.loads(res.stdout)
    assert {"p": 5, "composition": [2], "dim": 1} in rows


def test_classify_preserves_metadata_free_round_trip():
    osp = run_cli("construct", "osp12", "--field", "q").stdout
    doc = json.loads(osp)
    doc["metadata"] = {"name": "osp12", "source": "builder"}
    redone = run_cli("construct", "add-centre", "-", "--z", "0", stdin=json.dumps(doc))
    assert json.loads(redone.stdout)["metadata"] == doc["metadata"]


def test_in_process_calls_release_captured_streams(tmp_path):
    # every write, --help included, goes to the stream current at the call,
    # and no reference to it is kept: a front end that cached its output
    # stream per captured StringIO would keep each one alive
    from superbracket import cli

    bad = tmp_path / "bad.json"
    bad.write_text("{")
    refs = []
    for argv in (
        ["sweep", "--field", "fp:5", "--max-odd-dim", "2"],
        ["validate", str(bad)],
        ["sweep", "--field", "fp:4"],
        ["--help"],
        ["sweep", "--help"],
    ):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                cli.main(argv)
            except SystemExit:
                pass
        assert out.getvalue() or err.getvalue()
        refs += [weakref.ref(out), weakref.ref(err)]
        del out, err
    gc.collect()
    assert [ref() for ref in refs] == [None] * len(refs)


def counting_instances(monkeypatch):
    """Count the instances validate's relation loop evaluates, by wrapping
    the generator."""
    from superbracket import superalgebra as sa

    counts = []
    real = sa.compatibility_equations

    def counted(*args):
        for instance in real(*args):
            counts.append(instance[0])
            yield instance

    monkeypatch.setattr(sa, "compatibility_equations", counted)
    return counts


def test_empty_3_300_document_validates_without_evaluating_an_instance(monkeypatch, tmp_path):
    # sl(2) with 300 odd dimensions and no odd entries: no instance can
    # fail, so the relation loop evaluates none
    from superbracket import cli
    from superbracket.constructions import sl2_algebra
    from superbracket.fields import QQ
    from superbracket.schema import serialize_algebra
    from superbracket.superalgebra import SuperAlgebra

    sl2 = sl2_algebra(QQ).bracket
    bracket = [(i, j, k, c) for i in range(3) for j in range(i + 1, 3) for k, c in enumerate(sl2[i][j]) if c]
    path = tmp_path / "empty.json"
    path.write_text(serialize_algebra(SuperAlgebra.from_entries(QQ, 3, 300, bracket)))
    res = run_cli("validate", str(path))
    assert (res.returncode, res.stdout, res.stderr) == (0, "valid\n", "")
    counts = counting_instances(monkeypatch)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["validate", str(path)]) == 0
    assert out.getvalue() == "valid\n" and counts == []


def test_central_odd_dimensions_add_no_instances(monkeypatch):
    # osp(1|2) + z: the central f_w are killed by the action and pair with
    # nothing, so validate evaluates the same 13 instances at z = 298 as at
    # z = 0, not the O(d1^3) of the full system
    from superbracket.constructions import add_centre, build_osp12
    from superbracket.fields import QQ
    from superbracket.superalgebra import validate

    docs = [build_osp12(QQ), add_centre(build_osp12(QQ), 298)]
    counts = counting_instances(monkeypatch)
    seen = []
    for g in docs:
        counts.clear()
        assert validate(g).ok
        seen.append(sorted(counts))
    assert seen[0] == seen[1] == ["relation_1"] * 4 + ["relation_2"] * 9


def test_abelian_3_100_pspace_prints_one_entry_per_basis_tensor(tmp_path):
    # zero bracket and zero action: no relation has a term, so all 15,150
    # unknowns are free and the space is spanned by the unit tensors.  The
    # kernel vectors stay sparse from the eliminator to the printed
    # entries; written out dense they would be 15,150 vectors of 15,150
    # entries each
    from superbracket.fields import QQ
    from superbracket.schema import serialize_algebra
    from superbracket.superalgebra import SuperAlgebra

    path = tmp_path / "abelian.json"
    path.write_text(serialize_algebra(SuperAlgebra.from_entries(QQ, 3, 100)))
    res = run_cli("pspace", str(path))
    assert res.returncode == 0, res.stderr
    doc = json.loads(res.stdout)
    assert doc["dim"] == len(doc["basis"]) == 3 * 100 * 101 // 2
    assert all(len(entries) == 1 for entries in doc["basis"])
    # the unit tensors in the (u <= v, y) order of the entries
    units = [[u, v, y, "1/1"] for u in range(100) for v in range(u, 100) for y in range(3)]
    assert [entries[0] for entries in doc["basis"]] == units


def test_info_computes_the_supercentre_once(monkeypatch, tmp_path):
    # info reports the centre and then asks the classifier whether the
    # algebra is simple, which needs the centre again: it is computed once
    # per algebra
    from superbracket import cli
    from superbracket import superalgebra as sa
    from superbracket.constructions import add_centre, build_osp12
    from superbracket.fields import QQ
    from superbracket.schema import serialize_algebra

    path = tmp_path / "osp_z2.json"
    path.write_text(serialize_algebra(add_centre(build_osp12(QQ), 2)))
    calls = []
    real = sa._centre_bases

    def counted(g):
        calls.append(g)
        return real(g)

    monkeypatch.setattr(sa, "_centre_bases", counted)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["info", str(path)]) in (0, None)
    doc = json.loads(out.getvalue())
    assert (doc["centre_dim_odd"], doc["simple"]) == (2, False)
    assert len(calls) == 1
    assert out.getvalue() == run_cli("info", str(path)).stdout


def _pspace_documents():
    """(name, canonical document) of every document whose pspace output is
    pinned: sl(2) plus sums of 1-4 irreducibles over Q, F_5 and F_7 in
    their weight basis, a monomial basis and a random dense basis; two
    over F_3 in char3 mode; the char-3 example; abelian 3|6; an empty 0|3
    document; an action that is not a representation and a char2
    document."""
    import random

    from conftest import random_invertible, random_monomial
    from superbracket.constructions import assemble, build_char2_example, build_char3_example, sl2_algebra
    from superbracket.fields import QQ, Field
    from superbracket.linalg import Matrix
    from superbracket.schema import serialize_algebra
    from superbracket.sl2 import IrrepSpec, RepMatrices, build_irrep
    from superbracket.superalgebra import SuperAlgebra

    F3, F5, F7 = Field.prime(3), Field.prime(5), Field.prime(7)
    rng = random.Random(2718)
    docs = []
    for field in (QQ, F5, F7):
        for comp in ((2,), (3, 1), (4, 2, 1), (2, 2, 1, 1)):
            rep = RepMatrices.direct_sum([build_irrep(IrrepSpec.standard_params(field, d - 1), field) for d in comp])
            g = assemble(sl2_algebra(field), rep)
            for basis, change in (("weight", None), ("monomial", random_monomial), ("dense", random_invertible)):
                h = g if change is None else g.conjugated(Matrix.identity(field, 3), change(field, rep.dim, rng))
                docs.append((f"{field} {comp} {basis}", serialize_algebra(h)))
    for comp in ((2, 1), (3,)):
        rep = RepMatrices.direct_sum([build_irrep(IrrepSpec.standard_params(F3, d - 1), F3) for d in comp])
        docs.append((f"F_3 {comp} weight", serialize_algebra(assemble(sl2_algebra(F3), rep))))
    docs.append(("char3 example", serialize_algebra(build_char3_example())))
    docs.append(("abelian 3|6", serialize_algebra(SuperAlgebra.from_entries(QQ, 3, 6))))
    docs.append(("empty 0|3", serialize_algebra(SuperAlgebra.from_entries(F7, 0, 3))))
    sl2 = json.loads(serialize_algebra(sl2_algebra(QQ)))
    docs.append(("not a representation", json.dumps({**sl2, "dim_odd": 2, "action": [[1, 0, 0, "5"]]})))
    docs.append(("char2 example", serialize_algebra(build_char2_example())))
    return docs


# sha256 over the pspace stdout and exit code of every _pspace_documents()
# document, recorded before the solver read its input off the integer form
PSPACE_DIGEST = "51e3ea44134d0da52791b99a2d7e540d117d397d938616f75b1d0468f30ea37c"


def _pinned_outputs(command, documents, tmp_path):
    """(sha256, first lines) over the stdout and exit code of an in-process
    ``command`` run on each (name, document)."""
    import hashlib

    from superbracket import cli

    lines = []
    for name, text in documents:
        path = tmp_path / "doc.json"
        path.write_text(text)
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = cli.main([command, str(path)])
            except SystemExit as exc:
                code = exc.code
        lines.append(f"{name} {code} {out.getvalue()}")
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    return digest, "\n".join(line.split("\n")[0] + " ..." for line in lines)


def test_pspace_outputs_are_pinned(tmp_path):
    digest, heads = _pinned_outputs("pspace", _pspace_documents(), tmp_path)
    assert digest == PSPACE_DIGEST, heads


def _decompose_documents():
    """(name, canonical document) of every document whose decompose output
    is pinned: sl(2) plus sums of irreducibles over Q, F_5 and F_7 in their
    weight basis, a monomial basis and a random dense basis, up to odd
    dimension 12; a module over F_5 and F_7 that fails the Jacobson
    criterion; the empty sl(2) 3|40 document over Q and F_7; osp(1|2) and
    the double of sl(2); and the error paths: the char-2 and char-3
    examples, an action that is not a representation, an even part that is
    not 3-dimensional and the non-split cross-product algebra over Q."""
    import random

    from conftest import random_invertible, random_monomial
    from superbracket.constructions import (
        assemble,
        build_char2_example,
        build_char3_example,
        build_double,
        build_osp12,
        sl2_algebra,
    )
    from superbracket.fields import QQ, Field
    from superbracket.linalg import Matrix
    from superbracket.schema import serialize_algebra
    from superbracket.sl2 import IrrepSpec, RepMatrices, build_irrep
    from superbracket.superalgebra import SuperAlgebra

    F5, F7 = Field.prime(5), Field.prime(7)
    rng = random.Random(3141)
    comps = {
        QQ: ((2,), (3, 1), (4, 2, 1), (2, 2, 1, 1), (5, 4, 3), (3,) + (1,) * 9),
        F5: ((2,), (3, 1), (4, 2, 1), (2, 2, 1, 1), (4, 4, 3, 1), (3, 3, 2, 2, 1, 1)),
        F7: ((2,), (3, 1), (4, 2, 1), (2, 2, 1, 1), (6, 5, 1), (3, 3, 3, 3)),
    }
    docs = []
    for field, field_comps in comps.items():
        for comp in field_comps:
            rep = RepMatrices.direct_sum([build_irrep(IrrepSpec.standard_params(field, d - 1), field) for d in comp])
            g = assemble(sl2_algebra(field), rep)
            for basis, change in (("weight", None), ("monomial", random_monomial), ("dense", random_invertible)):
                h = g if change is None else g.conjugated(Matrix.identity(field, 3), change(field, rep.dim, rng))
                docs.append((f"{field} {comp} {basis}", serialize_algebra(h)))
    for field in (F5, F7):
        p = field.p
        steinberg = build_irrep(IrrepSpec(p - 1, field.scalar(p - 1), field.scalar(1)), field)
        docs.append((f"{field} V({p - 1}) beta 1", serialize_algebra(assemble(sl2_algebra(field), steinberg))))
    docs.append(("empty Q 3|40", _sl2_document("q", 40, [])))
    docs.append(("empty F_7 3|40", _sl2_document("fp:7", 40, [])))
    docs.append(("osp12", serialize_algebra(build_osp12(QQ))))
    docs.append(("double", serialize_algebra(build_double(sl2_algebra(QQ), Matrix.identity(QQ, 3)))))
    docs.append(("char2 example", serialize_algebra(build_char2_example())))
    docs.append(("char3 example", serialize_algebra(build_char3_example())))
    docs.append(("not a representation", _sl2_document("q", 2, [(1, 0, 0, 5)])))
    docs.append(("empty 0|3", serialize_algebra(SuperAlgebra.from_entries(QQ, 0, 3))))
    cross = [(0, 1, 2, 1), (0, 2, 1, -1), (1, 2, 0, 1)]
    docs.append(("cross product Q", serialize_algebra(SuperAlgebra.from_entries(QQ, 3, 2, bracket=cross))))
    return docs


# sha256 over the decompose stdout and exit code of every
# _decompose_documents() document, recorded while decompose found weights by
# one dense eigenspace per candidate
DECOMPOSE_DIGEST = "a5867314e93aba835075b503acf78238424faca01e18154fcc29c5f4d3725019"


def test_decompose_outputs_are_pinned(tmp_path):
    digest, heads = _pinned_outputs("decompose", _decompose_documents(), tmp_path)
    assert digest == DECOMPOSE_DIGEST, heads


def _validate_documents():
    """(name, canonical document) of every document whose validate output
    is pinned: osp(2|2), osp(3|2) and osp(4|2) (even dimension 4, 6 and 9)
    over Q and F_7, as built, with 1 added at a random even-bracket cell
    (also in a random graded basis) and with its first action and
    odd-bracket entry bumped; osp(1|2) plus a 2-dimensional centre in a
    random graded basis over Q, F_5 and F_7, as it is and with its first
    bracket and action entry bumped; the char-3 example, as it is and with
    its bracket bumped; the char-2 example; and a 9|2 algebra whose integer
    form keeps Fractions."""
    import random

    from conftest import bumped, coprime_bracket_algebra, random_graded_change
    from superbracket.constructions import (
        BilinearFormPair,
        add_centre,
        build_char2_example,
        build_char3_example,
        build_osp,
        build_osp12,
    )
    from superbracket.fields import QQ, Field
    from superbracket.schema import serialize_algebra

    F5, F7 = Field.prime(5), Field.prime(7)
    rng = random.Random(1618)
    docs = []
    for field in (QQ, F7):
        for m in (2, 3, 4):
            g = build_osp(BilinearFormPair.standard(field, m, 2), field)
            docs.append((f"{field} osp({m}|2)", serialize_algebra(g)))
            h = g.conjugated(*random_graded_change(g, rng))
            for name, k in (("", g), (" random basis", h)):
                cell = (*sorted(rng.sample(range(g.dim_even), 2)), rng.randrange(g.dim_even))
                doc = serialize_algebra(bumped(k, "bracket", [cell]))
                docs.append((f"{field} osp({m}|2){name} bracket bumped", doc))
            for tensor in ("action", "odd_bracket"):
                docs.append((f"{field} osp({m}|2) {tensor} bumped", serialize_algebra(bumped(g, tensor))))
    for field in (QQ, F5, F7):
        g = add_centre(build_osp12(field), 2)
        h = g.conjugated(*random_graded_change(g, rng))
        docs.append((f"{field} osp(1|2)+z random basis", serialize_algebra(h)))
        for tensor in ("bracket", "action"):
            docs.append((f"{field} osp(1|2)+z {tensor} bumped", serialize_algebra(bumped(h, tensor))))
    docs.append(("char3 example", serialize_algebra(build_char3_example())))
    docs.append(("char3 example bracket bumped", serialize_algebra(bumped(build_char3_example(), "bracket"))))
    docs.append(("char2 example", serialize_algebra(build_char2_example())))
    docs.append(("coprime bracket 9|2", serialize_algebra(coprime_bracket_algebra(9, 2))))
    return docs


# sha256 over the validate stdout and exit code of every
# _validate_documents() document, recorded while validate checked the even
# Jacobi identity by a loop over basis triples
VALIDATE_DIGEST = "f3bae6b8e96099de1ea46160513963dada9bf7fd4a1360cb1d31b0b6b0326547"


def test_validate_outputs_are_pinned(tmp_path):
    digest, heads = _pinned_outputs("validate", _validate_documents(), tmp_path)
    assert digest == VALIDATE_DIGEST, heads


def _classify_documents():
    """(name, canonical document) of every document whose classify output,
    certificate matrices included, is pinned: osp(1|2) and the double of
    sl(2), each plus a centre of dimension 0, 2 and 5, in a random graded
    basis over Q and F_(10^9+7); and osp(1|2) plus a 50-dimensional centre
    over Q in its own basis."""
    import random

    from conftest import random_graded_change
    from superbracket.constructions import add_centre, build_double, build_osp12, sl2_algebra
    from superbracket.fields import QQ, Field
    from superbracket.linalg import Matrix
    from superbracket.schema import serialize_algebra

    rng = random.Random(1414)
    docs = []
    for field in (QQ, Field.prime(10**9 + 7)):
        bases = (("osp(1|2)", build_osp12(field)), ("double", build_double(sl2_algebra(field), Matrix.identity(field, 3))))
        for name, g in bases:
            for z in (0, 2, 5):
                h = add_centre(g, z)
                h = h.conjugated(*random_graded_change(h, rng))
                docs.append((f"{field} {name}+{z} random basis", serialize_algebra(h)))
    docs.append(("Q osp(1|2)+50", serialize_algebra(add_centre(build_osp12(QQ), 50))))
    return docs


# sha256 over the classify stdout and exit code of every
# _classify_documents() document, recorded while Matrix products summed one
# dot product per (row, column)
CLASSIFY_DIGEST = "340a79f40df33c0d118915791f209249787004a3ed88424bab0a008d77e66343"


def test_classify_outputs_are_pinned(tmp_path):
    digest, heads = _pinned_outputs("classify", _classify_documents(), tmp_path)
    assert digest == CLASSIFY_DIGEST, heads


# the library errors that main alone turns into an exit code and stderr text
ERRORS_FOR_MAIN = {"SchemaError", "NotARepresentation", "UnsupportedMode", "AssembleError"}


def test_main_alone_chooses_exit_codes():
    # commands raise, and main turns each error into its exit code; validate
    # and classify exit only to report a result already printed on stdout.
    # A handler may name one of main's errors only to raise it on
    tree = ast.parse((SRC / "superbracket" / "cli.py").read_text())
    exits, handlers = set(), []
    for func in ast.walk(tree):
        if not isinstance(func, ast.FunctionDef):
            continue
        for node in ast.walk(func):
            if isinstance(node, ast.Attribute) and node.attr == "exit" and getattr(node.value, "id", None) == "sys":
                exits.add(func.name)
            elif isinstance(node, ast.Name) and node.id == "SystemExit":
                exits.add(func.name)
            elif isinstance(node, ast.ExceptHandler) and node.type is not None and func.name != "main":
                named = {n.id for n in ast.walk(node.type) if isinstance(n, ast.Name)}
                passed_on = [type(n) for n in node.body] == [ast.Raise] and node.body[0].exc is None
                if named & ERRORS_FOR_MAIN and not passed_on:
                    handlers.append(f"{func.name}:{node.lineno}")
    assert exits == {"main", "cmd_validate", "cmd_classify"}
    assert handlers == []
