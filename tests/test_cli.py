"""End-to-end CLI tests: real subprocesses, pinned exit codes, and the
streams of in-process ``cli.main`` calls."""

import contextlib
import gc
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
    # click.echo's default stream is cached in a WeakKeyDictionary whose
    # value for a StringIO is the StringIO itself, so a captured stream
    # written through that default, as click's own --help is, would never die
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
