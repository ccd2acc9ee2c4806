"""Repository hygiene: no file that .gitignore excludes is tracked, so
generated artifacts cannot go stale in version control, and the package
computes without floating point."""

import ast
import shutil
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _git(*args):
    return subprocess.run(
        ["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=60
    )


def test_no_ignored_file_is_tracked():
    if shutil.which("git") is None:
        pytest.skip("git is not installed")
    top = _git("rev-parse", "--show-toplevel")
    if top.returncode != 0 or Path(top.stdout.strip()).resolve() != ROOT:
        pytest.skip("not a git checkout of this repository")
    listed = _git("ls-files", "-ci", "--exclude-standard")
    assert listed.returncode == 0, listed.stderr
    assert listed.stdout == "", f"tracked but ignored:\n{listed.stdout}"


# the integer functions of math; every other one computes in floating point
EXACT_MATH = {"gcd", "lcm", "isqrt"}


def test_package_uses_no_floating_point():
    bad = []
    for path in sorted((ROOT / "src" / "superbracket").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        aliases = {
            a.asname or a.name
            for node in ast.walk(tree)
            if isinstance(node, ast.Import)
            for a in node.names
            if a.name == "math"
        }
        for node in ast.walk(tree):
            where = f"{path.name}:{getattr(node, 'lineno', '?')}"
            if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
                bad.append(f"{where}: literal {node.value!r}")
            elif isinstance(node, ast.Name) and node.id in ("float", "complex"):
                bad.append(f"{where}: name {node.id}")
            elif isinstance(node, ast.ImportFrom) and node.module == "math":
                bad += [f"{where}: math.{a.name}" for a in node.names if a.name not in EXACT_MATH]
            elif (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in aliases
                and node.attr not in EXACT_MATH
            ):
                bad.append(f"{where}: math.{node.attr}")
    assert not bad, "\n".join(bad)
