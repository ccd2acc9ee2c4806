"""Repository hygiene: no file that .gitignore excludes is tracked, so
generated artifacts cannot go stale in version control, the package
needs nothing outside the standard library, computes without floating
point, imports no name it never uses, and references every module-level
name."""

import ast
import re
import shutil
import subprocess
import sys
from collections import Counter
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


def test_package_needs_only_the_standard_library():
    # the installed script runs where no third-party package is installed
    bad = []
    for path in sorted((ROOT / "src" / "superbracket").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            bad += [
                f"{path.name}:{node.lineno}: {name}"
                for name in names
                if name.split(".")[0] not in sys.stdlib_module_names
            ]
    assert not bad, "imports outside the standard library:\n" + "\n".join(bad)
    project = (ROOT / "pyproject.toml").read_text().split("[project]", 1)[1].split("\n[", 1)[0]
    declared = re.search(r"^dependencies\s*=\s*\[([^\]]*)\]", project, re.M)
    assert declared is None or declared.group(1).strip() == "", declared.group(0)


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


def _exported(tree) -> set:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return {e.value for e in node.value.elts}
    return set()


def test_package_imports_no_unused_name():
    bad = []
    for path in sorted((ROOT / "src" / "superbracket").glob("*.py")):
        if path.name == "__init__.py":
            continue  # re-exports the package's public names
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for a in node.names:
                    imported[(a.asname or a.name).split(".")[0]] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused = set(imported) - used - _exported(tree)
        bad += [f"{path.name}:{imported[name]}: {name}" for name in sorted(unused)]
    assert not bad, "imported but never used:\n" + "\n".join(bad)


def _referenced(top) -> set:
    """The names that a node loads, as names, attributes or imports."""
    out = set()
    for node in ast.walk(top):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name)
    return out


def test_package_defines_no_unreferenced_name():
    # every module-level function, class or constant is referenced somewhere
    # in the package outside its own definition; dunders, decorated
    # definitions and the names in a module's __all__ are exempt
    trees = {
        path.name: ast.parse(path.read_text(), filename=str(path))
        for path in sorted((ROOT / "src" / "superbracket").glob("*.py"))
    }
    refs = {node: _referenced(node) for tree in trees.values() for node in tree.body}
    # the number of top-level statements of the package that load each name
    counts = Counter(name for names in refs.values() for name in names)
    bad = []
    for module, tree in trees.items():
        exported = _exported(tree)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined = [] if node.decorator_list else [node.name]
            elif isinstance(node, ast.Assign):
                defined = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                defined = [node.target.id]
            else:
                continue
            bad += [
                f"{module}:{node.lineno}: {name}"
                for name in defined
                if not (name.startswith("__") and name.endswith("__"))
                and name not in exported
                and counts[name] == (name in refs[node])
            ]
    assert not bad, "defined but never referenced:\n" + "\n".join(bad)
