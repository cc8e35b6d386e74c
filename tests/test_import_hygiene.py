"""Import hygiene: every name a package module imports is used in it.

No linter runs on this repository, and a deleted function easily leaves
its import behind. Each module of src/sparseattn except __init__.py (whose
imports are the public API) is parsed with ast; an imported name counts as
used when it appears as a name anywhere in the module. An import whose own
line carries `# noqa` is exempt: such a name is kept for code outside the
module that looks it up there.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "sparseattn"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}   # bound name -> line of its alias
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(name for name, line in imported.items()
                  if name not in used and "# noqa" not in lines[line - 1])


def test_modules_found():
    assert {"tensor.py", "train.py", "baseline.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_checker_flags_an_unused_name_and_honours_noqa():
    source = ("from os import path, sep\n"
              "from sys import (\n"
              "    argv,  # noqa: F401\n"
              "    exit,\n"
              ")\n"
              "print(sep)\n")
    assert unused_imports(source) == ["exit", "path"]
