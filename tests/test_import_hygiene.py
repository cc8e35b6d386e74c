"""Import hygiene: every name a package module imports is used in it, and
every module-level name is referenced somewhere in the package.

No linter runs on this repository, and a deleted function easily leaves
its import behind, as a merged one leaves its helper. Each module of
src/sparseattn except __init__.py (whose imports are the public API),
each script in tools/ and each file in tests/ is parsed with ast; an
imported name counts as used when it appears as a name anywhere in the
module. A function, class or constant that a module defines at its top
level, private (one leading underscore) or public, counts as referenced
when some module of the package, __init__.py included, reads it as a
name, an attribute or an import; reads from tests do not count, so a
public name that only tests call fails too. An import or definition
whose own line carries `# noqa` is exempt: such a name is kept for code
elsewhere that looks it up there.

File I/O stays in the modules that own a file format: no module but cli,
data and model calls open(), as a function or as a method. An op's output
has one maker: no code but tensor._record builds a Tensor with a tape
argument, appends to a tape's _ops or branches on `tape is not None`.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "sparseattn"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
TOOLS = sorted((PACKAGE.parent.parent / "tools").glob("*.py"))
TESTS = sorted(Path(__file__).resolve().parent.glob("*.py"))
FILE_FORMAT_OWNERS = {"cli", "data", "model"}


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


def unreferenced_names(sources: dict[str, str], public: bool) -> list[str]:
    """"module.name" of each public (or private) top-level name of
    `sources` (module name -> source) that no source reads."""
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        lines = source.splitlines()
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            for name in names:
                if (name.startswith("_") != public and not name.startswith("__")
                        and "# noqa" not in lines[node.lineno - 1]):
                    defined.append((name, f"{module}.{name}"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name)
    return sorted(where for name, where in defined if name not in read)


def test_modules_found():
    assert {"tensor.py", "train.py", "baseline.py"} <= {p.name for p in MODULES}
    assert {"fingerprint.py", "seeds.py", "select_timing.py"} <= {p.name for p in TOOLS}
    assert {"conftest.py", "test_import_hygiene.py"} <= {p.name for p in TESTS}


@pytest.mark.parametrize("path", MODULES + TOOLS + TESTS, ids=lambda p: p.name)
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


def test_every_private_name_is_referenced():
    sources = {p.stem: p.read_text() for p in PACKAGE.glob("*.py")}
    assert unreferenced_names(sources, public=False) == []


def test_every_public_name_is_referenced():
    sources = {p.stem: p.read_text() for p in PACKAGE.glob("*.py")}
    assert unreferenced_names(sources, public=True) == []


def test_private_name_checker_flags_a_dead_name_and_honours_noqa():
    sources = {
        "a": ("_LIMIT = 3\n"
              "_dead, _KEPT = 1, 2  # noqa\n"
              "__version__ = '1'\n"
              "def _helper():\n"
              "    return _LIMIT\n"
              "def _orphan():\n"
              "    _orphan_local = 1\n"
              "class _Shape:\n"
              "    pass\n"),
        "b": ("from a import _helper\n"
              "import a\n"
              "_unused: int = a._Shape and 0\n"),
    }
    assert unreferenced_names(sources, public=False) == ["a._orphan", "b._unused"]


def test_public_name_checker_flags_a_dead_name_and_honours_noqa():
    sources = {
        "a": ("LIMIT = 3\n"
              "DEAD, KEPT = 1, 2  # noqa\n"
              "__version__ = '1'\n"
              "def helper():\n"
              "    return LIMIT\n"
              "def orphan():\n"
              "    local = 1\n"
              "class Shape:\n"
              "    pass\n"
              "def _private():\n"
              "    pass\n"),
        "b": ("from a import helper\n"
              "import a\n"
              "UNUSED: int = a.Shape and 0\n"),
    }
    assert unreferenced_names(sources, public=True) == ["a.orphan", "b.UNUSED"]


def open_calls(source: str) -> list[int]:
    """Lines of the calls to open() or to some object's .open()."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Call)
                  and "open" in (getattr(node.func, "id", None), getattr(node.func, "attr", None)))


def test_only_file_format_owners_open_files():
    calls = {p.stem: open_calls(p.read_text()) for p in PACKAGE.glob("*.py")
             if p.stem not in FILE_FORMAT_OWNERS}
    assert {module: lines for module, lines in calls.items() if lines} == {}
    assert FILE_FORMAT_OWNERS <= {p.stem for p in MODULES}


def test_open_checker_flags_both_spellings():
    source = ("with open(p) as fh:\n"
              "    pass\n"
              "fh = path.open('w')\n"
              "opened = reopen(p)\n")
    assert open_calls(source) == [1, 3]


def _is_tape(node) -> bool:
    return "tape" in (getattr(node, "id", None), getattr(node, "attr", None))


def taped_constructions(source: str) -> list[int]:
    """Lines, outside a function named _record, of a Tensor built with a
    tape argument, an append to some object's _ops, or an `if` statement
    on `<tape> is not None`."""
    tree = ast.parse(source)
    exempt = {id(node) for f in ast.walk(tree)
              if isinstance(f, ast.FunctionDef) and f.name == "_record" for node in ast.walk(f)}
    lines = []
    for node in ast.walk(tree):
        if id(node) in exempt:
            continue
        if isinstance(node, ast.Call):
            f = node.func
            tensor = getattr(f, "id", getattr(f, "attr", None)) == "Tensor" and (
                len(node.args) > 1 or any(kw.arg == "tape" for kw in node.keywords))
            append = getattr(f, "attr", None) == "append" and getattr(f.value, "attr", None) == "_ops"
            if tensor or append:
                lines.append(node.lineno)
        elif isinstance(node, ast.If) and isinstance(node.test, ast.Compare):
            test = node.test
            if (_is_tape(test.left) and isinstance(test.ops[0], ast.IsNot)
                    and getattr(test.comparators[0], "value", 0) is None):
                lines.append(node.lineno)
    return sorted(lines)


def test_only_record_makes_a_taped_output():
    found = {p.stem: taped_constructions(p.read_text()) for p in PACKAGE.glob("*.py")}
    assert {module: lines for module, lines in found.items() if lines} == {}
    assert "def _record(" in (PACKAGE / "tensor.py").read_text()


def test_taped_construction_checker_flags_an_op_that_tapes_itself():
    source = ("def _record(tape, data, parents, backward):\n"
              "    out = Tensor(data, tape)\n"
              "    if tape is not None:\n"
              "        tape._ops.append((out.tape_id, (), backward))\n"
              "    return out\n"
              "def relu(a):\n"
              "    out = Tensor(np.maximum(a.data, 0.0), a.tape)\n"
              "    if a.tape is not None:\n"
              "        a.tape._ops.append((out.tape_id, (a.tape_id,), None))\n"
              "    return out\n"
              "const = T.Tensor(np.zeros(2))\n"
              "taped = T.Tensor(np.zeros(2), tape=tape)\n"
              "mask = a > 0 if tape is not None else None\n"
              "if tape is None:\n"
              "    pass\n")
    assert taped_constructions(source) == [7, 8, 9, 12]
