"""No library module imports a name it never uses, and no module-level
private name of the library goes unread by the library or the scripts
beside it.  No linter ships with the test dependencies, so this reads
the source with `ast`.  The package's `__init__.py` re-exports names and
is not checked for unused imports; an import line marked `# noqa` is
skipped.  The demo and bench modules load neither `dataclasses` nor the
`inspect` it pulls in."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "hsc"


def _unused_imports(source):
    """The names that source imports and never reads, sorted."""
    lines = source.splitlines()
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            marked = "# noqa" in lines[node.lineno - 1]
            if marked or getattr(node, "module", "") == "__future__":
                continue
            imported |= {alias.asname or alias.name.partition(".")[0] for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


@pytest.mark.parametrize("path", [path for path in sorted(SRC.glob("*.py"))
                                  if path.name != "__init__.py"], ids=lambda path: path.name)
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text()) == []


def test_the_check_finds_an_unused_import():
    source = ("import os\nimport sys  # noqa\nfrom typing import Optional, Union\n"
              "import os.path as osp\n\n"
              "def f(x: Optional[int]) -> None:\n    return os.sep\n")
    assert _unused_imports(source) == ["Union", "osp"]


def _unread_private_names(sources, readers=()):
    """The module-level `_name` functions, classes and assignments of the
    modules in `sources` (module name -> source) that neither they nor
    the `readers` (more sources) read, as sorted "module._name" strings.
    A read is a name loaded, an attribute of that name, or a name an
    import takes from a module."""
    defined, read = [], set()
    for source in readers:
        read |= _reads(ast.parse(source))
    for module, source in sources.items():
        tree = ast.parse(source)
        read |= _reads(tree)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            defined += [(module, name) for name in names
                        if name.startswith("_") and not name.startswith("__")]
    return sorted(f"{module}.{name}" for module, name in defined if name not in read)


def _reads(tree):
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read |= {alias.name for alias in node.names}
    return read


def test_no_unread_private_names():
    # scripts/gen_g_table.py is the one reader of group._G_ROWS
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    scripts = [path.read_text() for path in sorted((ROOT / "scripts").glob("*.py"))]
    assert _unread_private_names(sources, scripts) == []


def test_the_check_finds_an_unread_private_name():
    sources = {
        "a": ("_USED = 1\n_UNUSED, _PAIRED = 2, 3\n_typed: int = 4\n__all__ = []\n\n"
              "def _helper():\n    return _USED + _PAIRED\n\n"
              "def _dead():\n    return _helper()\n\n"
              "class _Unused:\n    pass\n"),
        "b": "from .a import _typed\n",
    }
    assert _unread_private_names(sources) == ["a._UNUSED", "a._Unused", "a._dead"]
    assert _unread_private_names(sources, ["import a\na._dead()\n"]) == \
        ["a._UNUSED", "a._Unused"]


@pytest.mark.parametrize("module", ["hsc.netdemo", "hsc.bench"])
def test_demo_and_bench_load_no_dataclasses(module):
    # a fresh interpreter, as a serve, client or bench process starts
    code = ("import sys; sys.path.insert(0, sys.argv[1]); __import__(sys.argv[2]); "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    result = subprocess.run([sys.executable, "-c", code, str(SRC.parent), module],
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == ["[]"]
