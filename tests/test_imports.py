"""No library module imports a name it never uses.  No linter ships with
the test dependencies, so this reads the source with `ast`.  The
package's `__init__.py` re-exports names and is not checked; an import
line marked `# noqa` is skipped."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "hsc"


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
