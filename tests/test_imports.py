"""No library module imports a name it never uses, and no module-level
private name of the library goes unread by the library or the scripts
beside it.  No linter ships with the test dependencies, so this reads
the source with `ast`; an import line marked `# noqa` is skipped.  The
demo and bench modules load neither `dataclasses` nor the `inspect` it
pulls in, no hsc process loads `hashlib` (and OpenSSL's libcrypto with
it) where CPython's own hash modules exist, the `hashlib` fallback gives
the same bytes, and the package docstring's quick start runs as
written."""

import ast
import importlib.util
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import hsc

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "hsc"


def _child(code, *args):
    """Run `code` in a fresh interpreter with only this hsc's `src` on
    PYTHONPATH, so that the modules it loads are those that hsc and the
    interpreter's own start-up load, whatever path the tests run with."""
    return subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                          text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=str(SRC.parent)))


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


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
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
    result = _child(code, str(SRC.parent), module)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == ["[]"]


# a fresh interpreter: argv[2] == "fallback" hides CPython's own hash
# modules before hsc is imported, as on a build without them; then it
# imports the CLI, demo and bench modules, runs three k*P (the first two
# take the first-use path, the third loads and checks the generator
# table) and H1, H2 and a 1 KiB H3 on a fixed seed, and prints the hash
# modules it loaded and the outputs in hex
_HASH_CHILD = textwrap.dedent("""
    import random, sys
    if sys.argv[2] == "fallback":
        sys.modules.update(_sha3=None, _sha256=None, _sha2=None)
    sys.path.insert(0, sys.argv[1])
    import hsc.bench, hsc.cli, hsc.netdemo
    from hsc import group, hashing
    secp = group.Secp256k1Group()
    oracles = hashing.HashOracles(secp)
    rng = random.Random(24)
    X, _, _ = (secp.random_scalar(rng) * secp.generator() for _ in range(3))
    assert group._load_g_table.cache_info().currsize == 1
    message = rng.getrandbits(8 * 100).to_bytes(100, "big")
    print(sorted({"hashlib", "_hashlib"} & set(sys.modules)))
    print(X.encode().hex())
    print(secp.encode_scalar(oracles.h1(b"bob", X)).hex())
    print(secp.encode_scalar(oracles.h2(message, X)).hex())
    print(oracles.h3(X, 1024).hex())
    if sys.argv[2] == "fallback":
        import hashlib
        assert hashing.shake_256 is hashlib.shake_256
        assert group.sha256 is hashlib.sha256
""")


def _hash_child(mode):
    result = _child(_HASH_CHILD, str(SRC.parent), mode)
    assert result.returncode == 0, result.stderr
    return result.stdout.splitlines()


def test_no_hsc_process_loads_hashlib():
    if not (importlib.util.find_spec("_sha3")
            and (importlib.util.find_spec("_sha2") or importlib.util.find_spec("_sha256"))):
        pytest.skip("this interpreter has no built-in SHAKE256 and SHA-256 modules")
    assert _hash_child("default")[0] == "[]"


def test_the_hashlib_fallback_gives_the_same_bytes():
    default, fallback = _hash_child("default"), _hash_child("fallback")
    assert fallback[0] == "['_hashlib', 'hashlib']"
    assert fallback[1:] == default[1:]
    assert [len(line) for line in default[1:]] == [66, 64, 64, 2048]


def test_package_quick_start_runs():
    # the indented block after "Quick start::", up to the next unindented line
    _, _, rest = hsc.__doc__.partition("Quick start::\n")
    block = []
    for line in rest.splitlines():
        if line and not line.startswith(" "):
            break
        block.append(line)
    code = textwrap.dedent("\n".join(block))
    assert "signcryption.pchs_unsigncrypt" in code
    exec(compile(code, "hsc quick start", "exec"), {})
