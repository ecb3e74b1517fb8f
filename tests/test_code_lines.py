"""scripts/code_lines.py, the code-line count that ROADMAP and CHANGES.md
quote for the files under src/."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SOURCE = '''\
"""A module docstring
over two lines."""

import os  # a comment after code
# a comment on its own line


def f(a,
      b):
    """A function docstring."""
    text = """not a docstring:
    a string over two lines"""
    return (a +
            b)


class C:
    "A class docstring."
    x = 1
'''


def test_counts_code_and_not_docstrings_comments_or_blank_lines():
    # import; def over 2 lines; text's string over 2 lines; return over 2
    # lines; class; x = 1
    assert code_lines.code_lines(SOURCE) == 1 + 2 + 2 + 2 + 1 + 1


def test_prints_each_file_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text("x = 1\n")
    assert code_lines.main([str(tmp_path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in out] == ["9", "1", "10"]
    assert out[-1].endswith("total")
