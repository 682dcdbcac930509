"""The code-line counter in tools/code_lines.py."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

# nine code lines: the import, the def, the four lines of the bracketed
# expression, both lines of the string value and the return
SOURCE = '''"""A module docstring,
over two lines."""

import os  # a comment after code leaves its line counted

# a comment line is not counted


def f(x):
    """A function docstring."""
    y = (
        x
        + os.sep
    )
    text = """a string value
over two lines"""
    return y, text
'''


def test_counts_code_lines_and_skips_blanks_comments_and_docstrings(tmp_path, capsys):
    path = tmp_path / "sample.py"
    path.write_text(SOURCE)
    assert code_lines.code_lines(path) == 9
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines()[-1].split() == ["9", "total"]
