"""Count the code lines of Python files.

Usage: python tools/code_lines.py PATH...

Each PATH is a .py file or a directory searched for them.  A line counts
when it holds a token other than a comment, NL, NEWLINE, INDENT or DEDENT,
or a string literal that stands alone as a statement (a docstring), so
blank lines, comment lines and docstrings are left out, and a statement or
string over several lines counts each line.  Prints each file's count, then
the total.  Standard library only.
"""

import ast
import sys
import tokenize
from pathlib import Path

_SKIPPED = {
    tokenize.ENCODING,
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}


def code_lines(path: Path) -> int:
    """The number of code lines in the Python file at `path`."""
    # the lines of every string literal that stands alone as a statement
    docstrings = {
        line
        for node in ast.walk(ast.parse(path.read_bytes()))
        if isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
        for line in range(node.lineno, node.end_lineno + 1)
    }
    lines = set()
    with path.open("rb") as f:
        for tok in tokenize.tokenize(f.readline):
            if tok.type in _SKIPPED or (tok.type == tokenize.STRING and tok.start[0] in docstrings):
                continue
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv: list[str]) -> int:
    if not argv:
        print("usage: python tools/code_lines.py PATH...", file=sys.stderr)
        return 2
    total = 0
    for arg in argv:
        p = Path(arg)
        for file in sorted(p.rglob("*.py")) if p.is_dir() else [p]:
            n = code_lines(file)
            total += n
            print(f"{n:6d}  {file}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
