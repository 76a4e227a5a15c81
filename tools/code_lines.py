"""Count the lines of the package source: by ``wc -l`` and as code lines.

A code line holds at least one token that is neither a comment nor part of a
docstring (the string statement that opens a module, class or function).
Blank lines, comment lines and docstring lines are not code lines; every
line of a multi-line statement that carries a token is.

Run from the repository root:

    python3 tools/code_lines.py    # src/hywbench/*.py, per file and total
"""

from __future__ import annotations

import ast
import glob
import io
import os
import sys
import tokenize

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
          tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(source: str) -> set:
    """Line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            if ast.get_docstring(node, clean=False) is not None:
                lines.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return lines


def count(source: str):
    """(lines as wc -l counts them, code lines) of one source text."""
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return source.count("\n"), len(code - docstring_lines(source))


def counts(root: str) -> list:
    """(path, lines by wc -l, code lines) of each src/hywbench/*.py under root."""
    rows = []
    for path in sorted(glob.glob(os.path.join(root, "src", "hywbench", "*.py"))):
        with open(path, encoding="utf-8") as fh:
            rows.append((path, *count(fh.read())))
    return rows


def totals(root: str):
    """(lines by wc -l, code lines) of src/hywbench/*.py under root, summed."""
    rows = counts(root)
    return sum(row[1] for row in rows), sum(row[2] for row in rows)


def main() -> int:
    print(f"{'wc -l':>6} {'code':>6}  file")
    for path, wc, code in counts(ROOT):
        print(f"{wc:6d} {code:6d}  {os.path.relpath(path, ROOT)}")
    wc, code = totals(ROOT)
    print(f"{wc:6d} {code:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
