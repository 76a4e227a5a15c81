"""tools/code_lines.py: the two line counts the ROADMAP tracks for src/."""

import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
spec = importlib.util.spec_from_file_location("code_lines", os.path.join(ROOT, "tools", "code_lines.py"))
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

SNIPPET = '''"""Module docstring,
over two lines."""

# a comment line
import math


def area(r):
    """Docstring of a function."""
    # another comment
    return math.pi * r**2  # a trailing comment


TOTAL = area(
    2.0,
)
LABEL = """not a docstring,
but a string spanning two lines"""
'''


def test_counts_a_fixed_snippet():
    # 18 lines; code: import, def, return, the three lines of the call and
    # the two lines of the assigned string
    assert code_lines.count(SNIPPET) == (18, 8)


def test_reports_every_package_file_and_the_total(capsys):
    assert code_lines.main() == 0
    rows = capsys.readouterr().out.splitlines()
    files = sorted(f for f in os.listdir(os.path.join(ROOT, "src", "hywbench")) if f.endswith(".py"))
    assert [row.split()[-1] for row in rows[1:-1]] == [f"src/hywbench/{f}" for f in files]
    wc, code = (sum(int(row.split()[i]) for row in rows[1:-1]) for i in (0, 1))
    assert rows[-1].split() == [str(wc), str(code), "total"]
