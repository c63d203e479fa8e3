"""``tools/code_lines.py`` counts the lines that hold code, and nothing else."""

import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "tools" / "code_lines.py"

spec = importlib.util.spec_from_file_location("code_lines", SCRIPT)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

#: Every kind of line the count must skip or keep, with the lines it keeps.
SOURCE = '''"""Module docstring,
over two lines."""

import math  # a trailing comment keeps its line

# a comment line

X = 1
"""An attribute's docstring."""


def f(a,
      b):
    """One-line docstring."""
    text = """a string that is
    part of an assignment"""
    return "".join(
        [text, str(a + b)]
    )
'''
KEPT = [4, 8, 12, 13, 15, 16, 17, 18, 19]


def test_only_code_lines_are_counted():
    assert code_lines.code_lines(SOURCE) == len(KEPT)


def test_every_module_and_the_total_are_printed():
    run = subprocess.run(
        [sys.executable, str(SCRIPT)], capture_output=True, text=True, check=True
    )
    rows = [line.split() for line in run.stdout.splitlines()]
    modules = sorted(path.name for path in (ROOT / "src" / "coinwalk").glob("*.py"))
    assert [name for _, name in rows] == modules + ["total"]
    assert sum(int(count) for count, _ in rows[:-1]) == int(rows[-1][0])
