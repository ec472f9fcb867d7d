"""The code-line counter `tools/code_lines.py`."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "tools" / "code_lines.py"

# 16 lines; code on lines 6, 9, 13, 14, 15 and 16 (the two-line string is
# not a docstring, since it does not open the body)
FIXTURE = '''"""A module docstring
over two lines."""

# a comment

import math


def area(r):
    """A function docstring."""
    # a comment in the body

    x = "not a docstring"
    text = """a string
    over two lines"""
    return math.pi * r * r  # a trailing comment
'''

SECOND = '''class Empty:
    """Only a docstring."""
'''


def run(*paths):
    proc = subprocess.run([sys.executable, "-B", str(SCRIPT), *map(str, paths)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return [line.split() for line in proc.stdout.splitlines()]


def test_counts_of_a_fixture(tmp_path):
    (tmp_path / "b_area.py").write_text(FIXTURE)
    (tmp_path / "a_empty.py").write_text(SECOND)
    (tmp_path / "notes.txt").write_text("not python\n")
    assert run(tmp_path) == [["module", "lines", "code"], ["a_empty.py", "2", "1"],
                             ["b_area.py", "16", "6"], ["total", "18", "7"]]
    # a file is counted alone
    assert run(tmp_path / "b_area.py")[1:] == [["b_area.py", "16", "6"], ["total", "16", "6"]]


def test_default_is_the_package():
    names = [name for name, _, _ in run()[1:]]
    assert names[-1] == "total"
    assert names[:-1] == sorted(path.name for path in (ROOT / "src" / "gha").glob("*.py"))
