"""The code-line counter in tools/code_lines.py."""

import importlib.util
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"

spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring,
over two lines."""

# A comment.
import math


def f(x):
    """One-line docstring."""
    y = "not a docstring"  # trailing comment
    return math.sqrt(x) + len(y)
'''


def test_counts_only_code_lines():
    # import, def, the assignment and the return.
    assert code_lines.code_lines(SOURCE) == 4


def test_prints_each_file_then_the_total(tmp_path):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text("x = 1\ny = 2\n")
    out = subprocess.run(
        [sys.executable, str(TOOL), str(tmp_path)],
        capture_output=True, text=True, check=True,
    ).stdout.splitlines()
    assert out == [f"     4 {tmp_path / 'a.py'}", f"     2 {tmp_path / 'b.py'}", "6"]
