"""Count code lines: lines that are not blank, a comment or part of a docstring.

Usage: python tools/code_lines.py [PATH ...]   (default: src/graphtest)

Prints one line per file, "<code lines> <path>", for the given files and every
``.py`` file under the given directories, then the total alone on the last
line (so ``tail -1`` gives it).
"""

import ast
import sys
from pathlib import Path

_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(source: str) -> int:
    docstring_lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _SCOPES) and ast.get_docstring(node) is not None:
            doc = node.body[0]
            docstring_lines.update(range(doc.lineno, doc.end_lineno + 1))
    return sum(
        1
        for number, line in enumerate(source.splitlines(), 1)
        if number not in docstring_lines
        and line.strip()
        and not line.lstrip().startswith("#")
    )


if __name__ == "__main__":
    paths = [Path(arg) for arg in sys.argv[1:] or ["src/graphtest"]]
    files = [f for p in paths for f in ([p] if p.is_file() else sorted(p.rglob("*.py")))]
    counts = [code_lines(f.read_text()) for f in files]
    for count, f in zip(counts, files):
        print(f"{count:6d} {f}")
    print(sum(counts))
