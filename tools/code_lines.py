"""Count the file lines and the code lines of Python modules.

    python tools/code_lines.py [PATH ...]

Each PATH is a Python file or a directory, whose `*.py` files are counted in
name order; the default is `src/gha` beside this script.  A code line is a
line that holds a token other than a comment, a docstring or blank space, as
`tokenize` splits the file: a docstring is the string literal that opens a
module, class or function body, as `ast` finds it, and a string token, like
any token, counts each line from its first to its last.  The script prints,
per module and in total, the file lines and the code lines.
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

DEFAULT = Path(__file__).resolve().parent.parent / "src" / "gha"
# tokens that hold no code: layout, comments and the ends of the stream
_SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_starts(tree: ast.Module) -> set:
    """(line, column) where each docstring of the module starts."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                starts.add((first.lineno, first.col_offset))
    return starts


def count(source: str) -> tuple:
    """(file lines, code lines) of one module's source."""
    docstrings = _docstring_starts(ast.parse(source))
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type in _SKIPPED:
            continue
        if token.type == tokenize.STRING and token.start in docstrings:
            continue
        code.update(range(token.start[0], token.end[0] + 1))
    return len(source.splitlines()), len(code)


def modules(paths):
    """Every Python file that the paths name, directories in name order."""
    for path in map(Path, paths):
        yield from sorted(path.glob("*.py")) if path.is_dir() else [path]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("paths", nargs="*", metavar="PATH", default=[DEFAULT],
                        help="Python files or directories (default: src/gha)")
    args = parser.parse_args(argv)
    print(f"{'module':24} {'lines':>6} {'code':>6}")
    totals = [0, 0]
    for path in modules(args.paths):
        lines, code = count(path.read_text(encoding="utf-8"))
        totals[0] += lines
        totals[1] += code
        print(f"{path.name:24} {lines:>6} {code:>6}")
    print(f"{'total':24} {totals[0]:>6} {totals[1]:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
