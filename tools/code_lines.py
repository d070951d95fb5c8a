"""Count the code lines of Python source files.

A line counts when it holds a token that is not a comment, a newline or
an indent, and is not part of a module, class or function docstring.
A string token that spans lines holds each line it spans.

Usage: ``python3 tools/code_lines.py [DIR ...]`` (default ``src/tall``)
prints each ``*.py`` file's count under the directories given, sorted by
path, then ``total N``.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

SKIPPED = {tokenize.COMMENT, tokenize.NEWLINE, tokenize.NL, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER}
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers of every module, class and function docstring."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(node, SCOPES) or not node.body:
            continue
        first = node.body[0]
        if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    source = path.read_text()
    held: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in SKIPPED:
            held.update(range(tok.start[0], tok.end[0] + 1))
    return len(held - docstring_lines(ast.parse(source, str(path))))


def main(argv: list[str]) -> int:
    total = 0
    for root in argv or ["src/tall"]:
        for path in sorted(Path(root).rglob("*.py")):
            n = code_lines(path)
            total += n
            print(f"{n:6d} {path}")
    print(f"total {total}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
