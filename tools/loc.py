"""Count the source lines of the ``stylecat`` package.

Prints, per module of ``src/stylecat`` and in total, all lines and the
lines of code: those outside docstrings, comments and blank lines.
Docstrings are the module, class and function docstrings that ``ast``
finds; comments and blank lines are what ``tokenize`` finds on a line
with no other token.

    python3 tools/loc.py [source directory]
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NON_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set[int]:
    """Line numbers covered by the docstrings of the module, its classes and its functions."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(path: Path) -> tuple[int, int]:
    """(all lines, lines of code) of one Python file."""
    source = path.read_text(encoding="utf-8")
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NON_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(source.splitlines()), len(code - docstring_lines(ast.parse(source)))


def main(argv: list[str]) -> int:
    root = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parent.parent / "src" / "stylecat"
    total = [0, 0]
    print(f"{'module':16s} {'lines':>6s} {'code':>6s}")
    for path in sorted(root.glob("*.py")):
        lines, code = count(path)
        total[0] += lines
        total[1] += code
        print(f"{path.name:16s} {lines:6,d} {code:6,d}")
    print(f"{'total':16s} {total[0]:6,d} {total[1]:6,d}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
