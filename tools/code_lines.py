"""Count the code-only lines of each module in src/eii.

A code-only line is not blank, not a full-line comment and not inside a
module, class or function docstring.  Prints one line per module, with its
total and code-only line counts, then the totals.

    python tools/code_lines.py [package directory]
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path


def docstring_lines(tree: ast.Module) -> set:
    """Line numbers covered by a module, class or function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def counts(path: Path) -> tuple:
    """(total lines, code-only lines) of one Python source file."""
    text = path.read_text()
    docs = docstring_lines(ast.parse(text))
    lines = text.splitlines()
    code = sum(1 for i, line in enumerate(lines, 1)
               if line.strip() and not line.strip().startswith("#") and i not in docs)
    return len(lines), code


def main(argv: list) -> int:
    package = Path(argv[0]) if argv else Path(__file__).resolve().parents[1] / "src" / "eii"
    total = code = 0
    for path in sorted(package.glob("*.py")):
        lines, only = counts(path)
        total, code = total + lines, code + only
        print(f"{path.stem:<10} {lines:>6} {only:>6}")
    print(f"{'total':<10} {total:>6} {code:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
