"""Count the code lines of the varanom package, module by module.

A code line holds at least one token that is not a comment, and is not
part of a docstring (the leading string of a module, class or function).
Blank lines, comment lines and docstrings are not counted; a statement
spread over several lines counts every line it spans.

    python3 tools/sloc.py
"""

from __future__ import annotations

import ast
import tokenize
from pathlib import Path

_PACKAGE = Path(__file__).resolve().parent.parent / "src" / "varanom"
_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}


def docstring_lines(tree: ast.AST) -> set[int]:
    """Line numbers spanned by the docstrings in ``tree``."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        first = node.body[0] if node.body else None
        if (
            isinstance(first, ast.Expr)
            and isinstance(first.value, ast.Constant)
            and isinstance(first.value.value, str)
        ):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    """Number of code lines in the Python source file ``path``."""
    source = path.read_text()
    lines: set[int] = set()
    with path.open("rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type not in _NOT_CODE:
                lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source, str(path))))


def main() -> None:
    total = 0
    for path in sorted(_PACKAGE.glob("*.py")):
        n = code_lines(path)
        total += n
        print(f"{n:6d}  {path.name}")
    print(f"{total:6d}  total")


if __name__ == "__main__":
    main()
