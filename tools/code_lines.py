"""Count code lines per module of the semdef package: lines that hold code,
not comments, docstrings or blank lines.

Python modules are read with tokenize: a line counts when a token other than
a comment starts on it or a multi-line token spans it, outside the docstring
statements (the first string statement of a module, class or function).  In
_dfs.c the /* */ and // comments are stripped and the non-blank lines that
remain are counted.

Run:  python tools/code_lines.py
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from pathlib import Path

_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def _docstring_lines(source: str) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def python_code_lines(source: str) -> int:
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(source))


def c_code_lines(source: str) -> int:
    # string literals in _dfs.c hold no comment markers, so a plain strip is exact
    stripped = re.sub(r"/\*.*?\*/|//[^\n]*", "", source, flags=re.S)
    return sum(1 for line in stripped.splitlines() if line.strip())


def main() -> None:
    package = Path(__file__).parents[1] / "src" / "semdef"
    totals = {"Python": 0, "C": 0}
    for path in sorted(package.glob("*.py")) + sorted(package.glob("*.c")):
        source = path.read_text()
        if path.suffix == ".py":
            lang, count = "Python", python_code_lines(source)
        else:
            lang, count = "C", c_code_lines(source)
        totals[lang] += count
        print(f"{count:6d}  {path.name}")
    for lang, count in totals.items():
        print(f"{count:6d}  {lang} total")


if __name__ == "__main__":
    main()
