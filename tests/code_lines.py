"""Code lines of the library: the lines that hold a token and are not part
of a docstring, a comment or a blank line.

    python tests/code_lines.py [FILE ...]

prints the count of each module of src/ekconst (or of each FILE given) and
the total. A line that holds code and a comment counts; a line inside a
string that spans lines counts, unless the string is a docstring.
"""
from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

SOURCES = Path(__file__).resolve().parent.parent / "src" / "ekconst"

#: Tokens that are layout or commentary, not code.
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def code_lines(path) -> int:
    """The number of code lines in the Python file at path."""
    source = Path(path).read_text(encoding="utf-8")
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def main(argv: list[str]) -> int:
    paths = [Path(arg) for arg in argv] or sorted(SOURCES.glob("*.py"))
    total = 0
    for path in paths:
        n = code_lines(path)
        total += n
        print(f"{n:6d}  {path.name}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
