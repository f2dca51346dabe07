"""Count the code lines of each ``src/triefringe`` module.

A code line is a source line that is not blank, not a comment-only line and
not part of a docstring (the string literal that opens a module, class or
function body).  Prints one ``module lines`` row per module and the total.

Run from the repository root::

    python tools/code_lines.py
"""

import ast
import io
import pathlib
import sys
import tokenize

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "triefringe"


def docstring_lines(tree):
    """Line numbers covered by the docstrings of ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
            continue
        body = node.body
        if (body and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(text):
    """Number of code lines in the Python source ``text``."""
    skip = docstring_lines(ast.parse(text))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type in (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
                        tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER):
            continue
        code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - skip)


def main():
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        n = code_lines(path.read_text())
        total += n
        print(f"{path.name:<16} {n:>5}")
    print(f"{'total':<16} {total:>5}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
