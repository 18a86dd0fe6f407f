"""Count the code lines of Python and C files: blank lines, comments and
docstrings are not counted.

A Python line counts when it carries at least one token that is not a
comment and does not lie inside a docstring (the string that opens a
module, class or function body).  A statement split over several lines
counts each of them.  A C line counts when anything but blanks is left
on it once its comments are removed.

Usage: python tools/code_lines.py [PATH ...]   (default: src/bmadmm)

Prints one count per Python file, then their total; then one count per C
file, then the C total.
"""

from __future__ import annotations

import ast
import io
import re
import sys
import tokenize
from pathlib import Path

_SKIP = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}


def _docstring_lines(tree):
    lines = set()
    for node in ast.walk(tree):
        if not isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            continue
        body = node.body
        if (
            body
            and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)
        ):
            lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source):
    """Number of code lines in one file's source text."""
    docstrings = _docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _SKIP:
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


# a C comment, or a string or character literal, which may hold "/*"
_C_TOKEN = re.compile(r"/\*.*?\*/|//[^\n]*|\"(?:\\.|[^\"\\\n])*\"|'(?:\\.|[^'\\\n])*'", re.S)


def c_code_lines(source):
    """Number of code lines in one C file's source text."""

    def blank_comment(match):
        text = match.group(0)
        return text if text[0] in "\"'" else "\n" * text.count("\n")

    return sum(1 for line in _C_TOKEN.sub(blank_comment, source).splitlines() if line.strip())


def main(argv):
    paths = [Path(p) for p in (argv or ["src/bmadmm"])]
    for suffix, count_lines, label in ((".py", code_lines, "total"), (".c", c_code_lines, "C total")):
        files = []
        for path in paths:
            if path.is_dir():
                files.extend(sorted(path.rglob("*" + suffix)))
            elif path.suffix == suffix:
                files.append(path)
        total = 0
        for file in files:
            count = count_lines(file.read_text())
            total += count
            print(f"{count:6d}  {file}")
        if suffix == ".py" or files:
            print(f"{total:6d}  {label}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
