"""Count the code lines of each module of a package.

    python3 tools/code_lines.py [PACKAGE_DIR]

A code line is a line holding a token outside comments and docstrings, so
blank lines, comment lines and docstring lines do not count, and a call
written over three lines counts three times.  A docstring is the first
statement of a module, class or function when it is a bare string; its
string tokens are found with tokenize, its lines with ast.  PACKAGE_DIR
defaults to src/quantoid; the counts are printed per module, largest
first, then the total.
"""

from __future__ import annotations

import ast
import io
import os
import sys
import tokenize

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set:
    """The lines of every docstring statement in tree."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None  # an empty module has no body
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    docs = docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in NOT_CODE or (tok.type == tokenize.STRING and tok.start[0] in docs):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv: list) -> int:
    if len(argv) > 1:
        print(__doc__, file=sys.stderr)
        return 2
    package = argv[0] if argv else os.path.join(ROOT, "src", "quantoid")
    counts = {}
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), encoding="utf-8") as handle:
                counts[name[:-3]] = code_lines(handle.read())
    width = max(map(len, counts), default=0)
    for module, count in sorted(counts.items(), key=lambda item: (-item[1], item[0])):
        print(f"{module:<{width}}  {count:>5}")
    print(f"{'total':<{width}}  {sum(counts.values()):>5}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
