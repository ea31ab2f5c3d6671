"""Count the code lines of each qball module: lines that hold a token of
code, so no blank line, comment or docstring counts.

    python tools/code_lines.py [SRC]

SRC defaults to this repository's src/qball.  Docstrings are found with
ast (a string constant that opens a module, class or function body), code
tokens with tokenize.  It prints one line per module and the total.
"""

from __future__ import annotations

import ast
import pathlib
import sys
import tokenize

NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(path: pathlib.Path) -> int:
    source = path.read_text()
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        body = getattr(node, "body", None)
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                              ast.AsyncFunctionDef))
                and body and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            docstrings.update(range(body[0].lineno, body[0].end_lineno + 1))
    lines = set()
    with path.open("rb") as handle:
        for tok in tokenize.tokenize(handle.readline):
            if tok.type not in NOT_CODE:
                lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def main(argv: list) -> int:
    root = pathlib.Path(argv[1] if len(argv) > 1 else
                        pathlib.Path(__file__).resolve().parents[1]
                        / "src" / "qball")
    total = 0
    for path in sorted(root.glob("*.py")):
        count = code_lines(path)
        total += count
        print(f"{path.name:24} {count:6}")
    print(f"{'total':24} {total:6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
