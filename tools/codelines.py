"""Count the code lines of each deadcore module.

A code line holds a token other than a comment: blank lines, comments and
docstrings are not counted, so that deleting documentation does not read
as less code.  Prints one line per module of src/deadcore and the total.
Run from the root of the repository:

    python tools/codelines.py
"""

import ast
import io
import tokenize
from pathlib import Path

SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
        tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(src):
    """The number of lines of src that hold code, docstrings excluded."""
    docs = set()
    for node in ast.walk(ast.parse(src)):
        if isinstance(node, SCOPES) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            docs.update(range(doc.lineno, doc.end_lineno + 1))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(src).readline):
        if tok.type not in SKIP:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - docs)


def main():
    total = 0
    for path in sorted(Path("src/deadcore").glob("*.py")):
        n = code_lines(path.read_text())
        total += n
        print("%8d %s" % (n, path))
    print("%8d code lines without comments and docstrings" % total)


if __name__ == "__main__":
    main()
