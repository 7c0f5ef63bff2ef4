"""Print each statement in a function of a source tree that no case runs.

    python3 tools/reach.py TREE

TREE is a checkout of this repository.  Every case of
``tools/same_outputs.py`` runs on TREE, its listing discarded, and then each
script in ``TREE/demos``, all in this process under ``sys.settrace``.  For
each statement inside a function of ``TREE/src`` that none of them ran, the
script prints ``module:line: statement`` (the statement's first line), in
module and line order.  A statement ran if any line it spans ran; docstrings
are left out.  Nothing is written under TREE: bytecode is not cached.
"""

from __future__ import annotations

import ast
import contextlib
import io
import runpy
import sys
from pathlib import Path

sys.dont_write_bytecode = True
import same_outputs  # noqa: E402 - this script's directory leads sys.path


def statements(module: ast.Module) -> list:
    """Each statement inside a function of ``module``, docstrings left out."""
    functions = [n for n in ast.walk(module)
                 if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
    docstrings = {id(fn.body[0]) for fn in functions if ast.get_docstring(fn) is not None}
    inside = {id(n): n for fn in functions for n in ast.walk(fn)
              if isinstance(n, ast.stmt) and n is not fn and id(n) not in docstrings}
    return sorted(inside.values(), key=lambda n: (n.lineno, n.col_offset))


def main(argv) -> int:
    if len(argv) != 1:
        print("usage: python3 tools/reach.py TREE", file=sys.stderr)
        return 2
    tree = Path(argv[0]).resolve()
    src = tree / "src"
    hits = set()

    def local(frame, event, arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(str(src)) else None

    sink = io.StringIO()
    sys.settrace(tracer)
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            same_outputs.main([str(tree)])  # puts TREE/src first on sys.path
            for demo in sorted((tree / "demos").glob("*.py")):
                runpy.run_path(str(demo), run_name="__main__")
    finally:
        sys.settrace(None)

    for path in sorted(src.rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        lines = text.splitlines()
        for node in statements(ast.parse(text)):
            span = range(node.lineno, node.end_lineno + 1)
            if not any((str(path), line) in hits for line in span):
                name = path.relative_to(src / "spinorlab")
                print(f"{name}:{node.lineno}: {lines[node.lineno - 1].strip()}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
