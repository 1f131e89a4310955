"""List the statements of src/encdiff that no test executes.

    python tools/unexecuted.py [PYTEST_ARGS ...]

Runs the test suite in this process under a `sys.settrace` line tracer (the
suite without acceptance criterion 8's three 20k-step trainings, unless
PYTEST_ARGS name other tests), then prints one `file:line  statement` line
per statement of the package that never ran, path relative to the checkout.
Statements are the package's AST statements, docstrings aside; a compound
statement (def, class, if, for, with, try, ...) counts as run when a line of
its header or decorators ran.  Code that runs only in a child process, such
as main()'s out-of-memory exit under a capped address space, is not seen.
pytest's own report goes to stderr; the exit status is pytest's.

The trace makes the run 1.3 to 1.6 times as long (48 to 56 s against 36 s
untraced on a 2-core host), so this is a tool, not a test.
"""

from __future__ import annotations

import ast
import contextlib
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "encdiff"
DEFAULT_ARGS = [str(ROOT / "tests"), "-q", "-p", "no:cacheprovider",
                "--deselect", "tests/test_acceptance.py::test_criterion_8_desk_scale_training"]


def traced(run) -> tuple[object, set[tuple[str, int]]]:
    """run()'s result and the (file, line) pairs of the package that it executed."""
    prefix = str(PACKAGE) + os.sep
    in_package: dict[str, bool] = {}
    hits: set[tuple[str, int]] = set()

    def local(frame, event, arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def on_call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in in_package:
            in_package[name] = os.path.realpath(name).startswith(prefix)
        return local if in_package[name] else None

    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        result = run()
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return result, {(os.path.realpath(f), line) for f, line in hits}


def statements(tree: ast.Module):
    """Each statement of a module, docstrings aside, with the lines that show it ran."""
    scopes = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    docstrings = {id(node.body[0]) for node in ast.walk(tree)
                  if isinstance(node, scopes) and ast.get_docstring(node) is not None}
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or id(node) in docstrings:
            continue
        if hasattr(node, "body"):  # a compound statement: its decorators and header
            start = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
            yield node, range(start, max(node.lineno, node.body[0].lineno - 1) + 1)
        else:
            yield node, range(node.lineno, node.end_lineno + 1)


def unexecuted(hits: set[tuple[str, int]]) -> list[str]:
    """`file:line  statement` for each package statement with no line in hits."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        src_lines = source.splitlines()
        ran = {line for f, line in hits if f == str(path)}
        for node, lines in sorted(statements(ast.parse(source)), key=lambda s: s[0].lineno):
            if ran.isdisjoint(lines):
                rel = path.relative_to(ROOT).as_posix()
                out.append(f"{rel}:{node.lineno}  {src_lines[node.lineno - 1].strip()}")
    return out


def main(argv: list[str]) -> int:
    import pytest  # imported before the trace starts, so only the package is traced

    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    with contextlib.redirect_stdout(sys.stderr):
        code, hits = traced(lambda: pytest.main(argv or DEFAULT_ARGS))
    print("\n".join(unexecuted(hits)))
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
