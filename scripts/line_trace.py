#!/usr/bin/env python3
"""Which statements of src/msn a pytest run never executes.

Runs pytest in this process under a ``sys.settrace`` line tracer limited to
the modules of src/msn, then prints, per module, each statement that no
traced line reached, and exits with pytest's exit code. It needs only the
standard library and pytest; ``coverage`` is not a dependency of the kit.

    python scripts/line_trace.py [pytest args]
    python scripts/line_trace.py -q tests -k "not criterion_07"

A statement counts as executed when any of its own lines ran: the whole of a
simple statement, the header of a compound one (``if``, ``for``, ``with``
...). Docstrings, ``def`` and ``class`` lines, imports and ``try:`` lines
are not counted. Only the main thread is traced, and child processes are
not: what only a subprocess run of the CLI executes is reported as not
executed. The traced code runs slower than it does untraced.
"""

import argparse
import ast
import os
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "msn"

# statements with no line of their own to run, or not counted
_SKIPPED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom,
            ast.Try, getattr(ast, "TryStar", ast.Try), ast.Global, ast.Nonlocal)


def _statement_lines(tree):
    """(first, last) own line of each counted statement of ``tree``."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or isinstance(node, _SKIPPED):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            continue  # a docstring
        body = getattr(node, "body", None)
        yield node.lineno, max(node.lineno, body[0].lineno - 1) if body else node.end_lineno


def unexecuted(source: str, hit) -> list:
    """First line of each counted statement of ``source`` none of whose own
    lines is in ``hit``, in order."""
    return sorted(first for first, last in _statement_lines(ast.parse(source))
                  if not any(line in hit for line in range(first, last + 1)))


def traced_pytest(args) -> tuple:
    """pytest's exit code for ``args`` and the lines it ran in PACKAGE, by real path."""
    import pytest

    prefix, local, hits = str(PACKAGE) + os.sep, {}, defaultdict(set)

    def line_tracer(lines):
        def line(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return line
        return line

    def trace(frame, event, arg):
        # one line tracer per file of PACKAGE; frames of other files are not traced
        name = frame.f_code.co_filename
        if name not in local:
            real = os.path.realpath(name)
            local[name] = line_tracer(hits[real]) if real.startswith(prefix) else None
        return local[name]

    sys.path.insert(0, str(PACKAGE.parent))
    sys.settrace(trace)
    try:
        code = pytest.main(list(args))
    finally:
        sys.settrace(None)
    return int(code), hits


def main():
    parser = argparse.ArgumentParser(
        usage="%(prog)s [-h] [pytest args]", allow_abbrev=False,
        description=__doc__.split("\n\n")[0] + " Every argument but -h/--help goes to pytest.")
    _, pytest_args = parser.parse_known_args()
    code, hits = traced_pytest(pytest_args)
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        missed = unexecuted(source, hits[os.path.realpath(path)])
        lines = source.splitlines()
        print(f"{path.relative_to(ROOT)}: {len(missed)} statement(s) not executed")
        for number in missed:
            print(f"  {number}: {lines[number - 1].strip()}")
    sys.exit(code)


if __name__ == "__main__":
    main()
