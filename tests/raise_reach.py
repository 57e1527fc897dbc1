"""Check that the tests run every ``raise`` in model.py, forge.py and cli.py.

    python tests/raise_reach.py     # exit 1 listing each raise never run

``tests/test_model.py``, ``test_cli.py`` and ``test_forge.py`` run in-process
under a ``sys.settrace`` hook that records the lines executed in those three
modules only. Every ``raise`` statement in them is found with ``ast``, and
each whose first line never ran is listed. A line tracer over the whole
suite slows the timed acceptance tests past their own bounds, so it stays
with these three test files, which reach every input check. The package is
imported from ``src/`` of this checkout.
"""

from __future__ import annotations

import ast
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PACKAGE = os.path.join(ROOT, "src", "coabelian")
MODULES = ("model.py", "forge.py", "cli.py")
TESTS = ("test_model.py", "test_cli.py", "test_forge.py")


def raise_statements(path: str) -> dict[int, str]:
    """First line of each raise statement -> its source text."""
    with open(path, encoding="utf-8") as fh:
        source = fh.read()
    lines = source.splitlines()
    return {node.lineno: lines[node.lineno - 1].strip()
            for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Raise)}


def run_traced(targets: set[str]) -> tuple[int, dict[str, set[int]]]:
    """Run the three test files; returns pytest's exit code and the lines run
    in each target module."""
    ran: dict[str, set[int]] = {path: set() for path in targets}
    traced: dict = {}  # code object -> its target path, or None

    def on_line(frame, event, arg):
        if event == "line":
            ran[traced[frame.f_code]].add(frame.f_lineno)
        return on_line

    def on_call(frame, event, arg):
        code = frame.f_code
        if code not in traced:
            traced[code] = next((p for p in targets
                                 if os.path.realpath(code.co_filename) == p), None)
        return on_line if traced[code] else None

    sys.settrace(on_call)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider",
                            *(os.path.join(HERE, name) for name in TESTS)])
    finally:
        sys.settrace(None)
    return int(code), ran


def main() -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.dont_write_bytecode = True
    targets = {os.path.realpath(os.path.join(PACKAGE, name)) for name in MODULES}
    code, ran = run_traced(targets)
    if code != 0:
        print(f"the traced tests failed (pytest exit {code})")
        return 1
    statements = {path: raise_statements(path) for path in sorted(targets)}
    missed = [f"{os.path.basename(path)}:{line}: {text}"
              for path, found in statements.items()
              for line, text in sorted(found.items()) if line not in ran[path]]
    total = sum(map(len, statements.values()))
    for entry in missed:
        print(f"never raised: {entry}")
    print(f"{total - len(missed)} of {total} raise statements ran")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
