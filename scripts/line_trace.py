#!/usr/bin/env python3
"""List the function-body lines of src/steiner3 that no test executes.

Runs pytest in this process under a `sys.settrace` tracer that records
line events only in frames of the steiner3 sources, then prints each
line of a function or method body that never ran, as `file:line: text`,
and their count.  A body line is any line that the function's compiled
code maps an instruction to (`co_lines`), other than the `def` line
itself; module and class bodies run at import and are not listed.

Only the standard library is used.  The tracer slows the suite about
3.5 times, so tests with a wall-clock bound may fail under it: the script
reports lines, not test outcomes, and its exit status is 0 either way.
Code run only in a subprocess (the `steiner3` entry point as a process)
is not seen.  A test that leaves the tracer unset (CPython unsets it when
a RecursionError is raised inside the trace function) is named on stderr,
and the tracer is set again before the next test.

Run from the repository root:  python3 scripts/line_trace.py [pytest args]
With no arguments it runs the whole tests/ directory, quietly.
"""

import sys
import threading
from collections import defaultdict
from pathlib import Path
from types import CodeType

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "steiner3"


def body_lines(code: CodeType) -> set[int]:
    """The lines that the functions compiled into `code` map instructions
    to, less each function's first (`def` or decorator) line.  Lambdas and
    comprehensions (named "<...>") add no line of their own: their lines
    are the enclosing function's."""
    lines = set()
    for const in code.co_consts:
        if isinstance(const, CodeType):
            if not const.co_name.startswith("<"):
                lines |= {
                    line for _, _, line in const.co_lines() if line is not None
                } - {const.co_firstlineno}
            lines |= body_lines(const)
    return lines


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    prefix = str(PACKAGE) + "/"
    executed: defaultdict[str, set[int]] = defaultdict(set)

    def local(frame, event, arg):
        if event == "line":
            executed[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        # only frames of the package get a line tracer
        return local if frame.f_code.co_filename.startswith(prefix) else None

    class Retrace:
        """Sets the tracer again after each test that left it unset."""

        @staticmethod
        def pytest_runtest_logfinish(nodeid, location):
            if sys.gettrace() is not tracer:
                print(f"tracer lost in {nodeid}; set again", file=sys.stderr)
                sys.settrace(tracer)

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        pytest.main(
            argv or ["-q", "-p", "no:cacheprovider", str(ROOT / "tests")], plugins=[Retrace()]
        )
    finally:
        sys.settrace(None)
        threading.settrace(None)

    missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        text = source.splitlines()
        expected = body_lines(compile(source, str(path), "exec"))
        for line in sorted(expected - executed[str(path)]):
            print(f"{path.relative_to(ROOT)}:{line}: {text[line - 1].strip()}")
            missed += 1
    print(f"{missed} function-body lines not executed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
