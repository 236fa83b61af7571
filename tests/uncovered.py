"""The lines of ``src/fmkit`` that tier-1 never runs.

Run from the repository root with Python 3.12 or later:

    python tests/uncovered.py [PYTEST ARGS ...]

It runs tier-1 (``pytest -q --continue-on-collection-errors`` and any
further arguments) in this process, with a ``sys.monitoring`` LINE callback
that notes each line of ``src/fmkit`` the first time it runs and then
switches itself off at that spot.  It then prints, as ``path:line: text``,
every line of ``src/fmkit`` that holds code and never ran.  Pytest's own
report goes to stderr, so stdout is the list alone.  Code that only runs
in a child process (the CLI's shell tests, ``tests/test_imports.py``) is
listed, since no monitor sees it.  The exit status is pytest's.
"""
from __future__ import annotations

import contextlib
import os
import sys
from pathlib import Path
from types import CodeType

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "fmkit"


def code_lines(code: CodeType) -> set[int]:
    """The line numbers of every instruction in ``code`` and the code nested
    in it (a module's first instruction is at line 0, which holds no code)."""
    lines = {line for _, _, line in code.co_lines() if line}
    for const in code.co_consts:
        if isinstance(const, CodeType):
            lines |= code_lines(const)
    return lines


def main(args: list[str]) -> int:
    if sys.version_info < (3, 12):
        print("tests/uncovered.py needs sys.monitoring (Python 3.12 or later)", file=sys.stderr)
        return 2
    import pytest

    monitoring = sys.monitoring
    tool = monitoring.COVERAGE_ID
    ran: dict[str, set[int]] = {}
    ours = str(PACKAGE) + os.sep

    def line(code: CodeType, number: int) -> object:
        path = os.path.realpath(code.co_filename)
        if path.startswith(ours):
            ran.setdefault(path, set()).add(number)
        return monitoring.DISABLE

    sys.path.insert(0, str(SRC))
    monitoring.use_tool_id(tool, "tests/uncovered.py")
    monitoring.register_callback(tool, monitoring.events.LINE, line)
    monitoring.set_events(tool, monitoring.events.LINE)
    try:
        with contextlib.redirect_stdout(sys.stderr):
            status = pytest.main(["-q", "--continue-on-collection-errors", *args])
    finally:
        monitoring.set_events(tool, 0)
        monitoring.free_tool_id(tool)
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        source = text.splitlines()
        missed = code_lines(compile(text, str(path), "exec", dont_inherit=True)) - ran.get(str(path), set())
        for number in sorted(missed):
            print(f"{path.relative_to(ROOT)}:{number}: {source[number - 1].strip()}")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
