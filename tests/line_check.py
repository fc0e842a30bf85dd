"""Line audit: run the test suite under a line tracer limited to the
frames of src/cellspec, and print, module by module, the lines of its code
objects that never ran.

    PYTHONPATH=src python tests/line_check.py

It is not a test (no test_ prefix) and uses only the standard library and
pytest.  The expected lines of a module are the co_lines() of every code
object compiled from its source, the module body included, so it must be
imported under the tracer: nothing here imports cellspec first.  Code run
only in a subprocess (the CLI tests that spawn an interpreter) reads as
unrun.  Tracing makes the suite several times slower.  The exit status is
pytest's.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "cellspec"


def expected_lines(path: Path) -> set[int]:
    """The lines that carry code in any code object compiled from path."""
    lines, pending = set(), [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while pending:
        code = pending.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        pending += [c for c in code.co_consts if isinstance(c, type(code))]
    return lines


def collect(args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """Run pytest with args under the tracer; return its exit status and
    the lines hit in each src/cellspec file, keyed by resolved path."""
    inside: dict[str, str | None] = {}  # co_filename -> resolved path, or None
    hit: dict[str, set[int]] = {}

    def where(filename: str) -> str | None:
        if filename not in inside:
            path = os.path.realpath(filename)
            inside[filename] = path if Path(path).parent == PACKAGE else None
            if inside[filename]:
                hit.setdefault(path, set())
        return inside[filename]

    def trace(frame, event, arg):
        path = where(frame.f_code.co_filename)
        if path is None:
            return None
        lines = hit[path]
        lines.add(frame.f_lineno)

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local

    sys.settrace(trace)
    try:
        status = pytest.main(args)
    finally:
        sys.settrace(None)
    return int(status), hit


def spans(lines: list[int]) -> str:
    """Sorted line numbers as comma-separated runs, such as 3, 7-9."""
    runs: list[list[int]] = []
    for line in lines:
        if runs and line == runs[-1][1] + 1:
            runs[-1][1] = line
        else:
            runs.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in runs)


def main() -> int:
    status, hit = collect(["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        unrun = sorted(expected_lines(path) - hit.get(os.path.realpath(path), set()))
        total += len(unrun)
        if unrun:
            print(f"{path.relative_to(ROOT)}: {len(unrun)} unrun: {spans(unrun)}")
    print(f"unrun lines in src/cellspec: {total}")
    return status


if __name__ == "__main__":
    sys.exit(main())
