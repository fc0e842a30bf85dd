"""Line audit: run the test suite under a line tracer limited to the
frames of src/cellspec, and print, module by module, the lines of its code
objects that never ran.

    PYTHONPATH=src python tests/line_check.py

It is not a test (no test_ prefix) and uses only the standard library and
pytest.  The expected lines of a module are the co_lines() of every code
object compiled from its source, the module body included, so it must be
imported under the tracer: nothing here imports cellspec first.  Code run
only in a subprocess (the CLI tests that spawn an interpreter) reads as
unrun.  Tracing makes the suite several times slower.

It is a gate: an unrun line passes only if ALLOWED names it, by file and
stripped text, with the reason it cannot run.  The exit status is 1 when
pytest fails, when any other line is unrun, or when an ALLOWED entry
matches no unrun line (the line ran, changed or went); else 0.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "cellspec"

# (file name, stripped line text) -> why the line may stay unrun
ALLOWED = {
    ("dihedral.py", 'raise AssertionError("negative structure constant")'):
        "theorem check: the fold of the product rule is never negative",
    ("staircase.py", "raise RuntimeError("):
        "theorem check: every connected 0-1 matrix with Gram spectrum in [0, 4) "
        "has a class",
    ("staircase.py",
     '"matrix passes all spectral tests but matches no known class; "'):
        "the same theorem check's message",
    ("cli.py", "except BrokenPipeError:  # the reader closed stdout: "
               "exit as SIGPIPE would"):
        "runs only when a reader closes stdout, tested on a spawned interpreter",
    ("cli.py", "os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())"):
        "the closed-stdout handler, tested on a spawned interpreter",
    ("cli.py", "return 141"):
        "the closed-stdout handler's exit status, tested on a spawned interpreter",
    ("cli.py", "sys.exit(main())"):
        "runs only under python -m cellspec.cli, tested on a spawned interpreter",
}


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
    total, unexpected, matched = 0, 0, set()
    for path in sorted(PACKAGE.glob("*.py")):
        unrun = sorted(expected_lines(path) - hit.get(os.path.realpath(path), set()))
        total += len(unrun)
        if unrun:
            print(f"{path.relative_to(ROOT)}: {len(unrun)} unrun: {spans(unrun)}")
        text = path.read_text(encoding="utf-8").splitlines()
        for line in unrun:
            key = (path.name, text[line - 1].strip())
            if key in ALLOWED:
                matched.add(key)
                print(f"  {line}: allowed, {ALLOWED[key]}")
            else:
                unexpected += 1
                print(f"  {line}: NOT ALLOWED: {key[1]}")
    stale = [key for key in ALLOWED if key not in matched]
    for name, line in stale:
        print(f"allow-list entry matches no unrun line: {name}: {line}")
    print(f"unrun lines in src/cellspec: {total} ({unexpected} not allowed)")
    if status != 0:
        print(f"pytest exited with status {status}")
    return 1 if status or unexpected or stale else 0


if __name__ == "__main__":
    sys.exit(main())
