"""Line audit: run the tier-1 suite under a line tracer and fail on any line
of src/domw that it never runs.

    python tools/line_audit.py

The executable lines of each module are the line starts
(`dis.findlinestarts`) of every code object compiled from its source.
`sys.settrace` records which of them run while `pytest.main` runs the suite
in this process (the suite runs no `domw` code in a thread); a code object
is no longer traced once all of its lines have run, which keeps the traced
run to a few times the untraced one.  Each executable line that never runs
is a fault, printed as `path:line: never run: <text>`.  Exit code: pytest's,
when the suite fails; else 1 when there are faults, 0 when there are none.
"""

from __future__ import annotations

import dis
import sys
from pathlib import Path
from types import CodeType

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "domw"


def _code_objects(code: CodeType):
    yield code
    for const in code.co_consts:
        if isinstance(const, CodeType):
            yield from _code_objects(const)


def _line_starts(code: CodeType) -> set[int]:
    # line 0 is the module's own resume, before its first line
    return {line for _, line in dis.findlinestarts(code) if line}


def executable_lines(path: Path) -> set[int]:
    """Every line that starts an instruction of some code object of the module."""
    code = compile(path.read_text(), str(path), "exec")
    return set().union(*map(_line_starts, _code_objects(code)))


class LineTracer:
    """Records, per file of the package, the lines that run."""

    def __init__(self, files: set[str]) -> None:
        self.files = files
        self.todo: dict[CodeType, set[int]] = {}  # lines of a traced code object not yet run
        self.skip: set[CodeType] = set()  # outside the package, or every line already run

    def call(self, frame, event, arg):
        code = frame.f_code
        if code in self.skip:
            return None
        todo = self.todo.get(code)
        if todo is None:
            if code.co_filename not in self.files:
                self.skip.add(code)
                return None
            todo = self.todo[code] = _line_starts(code)
        todo.discard(frame.f_lineno)
        return self.line

    def line(self, frame, event, arg):
        if event == "line":
            todo = self.todo[frame.f_code]
            todo.discard(frame.f_lineno)
            if not todo:
                self.skip.add(frame.f_code)
                return None
        return self.line

    def run_lines(self) -> dict[str, set[int]]:
        """File -> the lines that ran in some traced code object."""
        ran: dict[str, set[int]] = {name: set() for name in self.files}
        for code, todo in self.todo.items():
            ran[code.co_filename] |= _line_starts(code) - todo
        return ran


def audit(ran: dict[str, set[int]], root: Path) -> list[str]:
    """One fault per executable line that never ran, as `path:line: never
    run: <text>` with the path relative to `root`.  `ran` maps each audited
    file to its lines that ran."""
    faults = []
    for name in sorted(ran):
        path = Path(name)
        text = path.read_text().splitlines()
        relative = path.relative_to(root).as_posix()
        for line in sorted(executable_lines(path) - ran[name]):
            faults.append(f"{relative}:{line}: never run: {text[line - 1].strip()}")
    return faults


def main() -> int:
    # domw is first imported under the tracer, so its module-level lines count
    sys.path.insert(0, str(PACKAGE.parent))
    tracer = LineTracer({str(path) for path in sorted(PACKAGE.glob("*.py"))})
    sys.settrace(tracer.call)
    try:
        code = pytest.main([str(ROOT / "tests"), "-q", "--continue-on-collection-errors"])
    finally:
        sys.settrace(None)
    if code:
        return int(code)
    faults = audit(tracer.run_lines(), ROOT)
    for fault in faults:
        print(fault)
    executable = sum(len(executable_lines(Path(name))) for name in tracer.files)
    print(f"line audit: {executable} executable lines in {PACKAGE.relative_to(ROOT)}, {len(faults)} faults")
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main())
