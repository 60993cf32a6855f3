"""Line audit: run the tier-1 suite under a line tracer and fail on any line
of src/domw that it never runs.

    python tools/line_audit.py

The executable lines of each module are the line starts
(`dis.findlinestarts`) of every code object compiled from its source.  `sys.settrace` and `threading.settrace` record which of
them run while `pytest.main` runs the suite in this process; a code object is
no longer traced once all of its lines have run, which keeps the traced run
to a few times the untraced one.

`tools/line_audit_allow.json` lists the lines that may stay unrun, each as
{"file", "source", "reason"} and an optional "count": the file relative to
the repository, the line's text without its indentation, why no test runs
it, and how many unrun lines of that file have that text (1 if left out).
The audit fails on unrun lines beyond the count listed for their text, on
a listed text with fewer unrun lines than its count (one now runs or is
gone), and on an entry without a reason, so the list can only shrink.
Exit code: pytest's, when the suite fails; else 1 when the audit fails, 0
when it passes.
"""

from __future__ import annotations

import dis
import json
import sys
import threading
from collections import Counter
from pathlib import Path
from types import CodeType

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "domw"
ALLOWLIST = Path(__file__).resolve().parent / "line_audit_allow.json"


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


def audit(ran: dict[str, set[int]], allowed: list[dict], root: Path) -> list[str]:
    """The audit's faults: unrun lines beyond their listed count, listed lines
    that run or are gone, entries without a reason.  `ran` maps each audited
    file to its lines that ran; allowlist files are relative to `root`."""
    faults = [f"allowlist entry without a reason: {entry}" for entry in allowed if not entry.get("reason")]
    listed: Counter[tuple[str, str]] = Counter()
    for entry in allowed:
        listed[entry["file"], entry["source"]] += entry.get("count", 1)
    unrun: Counter[tuple[str, str]] = Counter()
    for name in sorted(ran):
        path = Path(name)
        text = path.read_text().splitlines()
        relative = path.relative_to(root).as_posix()
        for line in sorted(executable_lines(path) - ran[name]):
            key = (relative, text[line - 1].strip())
            unrun[key] += 1
            if unrun[key] > listed[key]:
                faults.append(f"{relative}:{line}: never run: {key[1]}")
    faults += [
        f"{file}: listed {listed[file, source]} but {unrun[file, source]} unrun: {source}"
        for file, source in sorted(listed)
        if unrun[file, source] < listed[file, source]
    ]
    return faults


def main() -> int:
    # domw is first imported under the tracer, so its module-level lines count
    sys.path.insert(0, str(PACKAGE.parent))
    tracer = LineTracer({str(path) for path in sorted(PACKAGE.glob("*.py"))})
    threading.settrace(tracer.call)
    sys.settrace(tracer.call)
    try:
        code = pytest.main([str(ROOT / "tests"), "-q", "--continue-on-collection-errors"])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    if code:
        return int(code)
    faults = audit(tracer.run_lines(), json.loads(ALLOWLIST.read_text()), ROOT)
    for fault in faults:
        print(fault)
    executable = sum(len(executable_lines(Path(name))) for name in tracer.files)
    print(f"line audit: {executable} executable lines in {PACKAGE.relative_to(ROOT)}, {len(faults)} faults")
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main())
