"""The line audit's verdicts (tools/line_audit.py) on a small module with a
chosen set of run lines, including each way an allowlist can be wrong."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "line_audit.py"
_spec = importlib.util.spec_from_file_location("line_audit", TOOL)
line_audit = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(line_audit)

MODULE = '''\
def f(x):
    if x:
        return None
    return None


def g():
    raise ValueError("no")
'''


@pytest.fixture
def module(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(MODULE)
    return path


def _faults(module, unrun, allowed):
    ran = {str(module): line_audit.executable_lines(module) - set(unrun)}
    return line_audit.audit(ran, allowed, module.parent)


def _entry(source, **fields):
    return {"file": "mod.py", "source": source, "reason": "why", **fields}


def test_unlisted_unrun_lines_are_faults(module):
    assert _faults(module, {3, 4, 8}, []) == [
        "mod.py:3: never run: return None",
        "mod.py:4: never run: return None",
        'mod.py:8: never run: raise ValueError("no")',
    ]
    assert _faults(module, set(), []) == []


def test_an_entry_covers_only_its_count_of_lines_with_its_text(module):
    assert _faults(module, {3, 4}, [_entry("return None")]) == ["mod.py:4: never run: return None"]
    assert _faults(module, {3, 4}, [_entry("return None", count=2)]) == []


def test_a_listed_line_that_runs_or_is_gone_is_a_fault(module):
    raise_line = 'raise ValueError("no")'
    assert _faults(module, set(), [_entry(raise_line)]) == [f"mod.py: listed 1 but 0 unrun: {raise_line}"]
    assert _faults(module, {3}, [_entry("return None", count=2)]) == [
        "mod.py: listed 2 but 1 unrun: return None"
    ]
    assert _faults(module, set(), [_entry("gone()")]) == ["mod.py: listed 1 but 0 unrun: gone()"]


def test_an_entry_without_a_reason_is_a_fault(module):
    entry = {"file": "mod.py", "source": "return None"}
    assert _faults(module, {3}, [entry]) == [f"allowlist entry without a reason: {entry}"]
