"""The line audit's verdicts (tools/line_audit.py) on a small module with a
chosen set of run lines: one fault per executable line that never ran."""

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


def _faults(module, unrun):
    ran = {str(module): line_audit.executable_lines(module) - set(unrun)}
    return line_audit.audit(ran, module.parent)


def test_each_unrun_line_is_a_fault_even_when_its_text_repeats(module):
    assert _faults(module, {3, 4, 8}) == [
        "mod.py:3: never run: return None",
        "mod.py:4: never run: return None",
        'mod.py:8: never run: raise ValueError("no")',
    ]
    assert _faults(module, set()) == []
