"""Smoke test for the seeded theorem sweep in scripts/."""

import runpy
from pathlib import Path

SWEEP = Path(__file__).resolve().parents[1] / "scripts" / "sweep_theorems.py"


def test_sweep_theorems_runs_clean_on_twenty_seeds(capsys):
    sweep = runpy.run_path(str(SWEEP))
    assert sweep["main"](["--seeds", "20"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4
    assert all("20 instances, 0 mismatches" in line for line in lines)
