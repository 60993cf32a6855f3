"""Tests for the seeded theorem sweep in scripts/."""

import dataclasses
import runpy
from pathlib import Path

from domw import solve_split
from domw.instances_io import KINDS

SWEEP = Path(__file__).resolve().parents[1] / "scripts" / "sweep_theorems.py"


def test_sweep_theorems_runs_clean_on_twenty_seeds(capsys):
    sweep = runpy.run_path(str(SWEEP))
    assert sweep["main"](["--seeds", "20"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4
    assert all("20 instances, 0 mismatches" in line for line in lines)


def test_sweep_counts_a_dependent_split_witness(capsys, monkeypatch):
    """Value and function stay right, so only the witness check can object."""

    def dependent_witness(inst):
        result = solve_split(inst)
        b = min(inst.independent)
        a = min(inst.graph.adjacency[b])
        return dataclasses.replace(result, witness_independent=frozenset({a, b}))

    monkeypatch.setattr(KINDS["split"], "solve", dependent_witness)
    sweep = runpy.run_path(str(SWEEP))
    assert sweep["main"](["--seeds", "10", "--classes", "interval", "split"]) == 1
    captured = capsys.readouterr()
    assert captured.out.splitlines()[0].startswith("interval     10 instances, 0 mismatches")
    assert captured.out.splitlines()[1].startswith("split        10 instances, 10 mismatches")
    assert captured.err.count("MISMATCH split seed") == 10
