#!/usr/bin/env python3
"""Seeded sweeps running `domw check`'s invariants over each graph class.

For each class this checks a run of seeded random instances with
`domw.cli.check_instance`: the solver result against its own checks and the
brute-force oracles, the sandwich rho_w <= gamma_i_w <= gamma_w, and LP
duality.  It counts the instances that fail any invariant and reports
statistics of the gap gamma_w - gamma*.

    python3 scripts/sweep_theorems.py --seeds 200
    python3 scripts/sweep_theorems.py --classes interval split
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from domw import (
    InstanceFile,
    SubtreeInstance,
    TreeEdgesInstance,
    gen_interval,
    gen_split,
    gen_subtrees,
    gen_tree,
)
from domw.cli import check_instance

# Seed -> instance per class.  Every instance has at most 9 vertices, inside
# the oracles' default cap of 10, so every check runs the oracles.
CLASSES = {
    "interval": lambda s: InstanceFile("interval", gen_interval(s, 1 + s % 8, 12, 5)),
    "tree": lambda s: InstanceFile("tree-edges", TreeEdgesInstance(*gen_tree(s, 1 + s % 9, 5))),
    "split": lambda s: InstanceFile("split", gen_split(s, 1 + s % 4, 1 + (s // 4) % 5, 60, 5)),
    "subtree": lambda s: InstanceFile(
        "subtree-intersection", SubtreeInstance(*gen_subtrees(s, 3 + s % 6, 1 + s % 9, 5))
    ),
}


def run_sweep(name: str, seeds: int) -> tuple[int, str]:
    """Check `seeds` instances of one class; return the mismatch count and a summary line."""
    mismatches, gaps = 0, []
    for seed in range(seeds):
        report = check_instance(CLASSES[name](seed))
        gaps.append(report.gamma - report.gamma_star)
        if not report.ok:
            mismatches += 1
            print(f"MISMATCH {name} seed {seed}", file=sys.stderr)
    line = f"{name:<9} {seeds:>5} instances, {mismatches} mismatches"
    if gaps:
        worst = max(gaps)
        mean = sum(gaps, Fraction(0)) / len(gaps)
        line += (
            f"; gamma - gamma*: max {worst} ({float(worst):.3f}),"
            f" mean {float(mean):.3f}, integral on {gaps.count(0)}/{len(gaps)}"
        )
    return mismatches, line


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=200, help="instances per class")
    parser.add_argument("--classes", nargs="+", choices=tuple(CLASSES), default=list(CLASSES))
    args = parser.parse_args(argv)
    failed = 0
    for name in args.classes:
        mismatches, line = run_sweep(name, args.seeds)
        print(line)
        failed += mismatches
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
