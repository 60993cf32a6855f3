"""Write split_values.json: the split-search values for the pinned seed.

run.py compares every split-search answer on that seed with these values.
Regenerate only when the instance stream changes on purpose, from a commit
whose solver is trusted:

    python3 perfbench/pin_split_values.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import domw  # noqa: E402
from workloads import SEED_STRIDE, WORKLOADS  # noqa: E402

NAME, SEED = "split-search", 0


def main() -> None:
    workload = WORKLOADS[NAME]
    values = [
        domw.solve_split(workload.make(SEED * SEED_STRIDE + i).payload).value
        for i in range(workload.count)
    ]
    out = {"workload": NAME, "seed": SEED, "values": values}
    (HERE / "split_values.json").write_text(json.dumps(out) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
