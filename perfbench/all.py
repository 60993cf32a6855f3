"""Run every workload once and print its metrics side by side.

    python3 perfbench/all.py --seed 0 --seconds 20 --trace 0

Each workload runs in its own process through run.py, so peak memory is per
workload.  Exits 1 when any run fails or reports an incorrect output.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from workloads import WORKLOADS  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    results = {}
    ok = True
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, check=False,
        )
        if done.returncode != 0:
            print(f"{name}: exit code {done.returncode}\n{done.stderr}", file=sys.stderr)
            ok = False
            continue
        results[name] = json.loads(done.stdout.splitlines()[-1])
        ok = ok and results[name]["correct"]
    if not results:
        return 1
    names = list(results)
    metrics = next(iter(results.values()))["metrics"]
    width = max(len(m) for m in metrics) + 2
    print("metric".ljust(width) + "unit".ljust(8) + "".join(n.rjust(17) for n in names))
    for row in ("attempted", "failed"):
        print(row.ljust(width + 8) + "".join(str(results[n][row]).rjust(17) for n in names))
    for metric, spec in metrics.items():
        cells = "".join(f"{results[n]['metrics'][metric]['value']:.6g}".rjust(17) for n in names)
        print(metric.ljust(width) + spec["unit"].ljust(8) + cells)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
