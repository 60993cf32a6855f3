"""Closed-loop benchmark of `domw solve` on seeded instance families.

One client in one thread solves a fixed list of seeded instances, pass after
pass, until ``--seconds`` have been measured and every instance has been
solved at least once.  Each solve goes through the real user path,
``domw.cli.run(["solve", FILE])``, in process, with standard output captured
to memory; the instance files are written during set-up.  Every output is
checked for correctness after the timed loop.

Times are in reference seconds.  The shared hosts this benchmark was sized on
switch between a fast and a slow state (1.4-1.6x apart) for seconds to minutes
at a time, which moved per-run medians of raw wall times by 20-40%.  So a fixed
pure-Python loop runs between timed calls, and each call's wall time is
multiplied by REFERENCE_S / (the loop's wall time), averaged over the loops
just before and after it: the time the call would take on a host where the
loop takes REFERENCE_S, which is this loop on a 2-core x86 container in its
fast state.  The raw wall times and the host's measured slowdown are printed
in the summary lines.

An instance's time is the median over passes; quantiles are over instances.

With ``--trace 1`` each instance is also solved by the traced re-composition
in ``layers.py``, alternating with the untraced call, and the per-layer
medians are reported instead of the end-to-end metrics.

Run from the repository root:

    python3 perfbench/run.py --workload tree-edges --seed 0 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Metric names, units
and the layer each per-layer metric belongs to are listed in ``metrics.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
SRC = REPO / "src"
WORK_ROOT = REPO / ".perfbench-work"
METRICS = json.loads((HERE / "metrics.json").read_text(encoding="utf-8"))
PINNED = json.loads((HERE / "split_values.json").read_text(encoding="utf-8"))

# The split cover search has no budget; one instance may take at most this.
DEADLINE_S = 10.0
# Measuring stops here whatever --seconds says, so a run ends within 180 s.
HARD_STOP_S = 100.0
SETUP_REPEATS = 3
SETUP_CHUNK = 20  # instances generated per reference measurement
REFERENCE_S = 0.0005


class DeadlineExpired(Exception):
    pass


def _expire(signum, frame):
    raise DeadlineExpired


def _scale() -> float:
    """REFERENCE_S over the wall time of a fixed loop, run now.

    The loop does what the solvers do most: dict and set updates on small
    integers.  It uses nothing from domw, so no change to the package moves it.
    """
    start = time.perf_counter()
    counts: dict[int, int] = {}
    seen = set()
    for i in range(3000):
        counts[i % 97] = counts.get(i % 97, 0) + i
        seen.add(i * 7 % 1009)
    return REFERENCE_S / (time.perf_counter() - start)


@dataclass
class Record:
    """What the timed loop saw, kept for the checks and the metrics."""

    times: dict[int, list[float]] = field(default_factory=dict)  # scaled, per instance
    raw: list[float] = field(default_factory=list)  # wall seconds of the same solves
    scales: list[float] = field(default_factory=list)
    outputs: dict[int, str] = field(default_factory=dict)  # first output per instance
    solves_of: dict[int, int] = field(default_factory=dict)  # solves that printed it
    errors: list[str] = field(default_factory=list)
    attempted: int = 0
    layer_samples: list[dict[str, float]] = field(default_factory=list)
    traced_total: float = 0.0
    untraced_total: float = 0.0


@contextlib.contextmanager
def _deadline():
    """Raise DeadlineExpired in the block once DEADLINE_S have passed."""
    signal.setitimer(signal.ITIMER_REAL, DEADLINE_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def _solve(cli, path: str) -> tuple[float, str]:
    """Time one `domw solve` call; raises on failure or an expired deadline."""
    out, err = io.StringIO(), io.StringIO()
    with _deadline(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        code = cli.run(["solve", path])
        elapsed = time.perf_counter() - start
    if code != 0:
        raise RuntimeError(f"exit code {code}: {err.getvalue().strip()}")
    return elapsed, out.getvalue()


def _run_untraced(cli, rec: Record, i: int, path: str, before: float) -> float:
    """Time one solve; its scale is the mean of the references around it.

    ``before`` is the scale measured just before; the one measured just after
    is returned, to serve as the next call's ``before``.
    """
    rec.attempted += 1
    try:
        elapsed, output = _solve(cli, path)
    except Exception as exc:  # the loop goes on; the failure is counted
        rec.errors.append(f"instance {i}: {type(exc).__name__}: {exc}")
        return _scale()
    after = _scale()
    scale = (before + after) / 2
    rec.times.setdefault(i, []).append(elapsed * scale)
    rec.raw.append(elapsed)
    rec.scales.append(scale)
    rec.untraced_total += elapsed * scale
    _keep_output(rec, i, output, "solve")
    return after


def _run_traced(layers, rec: Record, i: int, path: str, before: float) -> float:
    """As _run_untraced, through the traced re-composition."""
    rec.attempted += 1
    try:
        with _deadline():
            output, self_times, counts, total = layers.traced_solve(path)
    except Exception as exc:  # counted, like an untraced failure
        rec.errors.append(f"instance {i} traced: {type(exc).__name__}: {exc}")
        return _scale()
    after = _scale()
    scale = (before + after) / 2
    rec.traced_total += total * scale
    rec.layer_samples.append({**{k: v * scale for k, v in self_times.items()}, **counts})
    _keep_output(rec, i, output, "traced")
    return after


def _keep_output(rec: Record, i: int, output: str, how: str) -> None:
    first = rec.outputs.setdefault(i, output)
    if output != first:
        rec.errors.append(f"instance {i}: {how} output differs from the first output")
    else:
        rec.solves_of[i] = rec.solves_of.get(i, 0) + 1


def _measure(paths: list[str], seconds: float, trace: bool) -> Record:
    cli = importlib.import_module("domw.cli")
    layers = importlib.import_module("layers")
    rec = Record()
    start = time.perf_counter()
    previous = signal.signal(signal.SIGALRM, _expire)
    try:
        n_pass = 0
        scale = _scale()
        while True:
            for i, path in enumerate(paths):
                elapsed = time.perf_counter() - start
                if elapsed > HARD_STOP_S or (n_pass and elapsed >= seconds):
                    return rec
                # alternate which of the pair runs first, so neither always
                # finds the instance file freshly read
                if trace and (n_pass + i) % 2:
                    scale = _run_traced(layers, rec, i, path, scale)
                scale = _run_untraced(cli, rec, i, path, scale)
                if trace and not (n_pass + i) % 2:
                    scale = _run_traced(layers, rec, i, path, scale)
            n_pass += 1
    finally:
        signal.signal(signal.SIGALRM, previous)


def _check(rec: Record, texts: list[str], pinned: list[int] | None) -> None:
    check = importlib.import_module("check")
    for i, output in sorted(rec.outputs.items()):
        value = pinned[i] if pinned is not None and i < len(pinned) else None
        try:
            reason = check.output_error(texts[i], output, value)
        except ValueError as exc:
            reason = f"unreadable output: {exc}"
        if reason is not None:
            # every solve that printed this output printed a wrong answer
            rec.errors.extend([f"instance {i}: {reason}"] * rec.solves_of[i])


def _setup(workload, seed: int, count: int, work: Path) -> tuple[list[str], list[str], float]:
    """Generate and write the instance files; returns texts, paths, scaled seconds."""
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    texts, paths, took = [], [], 0.0
    for first in range(0, count, SETUP_CHUNK):
        scale = _scale()
        start = time.perf_counter()
        for i in range(first, min(first + SETUP_CHUNK, count)):
            text = workload.instance_text(seed, i)
            path = work / f"{i:05d}.txt"
            path.write_text(text, encoding="ascii")
            texts.append(text)
            paths.append(str(path))
        took += (time.perf_counter() - start) * scale
    return texts, paths, took


def _quantile(values: list[float], q: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _metric_values(rec: Record, setup_s: float, failed: int, trace: bool) -> dict[str, float]:
    if not trace:
        per_instance = [statistics.median(ts) for ts in rec.times.values()]
        return {
            "solve_s_p50": _quantile(per_instance, 50),
            "solve_s_p90": _quantile(per_instance, 90),
            "instances_per_s": len(per_instance) / sum(per_instance) if per_instance else 0.0,
            "setup_s": setup_s,
            "solved_frac": 1.0 - failed / rec.attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    values = {}
    for spec in METRICS["per_layer"]:
        name = spec["name"]
        key = name[:-2] if spec["unit"] == "s" else name
        samples = [sample.get(key, 0) for sample in rec.layer_samples]
        values[name] = statistics.median(samples) if samples else 0.0
    values["trace.overhead_frac"] = (
        rec.traced_total / rec.untraced_total - 1.0 if rec.untraced_total else 0.0
    )
    return values


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        count: int | None = None) -> tuple[dict, list[str]]:
    """One benchmark run; returns the result object and summary lines.

    ``count`` shortens the instance list, for smoke tests.
    """
    scale = _scale()
    start = time.perf_counter()
    importlib.import_module("domw.cli")
    import_s = (time.perf_counter() - start) * scale
    workloads = importlib.import_module("workloads").WORKLOADS
    if workload_name not in workloads:
        raise ValueError(f"unknown workload {workload_name!r}; choose from {', '.join(workloads)}")
    workload = workloads[workload_name]
    work = WORK_ROOT / f"{workload_name}-{seed}-{os.getpid()}"
    try:
        times = []
        for _ in range(SETUP_REPEATS):
            texts, paths, took = _setup(workload, seed, count or workload.count, work)
            times.append(took)
        setup_s = import_s + statistics.median(times)
        rec = _measure(paths, seconds, trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()
    pinned = None
    if workload_name == PINNED["workload"] and seed == PINNED["seed"]:
        pinned = PINNED["values"]
    _check(rec, texts, pinned)
    failed = len(rec.errors)
    values = _metric_values(rec, setup_s, failed, trace)
    kind = "per_layer" if trace else "end_to_end"
    units = {spec["name"]: spec["unit"] for spec in METRICS[kind]}
    result = {
        "correct": failed == 0,
        "attempted": rec.attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    lines = [f"# {message}" for message in rec.errors[:20]]
    lines.append(
        f"workload {workload_name} seed {seed} trace {int(trace)}: "
        f"{rec.attempted} solves attempted, {failed} failed, "
        f"{len(rec.raw)} timed solves of {len(rec.times)} of {len(paths)} instances"
    )
    if rec.raw:
        lines.append(
            f"raw wall time per solve: p50 {_quantile(rec.raw, 50):.6g} s, "
            f"p90 {_quantile(rec.raw, 90):.6g} s; host slowdown against the "
            f"reference: median {1 / statistics.median(rec.scales):.4g}x"
        )
    lines.extend(f"{name} {values[name]:.6g} {unit}" for name, unit in units.items())
    return result, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (SRC / "domw" / "__init__.py").is_file():
        print(f"error: no domw package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        result, lines = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
