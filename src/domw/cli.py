"""Command line driver: solve, oracle, check, example, gen, sweep, verify, matrix.

Machine-readable payloads go to standard output, diagnostics to standard
error.  Exit codes: 0 success, 1 invalid input, failed verification or a
sweep mismatch, 2 internal assertion failure (a disproved theorem or an LP
duality gap), 3 instance too large for the requested oracle or over a
search's node budget.
When `solve` exits 2, it also keeps the instance text it read in the temp
directory, in a file named by the text's SHA-256, and names that file on
standard error.
`verify` and `check` read interval and tree-edge results through `domw.checkers`: no graph is built.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import tempfile
from fractions import Fraction
from typing import NamedTuple, Sequence

from .errors import InstanceTooLarge, LPInternalError, TheoremViolation
from .graph_core import verify_certificate
from .instances_io import (
    CERT_HEADER,
    KINDS,
    Checks,
    InstanceFile,
    SubtreeInstance,
    TreeEdgesInstance,
    example_forked_star,
    example_nontu_intervals,
    example_nontu_star,
    example_split_triangle,
    gen_interval,
    gen_split,
    gen_subtrees,
    gen_tree,
    instance_graph,
    parse_instance,
    parse_result,
    write_instance,
)
from .interval_solver import order_by_right_endpoint
from .oracles import (
    DEFAULT_CAP,
    brute_gamma,
    brute_gamma_i,
    brute_rho,
    det,
    has_consecutive_ones,
    neighborhood_matrix,
    solve_fractional,
)


# Each built-in instance and each generated kind is named once, here: the
# parser takes its choices from these tables' keys.
_EXAMPLES = {
    "forked-star": lambda: InstanceFile(
        "subtree-intersection", SubtreeInstance(*example_forked_star())
    ),
    "split-triangle": lambda: InstanceFile("split", example_split_triangle()),
    "non-tu-intervals": lambda: InstanceFile("interval", example_nontu_intervals()),
    "non-tu-star": lambda: InstanceFile("tree-edges", TreeEdgesInstance(*example_nontu_star())),
}

_GENERATORS = {
    "interval": lambda a: gen_interval(a.seed, a.n, a.max_coord, a.max_w),
    "tree-edges": lambda a: TreeEdgesInstance(*gen_tree(a.seed, a.n_edges, a.max_w)),
    "split": lambda a: gen_split(a.seed, a.n_a, a.n_b, a.edge_prob, a.max_w),
    "subtree-intersection": lambda a: SubtreeInstance(
        *gen_subtrees(a.seed, a.n_tree, a.n_subtrees, a.max_w)
    ),
}

# Each sweep class is a generated kind and its `gen` options as a function of
# the seed, with max_w = 5 throughout.  Every instance has at most 9 vertices,
# inside the oracles' default cap of 10, so every check runs the oracles.
_SWEEPS = {
    "interval": ("interval", lambda s: dict(n=1 + s % 8, max_coord=12)),
    "tree": ("tree-edges", lambda s: dict(n_edges=1 + s % 9)),
    "split": ("split", lambda s: dict(n_a=1 + s % 4, n_b=1 + (s // 4) % 5, edge_prob=60)),
    "subtree": ("subtree-intersection", lambda s: dict(n_tree=3 + s % 6, n_subtrees=1 + s % 9)),
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="domw",
        description="Exact weighted domination and dispersion on interval, "
        "tree-edge, and split instances, with brute-force and LP oracles.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="solve an instance and print a certificate")
    solve.add_argument("file")

    oracle = sub.add_parser("oracle", help="print a brute-force or LP optimum with witness")
    oracle.add_argument("which", choices=("gamma", "rho", "gammai", "frac"))
    oracle.add_argument("file")
    oracle.add_argument("--cap", type=int, default=10, help="largest vertex count accepted")

    check = sub.add_parser("check", help="run solver and oracles, print PASS/FAIL per invariant")
    check.add_argument("file")
    check.add_argument("--cap", type=int, default=10)

    example = sub.add_parser("example", help="write a built-in instance to standard output")
    example.add_argument("name", choices=tuple(_EXAMPLES))

    gen = sub.add_parser("gen", help="write a seeded random instance to standard output")
    gen.add_argument("kind", choices=tuple(_GENERATORS))
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--max-w", type=int, default=5)
    gen.add_argument("--n", type=int, default=6, help="intervals (interval kind)")
    gen.add_argument("--max-coord", type=int, default=12, help="endpoint bound (interval kind)")
    gen.add_argument("--n-edges", type=int, default=6, help="host edges (tree-edges kind)")
    gen.add_argument("--n-a", type=int, default=3, help="clique size (split kind)")
    gen.add_argument("--n-b", type=int, default=4, help="independent size (split kind)")
    gen.add_argument("--edge-prob", type=int, default=60, help="percent (split kind)")
    gen.add_argument("--n-tree", type=int, default=6, help="host vertices (subtree kind)")
    gen.add_argument("--n-subtrees", type=int, default=5)

    sweep = sub.add_parser("sweep", help="check seeded instances of each class against the oracles")
    sweep.add_argument("--seeds", type=int, default=200, help="instances per class")
    sweep.add_argument("--classes", nargs="+", choices=tuple(_SWEEPS), default=list(_SWEEPS))

    verify = sub.add_parser("verify", help="re-check a solver result against an instance")
    verify.add_argument("instance")
    verify.add_argument("certificate")

    matrix = sub.add_parser("matrix", help="print the closed-neighborhood matrix")
    matrix.add_argument("file")
    matrix.add_argument("--det", action="store_true", help="also print the determinant")
    matrix.add_argument("--c1p", action="store_true", help="also print the consecutive-ones flag")
    return p


def _read(path: str) -> str:
    with open(path, "r", encoding="ascii") as handle:
        return handle.read()


def _internal_error(exc: Exception) -> int:
    print(f"internal error: {exc}", file=sys.stderr)
    return 2


def _keep_for_replay(text: str) -> str:
    """Write an instance text to the temp directory; return where, or why not."""
    # imported on this failure path only: hashlib loads OpenSSL, which adds
    # about 3.6 MB to the peak RSS of every `domw` process that imports it
    import hashlib

    digest = hashlib.sha256(text.encode("ascii")).hexdigest()
    path = os.path.join(tempfile.gettempdir(), f"domw-replay-{digest}.domw")
    try:
        with open(path, "w", encoding="ascii", newline="") as handle:
            handle.write(text)
    except OSError as exc:
        return f"not written ({exc})"
    return path


def _cmd_solve(args: argparse.Namespace) -> int:
    text = _read(args.file)
    inst = parse_instance(text)
    kind = KINDS[inst.kind]
    if kind.solve is None:
        print(
            f"no exact solver covers kind {inst.kind!r}; "
            "use `domw oracle <gamma|rho|gammai|frac>`",
            file=sys.stderr,
        )
        return 1
    try:
        output = kind.write_result(kind.solve(inst.payload))
    except (TheoremViolation, LPInternalError) as exc:
        code = _internal_error(exc)
        print(f"replay file: {_keep_for_replay(text)}", file=sys.stderr)
        return code
    print(output, end="")
    return 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    g = instance_graph(parse_instance(_read(args.file)))
    if args.which == "gamma":
        value, f = brute_gamma(g, args.cap)
        print(f"value {value}")
        for v, x in f.items():
            print(f"f {v} {x}")
    elif args.which == "rho":
        value, chosen = brute_rho(g, args.cap)
        print(f"value {value}")
        print(("I " + " ".join(str(v) for v in sorted(chosen))).rstrip())
    elif args.which == "gammai":
        value, witness, f = brute_gamma_i(g, args.cap)
        print(f"value {value}")
        print(("I " + " ".join(str(v) for v in sorted(witness))).rstrip())
        for v, x in f.items():
            print(f"f {v} {x}")
    else:
        sol = solve_fractional(g, args.cap)
        print(f"gamma_star {sol.gamma_star}")
        print(f"rho_star {sol.rho_star}")
        for v in sorted(sol.dual):
            if sol.dual[v]:
                print(f"f {v} {sol.dual[v]}")
        for v in sorted(sol.primal):
            if sol.primal[v]:
                print(f"g {v} {sol.primal[v]}")
    return 0


class CheckReport(NamedTuple):
    """What `domw check` found on one instance.

    `lines` pairs each invariant with whether it holds, in print order.
    `skip` says why the oracle comparisons did not run; when they did,
    `gamma` is the brute-force gamma_w and `gamma_star` the LP optimum.
    """

    lines: Checks
    skip: str | None = None
    gamma: int | None = None
    gamma_star: Fraction | None = None

    @property
    def ok(self) -> bool:
        return all(ok for _, ok in self.lines)


def check_instance(inst: InstanceFile, cap: int = DEFAULT_CAP) -> CheckReport:
    """Every invariant `domw check` tests: the solver result against its kind's
    checks and, up to `cap` vertices, against the brute-force oracles and the LP."""
    kind = KINDS[inst.kind]
    lines: Checks = []
    value = None
    if kind.solve is not None:
        # check the text `domw solve` prints, read back as `domw verify` reads it
        text = kind.write_result(kind.solve(inst.payload))
        _, block = parse_result(text, (kind.result_header,))
        value = block.value
        lines += [(f"solver {name}", ok) for name, ok in kind.check_result(inst.payload, block)]
    n = kind.vertex_count(inst.payload)
    if n > cap:
        return CheckReport(lines, skip=f"{n} vertices exceed the cap of {cap}")
    g = kind.graph(inst.payload)
    gamma, _ = brute_gamma(g, cap)
    rho, _ = brute_rho(g, cap)
    gamma_i, _, _ = brute_gamma_i(g, cap)
    oracle = {"gamma_w": gamma, "rho_w": rho, "gamma_i_w": gamma_i}
    lines.append(("sandwich rho <= gamma_i <= gamma", rho <= gamma_i <= gamma))
    lines += [(f"solver value equals {name}", value == oracle[name]) for name in kind.equals]
    lines += [(f"{name} at most solver value", oracle[name] <= value) for name in kind.at_most]
    sol = solve_fractional(g, cap)
    lines += [
        ("fractional duality gamma* = rho*", sol.gamma_star == sol.rho_star),
        ("gamma* at most gamma_w", sol.gamma_star <= gamma),
        ("rho* at least rho_w", sol.rho_star >= rho),
    ]
    return CheckReport(lines, gamma=gamma, gamma_star=sol.gamma_star)


def _cmd_check(args: argparse.Namespace) -> int:
    report = check_instance(parse_instance(_read(args.file)), args.cap)
    for name, ok in report.lines:
        print(f"{'PASS' if ok else 'FAIL'} {name}")
    if report.skip:
        print(f"SKIP oracle comparisons ({report.skip})")
    return 0 if report.ok else 1


def _cmd_example(args: argparse.Namespace) -> int:
    print(write_instance(_EXAMPLES[args.name]()), end="")
    return 0


def _cmd_gen(args: argparse.Namespace) -> int:
    payload = _GENERATORS[args.kind](args)
    print(write_instance(InstanceFile(args.kind, payload)), end="")
    return 0


def sweep_instance(name: str, seed: int) -> InstanceFile:
    """Instance `seed` of sweep class `name`, built as `domw gen` builds it."""
    kind, options = _SWEEPS[name]
    args = argparse.Namespace(seed=seed, max_w=5, **options(seed))
    return InstanceFile(kind, _GENERATORS[kind](args))


def run_sweep(name: str, seeds: int) -> tuple[int, str]:
    """Check `seeds` instances of one class; return the mismatch count and a summary line."""
    mismatches, gaps = 0, []
    for seed in range(seeds):
        report = check_instance(sweep_instance(name, seed))
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


def _cmd_sweep(args: argparse.Namespace) -> int:
    failed = 0
    for name in args.classes:
        mismatches, line = run_sweep(name, args.seeds)
        print(line)
        failed += mismatches
    return 1 if failed else 0


def _cmd_verify(args: argparse.Namespace) -> int:
    inst = parse_instance(_read(args.instance))
    kind = KINDS[inst.kind]
    header, block = parse_result(_read(args.certificate), sorted({CERT_HEADER, kind.result_header}))
    if kind.check_result and header == kind.result_header:
        failed = [name for name, ok in kind.check_result(inst.payload, block) if not ok]
    else:
        check = verify_certificate(kind.graph(inst.payload), block)
        failed = [] if check else [check.reason]
    if failed:
        print(f"FAIL {failed[0]}")
        return 1
    print(f"PASS value {block.value}")
    return 0


def _cmd_matrix(args: argparse.Namespace) -> int:
    inst = parse_instance(_read(args.file))
    g = instance_graph(inst)
    order = order_by_right_endpoint(inst.payload) if inst.kind == "interval" else None
    m = neighborhood_matrix(g, order)
    for row in m.rows:
        print(" ".join(str(x) for x in row))
    if args.det:
        print(f"det {det(m)}")
    if args.c1p:
        print(f"c1p {'true' if has_consecutive_ones(m) else 'false'}")
    return 0


_COMMANDS = {
    "solve": _cmd_solve,
    "oracle": _cmd_oracle,
    "check": _cmd_check,
    "example": _cmd_example,
    "gen": _cmd_gen,
    "sweep": _cmd_sweep,
    "verify": _cmd_verify,
    "matrix": _cmd_matrix,
}


def run(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    try:
        return _COMMANDS[args.command](args)
    except InstanceTooLarge as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (TheoremViolation, LPInternalError) as exc:
        return _internal_error(exc)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
