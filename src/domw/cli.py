"""Command line driver: solve, oracle, check, example, gen, verify, matrix.

Machine-readable payloads go to standard output, diagnostics to standard
error.  Exit codes: 0 success, 1 invalid input or failed verification,
2 internal assertion failure (a disproved theorem or an LP duality gap),
3 instance too large for the requested oracle or over a search's node budget.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from .errors import InstanceTooLarge, LPInternalError, TheoremViolation
from .graph_core import verify_certificate
from .instances_io import (
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
    parse_certificate,
    parse_instance,
    write_certificate,
    write_instance,
    write_split_result,
)
from .interval_solver import order_by_right_endpoint, solve_interval
from .oracles import (
    brute_gamma,
    brute_gamma_i,
    brute_rho,
    det,
    has_consecutive_ones,
    neighborhood_matrix,
    solve_fractional,
)
from .split_solver import solve_split
from .tree_edge_solver import solve_tree


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
    example.add_argument(
        "name",
        choices=("forked-star", "split-triangle", "non-tu-intervals", "non-tu-star"),
    )

    gen = sub.add_parser("gen", help="write a seeded random instance to standard output")
    gen.add_argument(
        "kind", choices=("interval", "tree-edges", "split", "subtree-intersection")
    )
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

    verify = sub.add_parser("verify", help="re-check a certificate against an instance")
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


def _cmd_solve(args: argparse.Namespace) -> int:
    inst = parse_instance(_read(args.file))
    if inst.kind == "interval":
        print(write_certificate(solve_interval(inst.payload)), end="")
        return 0
    if inst.kind == "tree-edges":
        cert = solve_tree(inst.payload.host, inst.payload.f_edges)
        print(write_certificate(cert), end="")
        return 0
    if inst.kind == "split":
        print(write_split_result(solve_split(inst.payload)), end="")
        return 0
    print(
        f"no exact solver covers kind {inst.kind!r}; "
        "use `domw oracle <gamma|rho|gammai|frac>`",
        file=sys.stderr,
    )
    return 1


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


def _cmd_check(args: argparse.Namespace) -> int:
    inst = parse_instance(_read(args.file))
    g = instance_graph(inst)
    failures = 0

    def report(name: str, ok: bool) -> None:
        nonlocal failures
        failures += 0 if ok else 1
        print(f"{'PASS' if ok else 'FAIL'} {name}")

    solver_value = None
    if inst.kind == "interval":
        cert = solve_interval(inst.payload)
        solver_value = cert.value
        report("solver certificate verifies", bool(verify_certificate(g, cert)))
    elif inst.kind == "tree-edges":
        cert = solve_tree(inst.payload.host, inst.payload.f_edges)
        solver_value = cert.value
        report("solver certificate verifies", bool(verify_certificate(g, cert)))
    elif inst.kind == "split":
        solver_value = solve_split(inst.payload).value

    if g.n > args.cap:
        print(f"SKIP oracle comparisons ({g.n} vertices exceed the cap of {args.cap})")
        return 0 if failures == 0 else 1

    gamma, _ = brute_gamma(g, args.cap)
    rho, _ = brute_rho(g, args.cap)
    gamma_i, _, _ = brute_gamma_i(g, args.cap)
    report("sandwich rho <= gamma_i <= gamma", rho <= gamma_i <= gamma)
    if inst.kind in ("interval", "tree-edges"):
        report("solver value equals gamma_w", solver_value == gamma)
        report("solver value equals rho_w", solver_value == rho)
    elif inst.kind == "split":
        report("solver value equals gamma_w", solver_value == gamma)
        report("solver value equals gamma_i_w", solver_value == gamma_i)
        report("rho_w at most solver value", rho <= solver_value)

    sol = solve_fractional(g, args.cap)
    report("fractional duality gamma* = rho*", sol.gamma_star == sol.rho_star)
    report("gamma* at most gamma_w", sol.gamma_star <= gamma)
    report("rho* at least rho_w", sol.rho_star >= rho)
    return 0 if failures == 0 else 1


def _cmd_example(args: argparse.Namespace) -> int:
    if args.name == "forked-star":
        host, subtrees, weights = example_forked_star()
        inst = InstanceFile("subtree-intersection", SubtreeInstance(host, subtrees, weights))
    elif args.name == "split-triangle":
        inst = InstanceFile("split", example_split_triangle())
    elif args.name == "non-tu-intervals":
        inst = InstanceFile("interval", example_nontu_intervals())
    else:
        host, f_edges = example_nontu_star()
        inst = InstanceFile("tree-edges", TreeEdgesInstance(host, f_edges))
    print(write_instance(inst), end="")
    return 0


def _cmd_gen(args: argparse.Namespace) -> int:
    if args.kind == "interval":
        payload = gen_interval(args.seed, args.n, args.max_coord, args.max_w)
    elif args.kind == "tree-edges":
        host, f_edges = gen_tree(args.seed, args.n_edges, args.max_w)
        payload = TreeEdgesInstance(host, f_edges)
    elif args.kind == "split":
        payload = gen_split(args.seed, args.n_a, args.n_b, args.edge_prob, args.max_w)
    else:
        host, subtrees, weights = gen_subtrees(
            args.seed, args.n_tree, args.n_subtrees, args.max_w
        )
        payload = SubtreeInstance(host, subtrees, weights)
    print(write_instance(InstanceFile(args.kind, payload)), end="")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    g = instance_graph(parse_instance(_read(args.instance)))
    cert = parse_certificate(_read(args.certificate))
    result = verify_certificate(g, cert)
    if result:
        print(f"PASS value {cert.value}")
        return 0
    print(f"FAIL {result.reason}")
    return 1


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
        print(f"internal error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
