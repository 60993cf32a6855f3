"""Acceptance gate: one test per criterion, one PASS/FAIL line each.

The seeded instance sweeps are shared between criteria through memoized
builders, so the final sandwich criterion revisits the exact instances the
earlier sweeps solved.  The interval, tree and split sweeps are the first
1,000 seeds of `domw sweep`'s classes, built by the same table.  Every expected value here is either a hand-checked
example or was frozen from the independent brute-force oracles.
"""

import time
from fractions import Fraction
from functools import cache
from itertools import product

from domw import (
    IntervalFamily,
    backward_greedy,
    brute_gamma,
    brute_gamma_i,
    brute_rho,
    build_intersection_graph,
    det,
    forward_greedy,
    gen_interval,
    gen_split,
    gen_subtrees,
    gen_tree,
    has_consecutive_ones,
    intersection_graph,
    is_w_dominating,
    neighborhood_matrix,
    order_by_right_endpoint,
    solve_fractional,
    solve_interval,
    solve_split,
    solve_tree,
    verify_certificate,
)
from domw.instances_io import (
    LCG,
    example_forked_star,
    example_nontu_intervals,
    example_nontu_star,
    example_split_triangle,
)
from domw.cli import sweep_instance
from domw.tree_edge_solver import edge_line_graph, reduce_to_full_tree

from .conftest import record
from .strategies import swap_labels


def _report(num: int, label: str, ok: bool) -> None:
    line = f"criterion {num:2d} {'PASS' if ok else 'FAIL'}: {label}"
    record(line)
    print(line)
    assert ok, line


@cache
def interval_cases():
    out = []
    for seed in range(1000):
        fam = sweep_instance("interval", seed).payload
        out.append((fam, intersection_graph(fam)))
    return tuple(out)


@cache
def tree_cases():
    out = []
    for seed in range(1000):
        inst = sweep_instance("tree", seed).payload
        out.append((inst.host, inst.f_edges, edge_line_graph(inst.host, inst.f_edges)))
    return tuple(out)


@cache
def split_cases():
    return tuple(sweep_instance("split", seed).payload for seed in range(1000))


@cache
def lp_cases():
    """125 instances per graph class, 500 in all."""
    graphs = []
    for s in range(125):
        fam = gen_interval(5000 + s, 1 + s % 8, 12, 5)
        graphs.append(intersection_graph(fam))
        host, subset = gen_tree(5000 + s, 1 + s % 9, 5)
        graphs.append(edge_line_graph(host, subset))
        graphs.append(gen_split(5000 + s, 1 + s % 4, 1 + (s // 4) % 5, 60, 5).graph)
        host, subs, ws = gen_subtrees(5000 + s, 3 + s % 6, 1 + s % 9, 4)
        graphs.append(build_intersection_graph(host, subs, ws))
    return tuple(graphs)


@cache
def containment_free_cases():
    """200 interval families with no containment between members."""
    out = []
    seed = 2000
    while len(out) < 200:
        fam = gen_interval(seed, 8, 12, 5)
        kept: list[tuple[int, int, int]] = []
        for iv in fam.intervals:
            nested = any(
                (x <= iv.left and iv.right <= y) or (iv.left <= x and y <= iv.right)
                for (x, y, _) in kept
            )
            if not nested:
                kept.append((iv.left, iv.right, iv.weight))
        out.append((seed, IntervalFamily.of(kept)))
        seed += 1
    return tuple(out)


@cache
def minimality_cases():
    return tuple(gen_interval(seed, 1 + seed % 5, 12, 5) for seed in range(3000, 3100))


@cache
def chordal_cases():
    out = []
    for seed in range(4000, 4300):
        host, subs, ws = gen_subtrees(seed, 3 + seed % 6, 1 + seed % 9, 1)
        out.append(build_intersection_graph(host, subs, ws))
    return tuple(out)


def test_criterion_01_forked_star_example():
    host, subtrees, weights = example_forked_star()
    g = build_intersection_graph(host, subtrees, weights)
    start = time.perf_counter()
    gamma = brute_gamma(g, cap=15)[0]
    gamma_seconds = time.perf_counter() - start
    start = time.perf_counter()
    gamma_i = brute_gamma_i(g, cap=15)[0]
    gamma_i_seconds = time.perf_counter() - start
    ok = gamma == 5 and gamma_i == 4 and gamma_seconds < 10 and gamma_i_seconds < 60
    _report(
        1,
        f"forked star: gamma_w={gamma} ({gamma_seconds:.2f}s), "
        f"gamma_i_w={gamma_i} ({gamma_i_seconds:.2f}s)",
        ok,
    )


def test_criterion_02_split_triangle_example():
    inst = example_split_triangle()
    start = time.perf_counter()
    rho = brute_rho(inst.graph)[0]
    gamma = brute_gamma(inst.graph)[0]
    gamma_i = brute_gamma_i(inst.graph)[0]
    value = solve_split(inst).value
    seconds = time.perf_counter() - start
    ok = rho == 5 and gamma == gamma_i == value == 6 and seconds < 1
    _report(
        2,
        f"split triangle: rho_w={rho}, gamma_w=gamma_i_w=solver={value} ({seconds:.2f}s)",
        ok,
    )


def test_criterion_03_interval_theorem_sweep():
    start = time.perf_counter()
    ok = True
    for fam, g in interval_cases():
        cert = solve_interval(fam)
        if not verify_certificate(g, cert).ok:
            ok = False
            break
        if cert.value != brute_gamma(g)[0] or cert.value != brute_rho(g)[0]:
            ok = False
            break
    seconds = time.perf_counter() - start
    ok = ok and seconds < 120
    _report(
        3,
        f"interval sweep: solver = gamma_w = rho_w with verified certificates "
        f"on 1000 seeds ({seconds:.1f}s)",
        ok,
    )


def test_criterion_04_tree_theorem_sweep():
    start = time.perf_counter()
    ok = True
    for index, (host, subset, g) in enumerate(tree_cases()):
        cert = solve_tree(host, subset)
        if not verify_certificate(g, cert).ok:
            ok = False
            break
        if cert.value != brute_gamma(g)[0] or cert.value != brute_rho(g)[0]:
            ok = False
            break
        if index < 100:
            # each component rooted at each of its vertices in turn
            rerooted = {
                solve_tree(*swap_labels(host, subset, t.root, r)).value
                for t in reduce_to_full_tree(host, subset)
                for r in sorted(t.vertices)
            }
            if rerooted != {cert.value}:
                ok = False
                break
    seconds = time.perf_counter() - start
    ok = ok and seconds < 120
    _report(
        4,
        f"tree sweep: solver = gamma_w = rho_w on 1000 seeds, root-independent "
        f"on the first 100 ({seconds:.1f}s)",
        ok,
    )


def test_criterion_05_split_theorem_sweep():
    start = time.perf_counter()
    ok = True
    for inst in split_cases():
        res = solve_split(inst)
        g = inst.graph
        if not is_w_dominating(g, res.dominating) or res.dominating.size != res.value:
            ok = False
            break
        if res.value != brute_gamma(g)[0] or res.value != brute_gamma_i(g)[0]:
            ok = False
            break
    seconds = time.perf_counter() - start
    ok = ok and seconds < 120
    _report(
        5,
        f"split sweep: solver = gamma_w = gamma_i_w on 1000 seeds ({seconds:.1f}s)",
        ok,
    )


def test_criterion_06_lp_duality_sweep():
    start = time.perf_counter()
    ok = True
    for g in lp_cases():
        sol = solve_fractional(g)
        if sol.gamma_star != sol.rho_star or not isinstance(sol.gamma_star, Fraction):
            ok = False
            break
    seconds = time.perf_counter() - start
    ok = ok and seconds < 120
    _report(
        6,
        f"LP duality: gamma* = rho* exactly on 500 instances across all "
        f"classes ({seconds:.1f}s)",
        ok,
    )


def test_criterion_07_non_tu_witnesses():
    fam = example_nontu_intervals()
    g = intersection_graph(fam)
    det_id = det(neighborhood_matrix(g))
    det_re = det(neighborhood_matrix(g, order_by_right_endpoint(fam)))
    host, subset = example_nontu_star()
    det_star = det(neighborhood_matrix(edge_line_graph(host, subset)))
    ok = abs(det_id) == 2 and abs(det_re) == 2 and abs(det_star) == 2
    _report(
        7,
        f"non-TU witnesses: |det| = {abs(det_id)} (intervals), "
        f"{abs(det_star)} (star of rays)",
        ok,
    )


def test_criterion_08_consecutive_ones():
    ok = True
    for _, fam in containment_free_cases():
        g = intersection_graph(fam)
        if not has_consecutive_ones(neighborhood_matrix(g, order_by_right_endpoint(fam))):
            ok = False
            break
    minors = 0
    checked = 0
    if ok:
        for seed, fam in containment_free_cases():
            if checked == 50:
                break
            if fam.n < 4:
                continue
            checked += 1
            g = intersection_graph(fam)
            m = neighborhood_matrix(g, order_by_right_endpoint(fam))
            rng = LCG(seed + 999)
            for _ in range(25):
                rows = sorted(range(fam.n), key=lambda _i: rng.draw(1 << 30))[:4]
                cols = sorted(range(fam.n), key=lambda _i: rng.draw(1 << 30))[:4]
                minor = [[m.rows[r][c] for c in cols] for r in rows]
                minors += 1
                if det(minor) not in (-1, 0, 1):
                    ok = False
                    break
            if not ok:
                break
    _report(
        8,
        f"consecutive ones on 200 containment-free families; {minors} random "
        f"4x4 minors all in {{-1,0,1}}",
        ok,
    )


def test_criterion_09_prefix_minimality():
    start = time.perf_counter()
    ok = True
    for fam in minimality_cases():
        g = intersection_graph(fam)
        f, _ = forward_greedy(fam)
        b, _ = backward_greedy(fam)
        fwd = order_by_right_endpoint(fam)
        bwd = sorted(
            range(fam.n),
            key=lambda i: (fam.left[i], fam.right[i], i),
            reverse=True,
        )
        top = max(g.weights)
        for values in product(range(top + 1), repeat=fam.n):
            everyone = all(
                sum(values[x] for x in g.adjacency[u] | {u}) >= g.weights[u]
                for u in g.vertices
            )
            if not everyone:
                continue
            run_f = run_b = run_hf = run_hb = 0
            for vf, vb in zip(fwd, bwd):
                run_f += f(vf)
                run_hf += values[vf]
                run_b += b(vb)
                run_hb += values[vb]
                if run_f > run_hf or run_b > run_hb:
                    ok = False
                    break
            if not ok:
                break
        if not ok:
            break
    seconds = time.perf_counter() - start
    ok = ok and seconds < 300
    _report(
        9,
        f"greedy prefix minimality against every dominating function on "
        f"100 families ({seconds:.1f}s)",
        ok,
    )


def test_criterion_10_unweighted_chordal_corollary():
    ok = all(brute_gamma_i(g)[0] == brute_gamma(g)[0] for g in chordal_cases())
    _report(
        10,
        "unit-weight chordal: gamma_i = gamma on 300 subtree intersection "
        "instances",
        ok,
    )


def test_criterion_11_sandwich_everywhere():
    graphs = []
    graphs.extend(g for _, g in interval_cases())
    graphs.extend(g for _, _, g in tree_cases())
    graphs.extend(inst.graph for inst in split_cases())
    graphs.extend(lp_cases())
    graphs.extend(intersection_graph(fam) for _, fam in containment_free_cases())
    graphs.extend(intersection_graph(fam) for fam in minimality_cases())
    graphs.extend(chordal_cases())
    ok = all(
        brute_rho(g)[0] <= brute_gamma_i(g)[0] <= brute_gamma(g)[0] for g in graphs
    )
    _report(
        11,
        f"sandwich rho_w <= gamma_i_w <= gamma_w on all {len(graphs)} sweep "
        f"instances",
        ok,
    )
