"""Tests for the brute-force oracles, the exact LP, and the matrix checks."""

import hashlib
import sys
from fractions import Fraction
from itertools import permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from domw import (
    LCG,
    DominationFunction,
    WeightedGraph,
    build_intersection_graph,
    brute_gamma,
    brute_gamma_i,
    brute_rho,
    det,
    edge_line_graph,
    gen_interval,
    gen_subtrees,
    gen_tree,
    has_consecutive_ones,
    is_dispersed,
    is_w_dominating,
    neighborhood_matrix,
    solve_fractional,
    solve_split,
)
from domw import oracles
from domw.cli import sweep_instance
from domw.errors import BadPermutation, InstanceTooLarge, LPInternalError
from domw.instances_io import (
    example_nontu_intervals,
    example_split_triangle,
    gen_split,
    instance_graph,
)
from domw.interval_solver import intersection_graph, order_by_right_endpoint

from .strategies import weighted_graphs


def path(weights) -> WeightedGraph:
    n = len(weights)
    return WeightedGraph.from_edges(tuple(weights), [(i, i + 1) for i in range(n - 1)])


def test_single_vertex():
    g = WeightedGraph.from_edges((6,), [])
    assert brute_gamma(g)[0] == 6
    assert brute_rho(g)[0] == 6
    assert brute_gamma_i(g)[0] == 6


def test_edge_takes_the_heavier_endpoint():
    g = WeightedGraph.from_edges((2, 7), [(0, 1)])
    assert brute_gamma(g)[0] == 7
    assert brute_rho(g)[0] == 7
    value, chosen, _ = brute_gamma_i(g)
    assert value == 7
    assert chosen == frozenset({1})


def test_weighted_path_of_three():
    g = path((1, 3, 1))
    assert brute_gamma(g)[0] == 3
    assert brute_rho(g)[0] == 3


def test_unit_path_of_four():
    g = path((1, 1, 1, 1))
    assert brute_gamma(g)[0] == 2
    assert brute_rho(g)[0] == 2
    assert brute_gamma_i(g)[0] == 2


def test_heavy_star_center():
    g = WeightedGraph.from_edges((5, 1, 1, 1), [(0, 1), (0, 2), (0, 3)])
    assert brute_gamma(g)[0] == 5
    assert brute_rho(g)[0] == 5
    value, chosen, f = brute_gamma_i(g)
    assert value == 5
    assert chosen == frozenset({0})
    assert f.size == 5


def test_cap_guards_the_exponential_search():
    g = path((1,) * 11)
    with pytest.raises(InstanceTooLarge):
        brute_gamma(g)
    with pytest.raises(InstanceTooLarge):
        brute_rho(g)
    with pytest.raises(InstanceTooLarge):
        brute_gamma_i(g)
    assert brute_gamma(g, cap=11)[0] == 4


def test_cover_search_deeper_than_the_call_stack_stops_at_its_budget(monkeypatch):
    """The search goes one level deeper per supplier.  With 1500 suppliers
    a recursive search overflowed the call stack (RecursionError, exit 1)
    long before its node budget; it must raise InstanceTooLarge instead."""
    rng = LCG(1)
    n_a, n_b = 1500, 30
    assert n_a > sys.getrecursionlimit()
    weights = [rng.randint(1, 5) for _ in range(n_a + n_b)]
    edges = [(a, n_a + b) for b in range(n_b) for a in range(n_a) if rng.chance(5)]
    g = WeightedGraph.from_edges(weights, edges)
    monkeypatch.setattr(oracles, "NODE_BUDGET", 5_000)
    with pytest.raises(InstanceTooLarge, match="budget"):
        oracles.min_dominating(g, range(n_a, n_a + n_b), range(n_a))


@pytest.mark.parametrize(
    "args, nodes",
    [
        pytest.param((94, 11, 8, 24, 5), 0, id="root-94"),
        pytest.param((0, 9, 40, 30, 5), 10, id="packing-bound-0"),
        pytest.param((2, 16, 40, 50, 5), 646, id="packing-bound-2"),
        pytest.param((3, 5, 8, 60, 5), 23, id="later-target-3"),
        pytest.param((1, 14, 40, 50, 5), 15_302, id="later-target-1"),
        pytest.param((514, 11, 13, 44, 5), 238, id="greedy-seed-514"),
    ],
)
def test_cover_search_visits_its_pinned_number_of_nodes(monkeypatch, args, nodes):
    """The split cover search visits exactly this many nodes, counted over
    all its target passes (each visits the root): a budget of that many
    suffices and one fewer raises.  The id names where the search ends:
    before any pass (here the packing weighs as much as the greedy seed, so
    the seed is returned with no node visited), in the pass at the packing's
    weight, in a later pass (later-target-1 fails three passes first), or on
    the greedy seed once every target below it fails (four passes).  A
    change to the branching order, the value range, a bound, the stop rule
    or the passes changes the count and must re-pin it."""
    inst = gen_split(*args)
    g = inst.graph
    demands = {b for b in inst.independent if g.adjacency[b] & inst.clique}
    monkeypatch.setattr(oracles, "NODE_BUDGET", nodes)
    value = oracles.min_dominating(g, demands, inst.clique)[0]
    if not nodes:
        supply, weights = cover_items(inst)
        assert value == packing_weight(weights, oracles._max_packing(supply, weights))
        return
    monkeypatch.setattr(oracles, "NODE_BUDGET", nodes - 1)
    with pytest.raises(InstanceTooLarge, match="budget"):
        oracles.min_dominating(g, demands, inst.clique)


def _search_record(digest, size, f) -> None:
    digest.update(repr((size, sorted(f.values.items()))).encode("ascii") + b"\n")


def search_digests() -> tuple[str, str]:
    """SHA-256 of min_dominating's (size, sorted f) over two sets: 3,000
    seeded split covers of varied shape (cliques of 1-12, independent sides
    of 1-30, edge chances of 10-89%, weights up to 1-6), and brute_gamma on
    1,500 seeds each of the sweep's interval, tree-edge and subtree classes."""
    split = hashlib.sha256()
    for s in range(3000):
        inst = gen_split(s, 1 + s % 12, 1 + (s // 12) % 30, 10 + s % 80, 1 + s % 6)
        g = inst.graph
        demands = {b for b in inst.independent if g.adjacency[b] & inst.clique}
        _search_record(split, *oracles.min_dominating(g, demands, inst.clique))
    brute = hashlib.sha256()
    for name in ("interval", "tree", "subtree"):
        for s in range(1500):
            _search_record(brute, *brute_gamma(instance_graph(sweep_instance(name, s))))
    return split.hexdigest(), brute.hexdigest()


SEARCH_DIGESTS = (
    "45a92cd8a0e167634d97c9f44168c8971053050c45f8ee0266898a1d15db4c80",
    "45e7d2ad8bb8015a8ba8bb74d776f3378715a1a1088beccf2841652a3e7e0f4d",
)


def test_cover_search_matches_its_pinned_digest():
    """The value and the function the search returns, byte for byte: among
    equal optima it returns the greedy seed when that is optimal and
    otherwise the first optimum in depth-first order, so a new bound may cut
    nodes but must not change a single result."""
    assert search_digests() == SEARCH_DIGESTS


def cover_items(inst):
    """The demands of a split cover as packing items: each one's clique
    neighbors as a mask over the clique in sorted order, and its weight."""
    g = inst.graph
    position = {a: j for j, a in enumerate(sorted(inst.clique))}
    demands = sorted(b for b in inst.independent if g.adjacency[b] & inst.clique)
    supply = [sum(1 << position[a] for a in g.adjacency[b]) for b in demands]
    return supply, [g.weights[b] for b in demands]


def packing_weight(weights, packed):
    return sum(weight for i, weight in enumerate(weights) if packed >> i & 1)


def test_cover_search_falls_back_exactly_past_the_packing_cap(monkeypatch):
    """With no room for the root packing the search runs on its greedy
    packing alone, and every result is still the same."""
    monkeypatch.setattr(oracles, "PACKING_MASKS", 1)
    inst = gen_split(3, 18, 40, 50, 5)
    supply, weights = cover_items(inst)
    assert oracles._max_packing(supply, weights) == 0
    assert search_digests() == SEARCH_DIGESTS


def test_cover_search_falls_back_at_the_real_packing_cap(monkeypatch):
    """A sparse cover whose packing needs 767 masks, past PACKING_MASKS: the
    search gives its packing up and still reaches the optimum."""
    returned = []
    real = oracles._max_packing

    def spy(supply, weights):
        returned.append(real(supply, weights))
        return returned[-1]

    monkeypatch.setattr(oracles, "_max_packing", spy)
    assert solve_split(gen_split(1, 28, 40, 12, 5)).value == 32
    assert returned == [0]


def test_root_packing_is_disjoint_and_no_heavier_than_the_optimum(monkeypatch):
    """The packing the search computes before its first pass: one mask per
    demand holding its suppliers, pairwise disjoint on the packed demands,
    whose weight bounds the search's value from below."""
    seen = []
    real = oracles._max_packing

    def spy(supply, weights):
        packed = real(supply, weights)
        seen.append((supply, weights, packed))
        return packed

    monkeypatch.setattr(oracles, "_max_packing", spy)
    checked = 0
    for s in range(1200):
        inst = gen_split(s, 1 + s % 12, 1 + (s // 12) % 30, 10 + s % 80, 1 + s % 6)
        g = inst.graph
        demands = sorted(b for b in inst.independent if g.adjacency[b] & inst.clique)
        value = oracles.min_dominating(g, demands, inst.clique)[0]
        if not seen:
            continue
        (supply, weights, packed), = seen
        seen.clear()
        checked += 1
        suppliers = [len(g.adjacency[b] & inst.clique) for b in demands]
        assert [mask.bit_count() for mask in supply] == suppliers
        assert weights == [g.weights[b] for b in demands]
        union = 0
        for i, mask in enumerate(supply):
            if packed >> i & 1:
                assert not mask & union
                union |= mask
        assert 0 < packing_weight(weights, packed) <= value
    assert checked >= 500


def test_root_packing_is_a_heaviest_packing():
    """On covers of at most 12 demands, against every set of demands: the
    packing is one of them (no two overlap) and none is heavier."""
    for s in range(600):
        inst = gen_split(s, 1 + s % 12, 1 + (s // 12) % 12, 10 + s % 80, 1 + s % 6)
        supply, weights = cover_items(inst)
        # union[m] and weight[m] of each subset m of the demands, -1 when two overlap
        union = [0] * (1 << len(supply))
        weight = [0] * (1 << len(supply))
        for m in range(1, 1 << len(supply)):
            i = (m & -m).bit_length() - 1
            rest = m & (m - 1)
            if weight[rest] >= 0 and not union[rest] & supply[i]:
                union[m] = union[rest] | supply[i]
                weight[m] = weight[rest] + weights[i]
            else:
                weight[m] = -1
        assert weight[oracles._max_packing(supply, weights)] == max(weight)


def test_cover_search_rejects_a_demand_with_no_supplier():
    with pytest.raises(ValueError) as info:
        oracles.min_dominating(path((1, 1, 1)), [2], [0])
    assert str(info.value) == "demand at vertex 2 has no available supplier"


@settings(max_examples=150, deadline=None)
@given(weighted_graphs(max_n=5, max_w=3))
def test_gamma_is_the_exhaustive_minimum(g: WeightedGraph):
    """Here demands may be adjacent and may supply each other, unlike in the
    split searches.  No vertex needs more than the largest weight, so trying
    every function with values up to it finds the minimum."""
    closed = [g.adjacency[u] | {u} for u in g.vertices]
    best = min(
        sum(f)
        for f in product(range(max(g.weights) + 1), repeat=g.n)
        if all(sum(f[v] for v in closed[u]) >= g.weights[u] for u in g.vertices)
    )
    assert brute_gamma(g)[0] == best


@settings(max_examples=120, deadline=None)
@given(weighted_graphs(max_n=6))
def test_oracle_witnesses_are_genuine(g: WeightedGraph):
    gamma, f = brute_gamma(g)
    assert is_w_dominating(g, f)
    assert f.size == gamma
    rho, dispersed = brute_rho(g)
    assert is_dispersed(g, dispersed)
    assert sum(g.weights[v] for v in dispersed) == rho
    gamma_i, chosen, fi = brute_gamma_i(g)
    assert is_w_dominating(g, fi, u=chosen)
    assert fi.size == gamma_i
    # chosen is independent and maximal
    for u in chosen:
        assert not (g.adjacency[u] & chosen)
    for u in g.vertices:
        assert u in chosen or (g.adjacency[u] & chosen)


def table_rho(g: WeightedGraph) -> int:
    """rho_w by walking every vertex mask with two 2^n tables: a mask is
    dispersed when its lowest vertex is at distance 3 or more from the rest
    and the rest is dispersed."""
    closed = [sum(1 << u for u in g.adjacency[v]) | 1 << v for v in g.vertices]
    near2 = [0] * g.n  # the vertices within distance 2, v itself left out
    for v in g.vertices:
        for u in g.adjacency[v] | {v}:
            near2[v] |= closed[u]
        near2[v] &= ~(1 << v)
    valid = bytearray(1 << g.n)
    weight = [0] * (1 << g.n)
    valid[0] = 1
    for m in range(1, 1 << g.n):
        v = (m & -m).bit_length() - 1
        rest = m & (m - 1)
        if valid[rest] and not near2[v] & rest:
            valid[m] = 1
            weight[m] = weight[rest] + g.weights[v]
    return max(weight)


def test_rho_is_the_exhaustive_maximum():
    """brute_rho against the 2^n table walk on 2,000 seeded graphs of 1-12
    vertices, edge chances 5-94% and weights up to 1-6: equal values, and
    the set it returns is dispersed with that weight."""
    for s in range(2000):
        rng = LCG(s)
        n, chance, max_w = 1 + s % 12, rng.randint(5, 94), rng.randint(1, 6)
        weights = [rng.randint(1, max_w) for _ in range(n)]
        edges = [(u, v) for v in range(n) for u in range(v) if rng.chance(chance)]
        g = WeightedGraph.from_edges(weights, edges)
        rho, dispersed = brute_rho(g, cap=12)
        assert rho == table_rho(g)
        assert is_dispersed(g, dispersed)
        assert sum(g.weights[v] for v in dispersed) == rho


def table_gamma_i(g: WeightedGraph) -> tuple[int, frozenset[int], DominationFunction]:
    """gamma_i_w by walking every vertex mask with a 2^n table of the
    independent ones: a mask is independent when its lowest vertex has no
    neighbor in the rest and the rest is independent.  Each maximal one is
    priced, and of equal costs the first in mask order wins."""
    adj = [sum(1 << u for u in g.adjacency[v]) for v in g.vertices]
    valid = bytearray(1 << g.n)
    valid[0] = 1
    best = None
    for m in range(1 << g.n):
        if m:
            v = (m & -m).bit_length() - 1
            rest = m & (m - 1)
            if not valid[rest] or adj[v] & rest:
                continue
            valid[m] = 1
        if all(m >> v & 1 or adj[v] & m for v in g.vertices):
            members = frozenset(v for v in g.vertices if m >> v & 1)
            cost, f = oracles.min_dominating(g, members)
            if best is None or cost > best[0]:
                best = cost, members, f
    return best


def test_gamma_i_is_the_exhaustive_maximum():
    """brute_gamma_i against the 2^n table walk on 2,000 seeded graphs of
    1-12 vertices, edge chances 5-94% and weights up to 1-6: the same value,
    witness and function."""
    for s in range(2000):
        rng = LCG(s)
        n, chance, max_w = 1 + s % 12, rng.randint(5, 94), rng.randint(1, 6)
        weights = [rng.randint(1, max_w) for _ in range(n)]
        edges = [(u, v) for v in range(n) for u in range(v) if rng.chance(chance)]
        g = WeightedGraph.from_edges(weights, edges)
        assert brute_gamma_i(g, cap=12) == table_gamma_i(g)


def test_gamma_i_of_the_empty_graph():
    """Its one maximal independent set is empty and costs nothing, and its
    heaviest dispersed set is empty too."""
    assert brute_gamma_i(WeightedGraph((), ())) == (0, frozenset(), DominationFunction())
    assert brute_rho(WeightedGraph((), ())) == (0, frozenset())


@settings(max_examples=120, deadline=None)
@given(weighted_graphs(max_n=6))
def test_sandwich_inequalities(g: WeightedGraph):
    assert brute_rho(g)[0] <= brute_gamma_i(g)[0] <= brute_gamma(g)[0]


FIVE_CYCLE = WeightedGraph.from_edges((1,) * 5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
THIRD = Fraction(1, 3)


def test_fractional_five_cycle():
    """On the unit 5-cycle every closed neighborhood has three vertices, so
    the symmetric third is optimal on both sides while gamma stays at 2."""
    g = FIVE_CYCLE
    sol = solve_fractional(g)
    assert sol.gamma_star == sol.rho_star == Fraction(5, 3)
    assert sol.dual == {v: Fraction(1, 3) for v in range(5)}
    assert sol.primal == {v: Fraction(1, 3) for v in range(5)}
    assert brute_gamma(g)[0] == 2


def test_fractional_split_triangle():
    inst = example_split_triangle()
    sol = solve_fractional(inst.graph)
    assert sol.gamma_star == sol.rho_star == Fraction(6)
    assert {v: x for v, x in sol.dual.items() if x} == {v: Fraction(2) for v in range(3)}
    assert {v: x for v, x in sol.primal.items() if x} == {
        v: Fraction(1, 2) for v in range(3, 6)
    }


@pytest.mark.parametrize(
    "rho, primal, dual, message",
    [
        (Fraction(5), [Fraction(1)] * 5, [THIRD] * 5, "primal solution infeasible"),
        (Fraction(5, 3), [THIRD] * 5, [Fraction(0)] * 5, "dual solution infeasible"),
        (Fraction(2), [THIRD] * 5, [Fraction(2, 5)] * 5, "primal objective mismatch"),
        (Fraction(5, 3), [THIRD] * 5, [Fraction(1, 2)] * 5, "duality gap: 5/2 != 5/3"),
    ],
)
def test_fractional_rejects_a_simplex_result_that_fails_a_check(monkeypatch, rho, primal, dual, message):
    """Each exact check of solve_fractional fires on a planted simplex result."""
    monkeypatch.setattr(oracles, "_solve_lp", lambda objective, rows: (rho, primal, dual))
    with pytest.raises(LPInternalError) as info:
        solve_fractional(FIVE_CYCLE)
    assert str(info.value) == message


def test_simplex_raises_on_an_unbounded_column():
    """The packing LP is bounded, so only a planted tableau reaches this guard:
    column 0 improves the cost and no row bounds it."""
    with pytest.raises(LPInternalError) as info:
        oracles._run_simplex([[Fraction(-1), Fraction(1)]], [Fraction(-1), Fraction(0)], [1])
    assert str(info.value) == "unbounded linear program"


def test_fractional_empty_graph():
    assert solve_fractional(WeightedGraph((), ())) == oracles.FractionalSolution(0, 0, {}, {})


def lp_graphs():
    """1,000 seeded graphs of at most 10 vertices: 200 each of interval
    graphs, tree-edge line graphs, split graphs, subtree intersection graphs
    and random explicit graphs."""
    for seed in range(200):
        yield intersection_graph(gen_interval(seed, 1 + seed % 10, 12, 5))
        yield edge_line_graph(*gen_tree(seed, 1 + seed % 10, 5))
        yield gen_split(seed, 1 + seed % 4, 1 + (seed // 4) % 6, 60, 5).graph
        yield build_intersection_graph(*gen_subtrees(seed, 3 + seed % 6, 1 + seed % 10, 5))
        rng = LCG(seed)
        n = rng.randint(1, 10)
        weights = [rng.randint(1, 5) for _ in range(n)]
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.chance(40)]
        yield WeightedGraph.from_edges(weights, edges)


def test_fractional_optima_and_primal_match_their_pinned_digest():
    """Both LP optima and the primal vector, byte for byte, as the two-phase
    simplex that solved (P) and (D) separately gave them."""
    digest = hashlib.sha256()
    count = 0
    for g in lp_graphs():
        assert g.n <= 10
        sol = solve_fractional(g)
        record = (sol.gamma_star, sol.rho_star, sorted(sol.primal.items()))
        digest.update(repr(record).encode("ascii") + b"\n")
        count += 1
    assert count == 1000
    assert digest.hexdigest() == "9624a209fae024501785da5402d6ead7a5a827f6c6b3de27694aa53987f7e10f"


def test_fractional_cap():
    g = path((1,) * 11)
    with pytest.raises(InstanceTooLarge):
        solve_fractional(g)


@settings(max_examples=60, deadline=None)
@given(weighted_graphs(max_n=6))
def test_fractional_bounds_the_integral_values(g: WeightedGraph):
    sol = solve_fractional(g)
    assert sol.gamma_star == sol.rho_star
    assert sol.gamma_star <= brute_gamma(g)[0]
    assert sol.rho_star >= brute_rho(g)[0]
    # the reported vectors are feasible for their own sides
    for u in g.vertices:
        nbhd = g.adjacency[u] | {u}
        assert sum(sol.dual.get(v, Fraction(0)) for v in nbhd) >= g.weights[u]
        assert sum(sol.primal.get(v, Fraction(0)) for v in nbhd) <= 1


def test_neighborhood_matrix_rows_and_order():
    g = path((1, 1, 1))
    m = neighborhood_matrix(g)
    assert m.rows == ((1, 1, 0), (1, 1, 1), (0, 1, 1))
    flipped = neighborhood_matrix(g, order=(2, 1, 0))
    assert flipped.rows == ((1, 1, 0), (1, 1, 1), (0, 1, 1))
    assert flipped.order == (2, 1, 0)
    with pytest.raises(BadPermutation):
        neighborhood_matrix(g, order=(0, 0, 1))
    with pytest.raises(BadPermutation):
        neighborhood_matrix(g, order=(0, 1))


def test_det_hand_values():
    assert det([[1]]) == 1
    assert det([[1, 2], [3, 4]]) == -2
    assert det([[2, 0, 0], [0, 3, 0], [0, 0, 4]]) == 24
    assert det([[1, 2], [2, 4]]) == 0


def test_det_rejects_a_non_square_matrix_and_takes_the_empty_one_as_one():
    with pytest.raises(ValueError) as info:
        det([[1, 2]])
    assert str(info.value) == "determinant needs a square matrix"
    assert det([]) == 1


def test_nontu_witness_matrices():
    """Both non-totally-unimodular witnesses have |det| = 2."""
    fam = example_nontu_intervals()
    g = intersection_graph(fam)
    assert det(neighborhood_matrix(g)) == -2
    assert det(neighborhood_matrix(g, order_by_right_endpoint(fam))) == -2
    assert not has_consecutive_ones(neighborhood_matrix(g))
    assert not has_consecutive_ones(neighborhood_matrix(g, order_by_right_endpoint(fam)))


def test_has_consecutive_ones_hand_values():
    assert has_consecutive_ones([[1, 1, 0], [0, 1, 1]])
    assert has_consecutive_ones([[0, 0, 0]])
    assert not has_consecutive_ones([[1, 0, 1]])


@settings(max_examples=120, deadline=None)
@given(
    st.integers(min_value=1, max_value=4).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(min_value=-3, max_value=3), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    )
)
def test_det_matches_permutation_expansion(rows):
    n = len(rows)
    sign = {p: 1 for p in permutations(range(n))}
    for p in sign:
        inversions = sum(
            1 for i in range(n) for j in range(i + 1, n) if p[i] > p[j]
        )
        sign[p] = -1 if inversions % 2 else 1
    expected = sum(
        s * prod(rows[i][p[i]] for i in range(n)) for p, s in sign.items()
    )
    assert det(rows) == expected


def prod(values):
    out = 1
    for v in values:
        out *= v
    return out
