"""Tests for the split-graph solver and its independent witnesses."""

from itertools import product

import pytest
from hypothesis import assume, given, settings

from domw import (
    SplitInstance,
    WeightedGraph,
    brute_gamma,
    brute_gamma_i,
    brute_rho,
    is_w_dominating,
    solve_split,
    validate_split,
)
from domw.errors import NotAClique, NotAPartition, NotIndependent
from domw.instances_io import example_split_triangle
from domw.oracles import min_dominating

from .strategies import split_instances


def tiny_split(weights, cross) -> SplitInstance:
    """Clique on the first two vertices, the rest independent."""
    n = len(weights)
    edges = [(0, 1)] + list(cross)
    g = WeightedGraph.from_edges(tuple(weights), edges)
    return validate_split(g, frozenset({0, 1}), frozenset(range(2, n)))


def test_validate_split_rejects_bad_partitions():
    g = WeightedGraph.from_edges((1, 1, 1), [(0, 1), (1, 2)])
    with pytest.raises(NotAPartition):
        validate_split(g, frozenset({0, 1}), frozenset({1, 2}))
    with pytest.raises(NotAClique):
        validate_split(g, frozenset({0, 2}), frozenset({1}))
    with pytest.raises(NotIndependent):
        validate_split(g, frozenset({0}), frozenset({1, 2}))


def test_triangle_with_three_pendants():
    """The worked example: value 6 carried by the cover, all of B as witness,
    and a strictly smaller dispersion number."""
    inst = example_split_triangle()
    res = solve_split(inst)
    assert res.value == 6
    assert dict(res.dominating.items()) == {0: 2, 1: 2, 2: 2}
    assert res.witness_independent == frozenset({3, 4, 5})
    g = inst.graph
    assert brute_gamma(g)[0] == brute_gamma_i(g)[0] == 6
    assert brute_rho(g)[0] == 5


def test_heavy_clique_vertex_wins_over_the_cover():
    # the cover costs 2 but the heaviest clique vertex demands 9, so the
    # witness shrinks to that single vertex
    inst = tiny_split((9, 1, 2), [(0, 2)])
    res = solve_split(inst)
    assert res.value == 9
    assert res.witness_independent == frozenset({0})
    assert res.dominating.size == 9
    assert is_w_dominating(inst.graph, res.dominating)


def test_empty_independent_side():
    g = WeightedGraph.from_edges((4, 7), [(0, 1)])
    inst = validate_split(g, frozenset({0, 1}), frozenset())
    res = solve_split(inst)
    assert res.value == 7
    assert res.witness_independent == frozenset({1})


def test_empty_clique_side():
    g = WeightedGraph.from_edges((3, 5), [])
    inst = validate_split(g, frozenset(), frozenset({0, 1}))
    res = solve_split(inst)
    assert res.value == 8
    assert dict(res.dominating.items()) == {0: 3, 1: 5}


def test_isolated_b_vertex_pays_its_own_weight():
    # vertex 3 has no neighbor: it pays its own 5 on top of the 4 that
    # vertex 0 places to dominate vertex 2
    inst = tiny_split((3, 2, 4, 5), [(0, 2)])
    res = solve_split(inst)
    assert res.value == 9
    assert res.witness_independent == frozenset({2, 3})
    assert res.dominating.size == 9
    assert is_w_dominating(inst.graph, res.dominating)
    assert brute_gamma(inst.graph)[0] == brute_gamma_i(inst.graph)[0] == 9


def test_isolated_b_vertex_joins_the_heavy_clique_witness():
    inst = tiny_split((9, 1, 2, 5), [(0, 2)])
    res = solve_split(inst)
    assert res.value == 14
    assert res.witness_independent == frozenset({0, 3})
    assert res.dominating.size == 14
    assert is_w_dominating(inst.graph, res.dominating)


def test_isolated_b_vertex_is_rejected():
    """The clique alone cannot dominate an isolated B vertex, so the bare
    cover search refuses it; solve_split handles it before the search."""
    inst = tiny_split((3, 2, 4, 5), [(0, 2)])
    with pytest.raises(ValueError, match="demand at vertex 3 has no available supplier"):
        min_dominating(inst.graph, inst.independent, inst.clique)


def test_min_cover_b_against_exhaustive_search():
    inst = example_split_triangle()
    cover = min_dominating(inst.graph, inst.independent, inst.clique)[1]
    assert dict(cover.items()) == {0: 2, 1: 2, 2: 2}


@settings(max_examples=100, deadline=None)
@given(split_instances(max_a=3, max_b=3, max_w=4))
def test_min_cover_b_is_exact(inst: SplitInstance):
    """Cross-check the cover search against brute enumeration of all
    integer assignments on the clique."""
    g = inst.graph
    # an isolated B demand has no supplier on the clique: the search raises
    assume(all(g.adjacency[b] for b in inst.independent))
    cover = min_dominating(g, inst.independent, inst.clique)[1]
    clique = sorted(inst.clique)
    demands = sorted(inst.independent)
    assert all(v in inst.clique for v in cover.support)
    assert is_w_dominating(g, cover, u=demands)
    if not demands:
        assert cover.size == 0
        return
    top = max(g.weights[b] for b in demands)
    best = None
    for values in product(range(top + 1), repeat=len(clique)):
        f = dict(zip(clique, values))
        ok = all(
            sum(f.get(a, 0) for a in g.adjacency[b]) >= g.weights[b] for b in demands
        )
        if ok and (best is None or sum(values) < best):
            best = sum(values)
    assert cover.size == best


@settings(max_examples=100, deadline=None)
@given(split_instances())
def test_solver_matches_oracles(inst: SplitInstance):
    res = solve_split(inst)
    g = inst.graph
    assert is_w_dominating(g, res.dominating)
    assert res.dominating.size == res.value
    assert res.value == brute_gamma(g)[0] == brute_gamma_i(g)[0]
    assert brute_rho(g)[0] <= res.value


@settings(max_examples=100, deadline=None)
@given(split_instances())
def test_the_witness_is_independent(inst: SplitInstance):
    res = solve_split(inst)
    g = inst.graph
    for u in res.witness_independent:
        assert not (g.adjacency[u] & res.witness_independent)


def _exhaustive_minimum(g: WeightedGraph, demands) -> int:
    """Smallest |f| over every f in {0..max w}^V meeting the given demands;
    larger values never help, so the range loses nothing."""
    nbhds = [(v, *sorted(g.adjacency[v])) for v in g.vertices]
    best = None
    for f in product(range(max(g.weights) + 1), repeat=g.n):
        if all(sum(f[u] for u in nbhds[v]) >= g.weights[v] for v in demands):
            if best is None or sum(f) < best:
                best = sum(f)
    return best


@settings(max_examples=100, deadline=None)
@given(split_instances(max_a=3, max_b=2, max_w=3))
def test_solver_matches_exhaustive_search(inst: SplitInstance):
    """A reference that shares no code with the branch and bound: the value
    is the cheapest function on all of V, and also the cheapest function
    dominating just the witness."""
    res = solve_split(inst)
    g = inst.graph
    assert res.value == _exhaustive_minimum(g, g.vertices)
    assert res.value == _exhaustive_minimum(g, sorted(res.witness_independent))
