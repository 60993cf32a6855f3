"""Tests for the bottom-up solver on line graphs of tree edge subsets."""

import pytest
from hypothesis import given, settings

from domw import (
    HostTree,
    brute_gamma,
    brute_rho,
    is_w_dominating,
    solve_tree,
    verify_certificate,
)
from domw.errors import EmptyEdgeSet
from domw.instances_io import example_nontu_star, gen_tree
from domw.tree_edge_solver import (
    bottom_up_f,
    edge_line_graph,
    reduce_to_full_tree,
    root_adjust,
    rooted_at,
    solve_rooted,
)

from .strategies import tree_edge_subsets

PATH3 = HostTree(3, ((0, 1), (1, 2)))


def test_edge_line_graph_adjacency():
    host = HostTree(4, ((0, 1), (1, 2), (1, 3)))
    g = edge_line_graph(host, ((0, 1, 2), (1, 2, 3), (1, 3, 1)))
    assert g.weights == (2, 3, 1)
    # all three edges meet at vertex 1
    assert [sorted(a) for a in g.adjacency] == [[1, 2], [0, 2], [0, 1]]


def test_two_edge_path_needs_the_root_bump():
    """Bottom-up pass alone under-serves the root's heavy edge; the final
    adjustment tops up the deepest argmax edge."""
    subset = ((0, 1, 5), (1, 2, 2))
    (t,) = reduce_to_full_tree(PATH3, subset)
    assert t.root == 0
    f = bottom_up_f(t)
    assert dict(f.items()) == {0: 2}
    g, d, e0 = root_adjust(t, f)
    assert (d, e0) == (3, 0)
    assert dict(g.items()) == {0: 5}
    cert = solve_tree(PATH3, subset)
    assert cert.value == 5
    assert cert.dispersed == frozenset({0})


def test_two_edge_path_light_far_edge():
    subset = ((0, 1, 4), (1, 2, 1))
    (t,) = reduce_to_full_tree(PATH3, subset)
    f = bottom_up_f(t)
    assert dict(f.items()) == {0: 1}
    g, d, e0 = root_adjust(t, f)
    assert (d, e0) == (3, 0)
    assert dict(g.items()) == {0: 4}
    assert solve_tree(PATH3, subset).value == 4


def test_star_of_rays_example():
    host, subset = example_nontu_star()
    cert = solve_tree(host, subset)
    assert cert.value == 3
    assert dict(cert.dominating.items()) == {0: 1, 2: 1, 4: 1}
    assert cert.dispersed == frozenset({1, 3, 5})
    assert verify_certificate(edge_line_graph(host, subset), cert).ok


def test_components_solve_independently():
    host = HostTree(5, ((0, 1), (1, 2), (2, 3), (3, 4)))
    subset = ((0, 1, 2), (3, 4, 7))
    comps = reduce_to_full_tree(host, subset)
    assert [(t.root, t.edge_ids) for t in comps] == [(0, (0,)), (3, (1,))]
    cert = solve_tree(host, subset)
    assert cert.value == 9
    assert cert.dispersed == frozenset({0, 1})


def test_flipped_edge_orientation_is_accepted():
    cert = solve_tree(PATH3, ((1, 0, 5), (1, 2, 2)))
    assert cert.value == 5


def test_empty_subset_is_rejected():
    with pytest.raises(EmptyEdgeSet):
        solve_tree(PATH3, ())


def test_non_host_edge_is_rejected():
    with pytest.raises(ValueError):
        solve_tree(PATH3, ((0, 2, 1),))


def test_value_is_root_independent_on_the_two_edge_path():
    (t,) = reduce_to_full_tree(PATH3, ((0, 1, 5), (1, 2, 2)))
    values = set()
    for r in sorted(t.vertices):
        g, chosen, _ = solve_rooted(rooted_at(t, r))
        values.add(g.size)
    assert values == {5}


def _assert_rooted_by_definition(t, subset, vertices, root):
    """Every field of t, recomputed from the edge list, the vertex set and the root."""
    ids = sorted(eid for eid, (u, _, _) in enumerate(subset) if u in vertices)
    dist = {root: 0}
    queue = [root]
    for x in queue:
        for eid in ids:
            u, v, _ = subset[eid]
            if x in (u, v):
                y = v if x == u else u
                if y not in dist:
                    dist[y] = dist[x] + 1
                    queue.append(y)
    parent_end = {}
    for eid in ids:
        u, v, _ = subset[eid]
        parent_end[eid] = u if dist[u] < dist[v] else v

    def height(eid):
        u, v, _ = subset[eid]
        child = v if parent_end[eid] == u else u
        below = [height(e) for e in ids if parent_end[e] == child]
        return 1 + max(below) if below else 0

    assert t.root == root and t.vertices == vertices
    assert t.edge_ids == tuple(ids)
    for eid in ids:
        u, v, w = subset[eid]
        p = parent_end[eid]
        assert t.ends[eid] == (p, v if p == u else u)
        assert t.weight[eid] == w
        assert t.height[eid] == height(eid)
    assert set(t.ends) == set(t.weight) == set(t.height) == set(ids)
    assert t.out_edges == {
        x: tuple(e for e in ids if parent_end[e] == x) for x in vertices
    }


@settings(max_examples=150, deadline=None)
@given(tree_edge_subsets(max_n=12))
def test_rooted_components_match_their_definitions(case):
    host, subset = case
    components: list[set[int]] = []
    for u, v, _ in subset:
        touched = [c for c in components if u in c or v in c]
        merged = {u, v}.union(*touched)
        components = [c for c in components if c not in touched] + [merged]
    expected = sorted(components, key=min)
    comps = reduce_to_full_tree(host, subset)
    assert len(comps) == len(expected)
    for t, vertices in zip(comps, expected):
        _assert_rooted_by_definition(t, subset, vertices, min(vertices))
        for r in sorted(vertices):
            _assert_rooted_by_definition(rooted_at(t, r), subset, vertices, r)


@settings(max_examples=120, deadline=None)
@given(tree_edge_subsets(max_n=7))
def test_solver_matches_oracles_and_verifies(case):
    host, subset = case
    g = edge_line_graph(host, subset)
    cert = solve_tree(host, subset)
    assert verify_certificate(g, cert).ok
    assert cert.value == brute_gamma(g)[0] == brute_rho(g)[0]


@settings(max_examples=60, deadline=None)
@given(tree_edge_subsets(max_n=7))
def test_value_is_independent_of_the_root(case):
    host, subset = case
    total = solve_tree(host, subset).value
    by_roots = 0
    for t in reduce_to_full_tree(host, subset):
        component_values = set()
        for r in sorted(t.vertices):
            g, _, _ = solve_rooted(rooted_at(t, r))
            component_values.add(g.size)
        assert len(component_values) == 1
        by_roots += component_values.pop()
    assert by_roots == total


@settings(max_examples=120, deadline=None)
@given(tree_edge_subsets(max_n=7))
def test_deletion_layers_cover_every_edge_once(case):
    host, subset = case
    lg = edge_line_graph(host, subset)
    for t in reduce_to_full_tree(host, subset):
        g, chosen, layers = solve_rooted(t)
        assert is_w_dominating(lg, g, u=t.edge_ids)
        seen: set[int] = set()
        for picked, removed in zip(layers.chosen, layers.deleted):
            assert picked <= removed
            assert not (removed & seen)
            seen |= removed
        assert seen == set(t.edge_ids)
        assert chosen == frozenset().union(*layers.chosen)


@pytest.mark.parametrize("seed", [1, 2])
def test_ten_thousand_host_edges_solve_to_a_verified_certificate(seed):
    """By weak duality a verified certificate proves both values optimal at
    any size, far above the oracles' 10-vertex cap."""
    host, subset = gen_tree(seed, 10_000, 5)
    cert = solve_tree(host, subset)
    assert verify_certificate(edge_line_graph(host, subset), cert).ok


def test_a_path_of_four_thousand_selected_edges_solves_to_a_verified_certificate():
    """A path host rooted at an end peels about m / 3 layers, the deepest
    shape a component can take."""
    m = 4000
    host = HostTree(m + 1, tuple((i, i + 1) for i in range(m)))
    subset = [(i, i + 1, 1 + 7 * i % 5) for i in range(m)]
    cert = solve_tree(host, subset)
    assert verify_certificate(edge_line_graph(host, subset), cert).ok
