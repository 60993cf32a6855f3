"""Tests for the bottom-up solver on line graphs of tree edge subsets."""

import hashlib
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from domw import (
    Certificate,
    DominationFunction,
    HostTree,
    brute_gamma,
    brute_rho,
    is_w_dominating,
    solve_tree,
    verify_certificate,
)
from domw.checkers import check_tree_edges
from domw.errors import EmptyEdgeSet, TheoremViolation, UnknownVertex
from domw.instances_io import example_nontu_star, gen_tree
from domw.tree_edge_solver import (
    RootedEdgeTree,
    _normalized,
    bottom_up_f,
    edge_line_graph,
    extract_dispersed_tree,
    reduce_to_full_tree,
    root_adjust,
    rooted_at,
    solve_rooted,
)

from .strategies import corrupted, outcome, seeded_corruptions, tree_edge_subsets

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
    assert [(t.root, t.order) for t in comps] == [(0, (0,)), (3, (1,))]
    cert = solve_tree(host, subset)
    assert cert.value == 9
    assert cert.dispersed == frozenset({0, 1})


def test_rooted_at_holds_ends_for_its_own_component_only():
    """Re-rooting keeps the parent and child ends of the component's edges
    alone, so its cost follows the component, not the host."""
    host = HostTree(5, ((0, 1), (1, 2), (2, 3), (3, 4)))
    for t in reduce_to_full_tree(host, ((0, 1, 2), (2, 3, 1), (3, 4, 7))):
        for r in sorted(t.vertices):
            rooted = rooted_at(t, r)
            assert sorted(rooted.tables.parent.keys()) == sorted(t.order)
            assert sorted(rooted.tables.child.keys()) == sorted(t.order)


def test_rooted_at_rejects_a_vertex_outside_the_component():
    host = HostTree(5, ((0, 1), (1, 2), (2, 3), (3, 4)))
    t, _ = reduce_to_full_tree(host, ((0, 1, 2), (3, 4, 7)))
    with pytest.raises(UnknownVertex) as info:
        rooted_at(t, 3)
    assert str(info.value) == "vertex 3 is not in this component"


def test_flipped_edge_orientation_is_accepted():
    cert = solve_tree(PATH3, ((1, 0, 5), (1, 2, 2)))
    assert cert.value == 5


def test_empty_subset_is_rejected():
    with pytest.raises(EmptyEdgeSet):
        solve_tree(PATH3, ())


def test_non_host_edge_is_rejected():
    with pytest.raises(ValueError):
        solve_tree(PATH3, ((0, 2, 1),))
    with pytest.raises(ValueError, match="selected twice"):
        solve_tree(PATH3, ((0, 1, 1), (1, 0, 1)))
    with pytest.raises(ValueError, match="positive weight"):
        solve_tree(PATH3, ((0, 1, 0),))


FORK = HostTree(5, ((0, 1), (0, 2), (2, 3), (2, 4)))


def test_a_selection_out_of_host_order_normalizes_like_the_ordered_one():
    ordered = ((0, 2, 3), (2, 3, 1), (2, 4, 5))
    assert _normalized(FORK, ordered) is ordered  # already in host order: kept as it is
    shuffled = ((2, 4, 5), (0, 2, 3), (2, 3, 1))
    reversed_ends = ((2, 0, 3), (3, 2, 1), (4, 2, 5))
    both = ((4, 2, 5), (3, 2, 1), (2, 0, 3))
    for subset in (shuffled, reversed_ends, both):
        assert _normalized(FORK, subset) == ordered


@pytest.mark.parametrize(
    "in_order, out_of_order, message",
    [
        (((0, 1, 1), (1, 3, 1)), ((1, 3, 1), (0, 1, 1)), "(1, 3) is not an edge of the host tree"),
        (((0, 1, 1), (0, 1, 2)), ((0, 2, 1), (0, 1, 1), (0, 1, 2)), "edge (0, 1) selected twice"),
        (((0, 1, 1), (2, 3, 0)), ((2, 3, 0), (0, 1, 1)), "edge (2, 3) must have positive weight"),
    ],
)
def test_normalized_rejects_alike_on_both_branches(in_order, out_of_order, message):
    for subset in (in_order, out_of_order):
        with pytest.raises(ValueError) as err:
            _normalized(FORK, subset)
        assert str(err.value) == message


STAR3 = HostTree(4, ((0, 1), (0, 2), (0, 3)))


@pytest.mark.parametrize("host", [STAR3, FORK], ids=["star", "fork"])
def test_equal_root_gaps_elect_the_smallest_edge_id(host):
    """Over every weighting in 1..3: d is the largest root gap and e0 the
    smallest id reaching it, recomputed from bottom-up f by definition."""
    tied = 0
    for ws in product((1, 2, 3), repeat=len(host.edges)):
        subset = tuple((u, v, w) for (u, v), w in zip(host.edges, ws))
        (t,) = reduce_to_full_tree(host, subset)
        f = bottom_up_f(t)
        up = _parent_ends(subset, range(host.n), t.root)
        held = {x: sum(f(e) for e in up if up[e] == x) for x in t.vertices}
        gap = {e: w - held[t.root] - held[u + v - t.root] for e, (u, v, w) in enumerate(subset) if up[e] == t.root}
        d = max(gap.values())
        g, got_d, e0 = root_adjust(t, f)
        assert got_d == d
        assert e0 == (min(e for e in gap if gap[e] == d) if d > 0 else None)
        tied += d > 0 and sum(x == d for x in gap.values()) > 1
    assert tied


def test_peel_guards_fire_on_a_tampered_adjustment():
    """The peeling's guards, reached through the public phase with a crafted
    g: a positive d with no edge, a positive root edge that no son pays for
    exactly, and a layer whose deleted mass is not the chosen weight; and
    the root adjustment's guard, on a planted root with no edge."""
    (t,) = reduce_to_full_tree(PATH3, ((0, 1, 5), (1, 2, 2)))
    f = bottom_up_f(t)  # {0: 2}, and root_adjust gives (d, e0) = (3, 0)
    with pytest.raises(TheoremViolation, match=r"^a positive root adjustment names no root edge$"):
        extract_dispersed_tree(t, DominationFunction({0: 5}), 3, None)
    # root edge 0 holds 1; its son, edge 1, sees 1 + 0 on its neighborhood, not 2
    with pytest.raises(TheoremViolation, match=r"^no candidate son pays for root edge 0 exactly$"):
        extract_dispersed_tree(t, DominationFunction({0: 1}), 0, None)
    # a root edge with no son at all
    (leaf,) = reduce_to_full_tree(PATH3, ((1, 2, 2),))
    with pytest.raises(TheoremViolation, match=r"^no candidate son pays for root edge 0 exactly$"):
        extract_dispersed_tree(leaf, DominationFunction({0: 2}), 0, None)
    layer = r"^layer accounting failed: empty layer or deleted mass != chosen weight$"
    # the adjustment named but not applied: edge 0 is chosen, 2 is deleted against its 5
    with pytest.raises(TheoremViolation, match=layer):
        extract_dispersed_tree(t, f, 3, 0)
    # an elected edge paid more than its weight
    with pytest.raises(TheoremViolation, match=layer):
        extract_dispersed_tree(leaf, DominationFunction({0: 3}), 1, 0)
    # host vertex 0 touches no selected edge of leaf
    with pytest.raises(TheoremViolation, match=r"^the root has no out-edge$"):
        root_adjust(RootedEdgeTree(0, (), leaf.tables), DominationFunction.zero())
    # the untampered phases pass
    g, d, e0 = root_adjust(t, f)
    assert extract_dispersed_tree(t, g, d, e0)[0] == frozenset({0})


def test_value_is_root_independent_on_the_two_edge_path():
    (t,) = reduce_to_full_tree(PATH3, ((0, 1, 5), (1, 2, 2)))
    values = set()
    for r in sorted(t.vertices):
        g, chosen, _ = solve_rooted(rooted_at(t, r))
        values.add(g.size)
    assert values == {5}


def _parent_ends(subset, vertices, root):
    """Edge id -> the end nearer the root, for the selected edges inside vertices."""
    ids = [eid for eid, (u, _, _) in enumerate(subset) if u in vertices]
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
    return parent_end


def _assert_rooted_by_definition(t, subset, vertices, root):
    """t's root, vertices, edges and their order, and the tables it reads,
    recomputed from the edge list, the vertex set and the root."""
    parent_end = _parent_ends(subset, vertices, root)
    ids = sorted(parent_end)
    parent, child, weight, touching = t.tables
    assert t.root == root and t.vertices == vertices
    assert sorted(t.order) == ids
    for eid in ids:
        u, v, w = subset[eid]
        p = parent_end[eid]
        assert (parent[eid], child[eid]) == (p, v if p == u else u)
        assert weight[eid] == w
    # each edge comes after the edge above it, the one whose child end is its parent end
    position = {eid: k for k, eid in enumerate(t.order)}
    above = {child[eid]: eid for eid in ids}
    assert all(position[above[parent[eid]]] < position[eid] for eid in ids if parent[eid] != root)
    for x in vertices:
        assert touching[x] == [eid for eid in ids if x in subset[eid][:2]]


@settings(max_examples=150, deadline=None)
@given(tree_edge_subsets(max_n=12))
# host edge ids listed bottom-up, so that id order is not the order from the root
@example((HostTree(5, ((2, 3), (2, 4), (1, 2), (0, 1))), ((2, 3, 1), (2, 4, 2), (1, 2, 1), (0, 1, 3))))
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
        # re-rooting orients a copy: the canonical view is left as it was
        _assert_rooted_by_definition(t, subset, vertices, min(vertices))


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


def _assert_layers_cover_once(t, chosen, layers):
    seen: set[int] = set()
    for picked, removed in zip(layers.chosen, layers.deleted):
        assert picked <= removed
        assert not (removed & seen)
        seen |= removed
    assert seen == set(t.order)
    assert chosen == frozenset().union(*layers.chosen)


@settings(max_examples=120, deadline=None)
@given(tree_edge_subsets(max_n=7))
def test_deletion_layers_cover_every_edge_once(case):
    host, subset = case
    lg = edge_line_graph(host, subset)
    for t in reduce_to_full_tree(host, subset):
        g, chosen, layers = solve_rooted(t)
        assert is_w_dominating(lg, g, u=t.order)
        _assert_layers_cover_once(t, chosen, layers)


def phase_cases():
    """200 seeded hosts, then a star and a path with every edge selected."""
    m = 300
    for seed in range(200):
        yield gen_tree(seed, 60, 5)
    yield HostTree(m + 1, tuple((0, i) for i in range(1, m + 1))), [(0, i, 1 + 7 * i % 5) for i in range(1, m + 1)]
    yield HostTree(m + 1, tuple((i, i + 1) for i in range(m))), [(i, i + 1, 1 + 7 * i % 5) for i in range(m)]


def test_solve_tree_matches_the_public_phases():
    """solve_tree runs the phases on lists over the whole host, the public
    phase functions one component at a time; both must give the same
    function and dispersed set on 200 seeded hosts, a star and a path."""
    for host, subset in phase_cases():
        values: dict[int, int] = {}
        dispersed: set[int] = set()
        for t in reduce_to_full_tree(host, subset):
            g, chosen, layers = solve_rooted(t)
            _assert_layers_cover_once(t, chosen, layers)
            values.update(g.values)
            dispersed |= chosen
        cert = solve_tree(host, subset)
        assert cert.dominating == DominationFunction(values)
        assert cert.dispersed == dispersed


def test_phases_match_their_pinned_digest():
    """Each component's bottom-up f, (d, e0) and peeling layers in order, at
    its own root and re-rooted at its largest vertex, byte for byte, as the
    public phases gave them before they were moved onto the solver's tables."""
    digest = hashlib.sha256()
    count = 0
    for host, subset in phase_cases():
        for t in reduce_to_full_tree(host, subset):
            for r in (t.root, max(t.vertices)):
                rooted = rooted_at(t, r)
                f = bottom_up_f(rooted)
                g, d, e0 = root_adjust(rooted, f)
                chosen, layers = extract_dispersed_tree(rooted, g, d, e0)
                record = (
                    r,
                    sorted(f.items()),
                    (d, e0),
                    sorted(g.items()),
                    [sorted(layer) for layer in layers.chosen],
                    [sorted(layer) for layer in layers.deleted],
                    sorted(chosen),
                )
                digest.update(repr(record).encode("ascii") + b"\n")
                count += 1
    assert count == 2864
    assert digest.hexdigest() == "3f7c4430148130e7aaced8af833d6ac3c3acb48db668b30c466e13e2fddae53e"


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


@settings(max_examples=400, deadline=None)
@given(tree_edge_subsets(max_n=9), st.data())
def test_tree_checker_agrees_with_verify_certificate(case, data):
    host, subset = case
    cert = data.draw(corrupted(solve_tree(host, subset), [w for _, _, w in subset]))
    graph = edge_line_graph(host, subset)
    assert outcome(check_tree_edges, subset, cert) == outcome(verify_certificate, graph, cert)


def test_tree_checker_agrees_with_verify_certificate_on_every_small_case():
    """Every recursive host tree on up to five vertices, every selection with
    weights 1..2, and for each every set with f = w on it, and every set with
    the solver's f at value |f| and at the set's weight."""
    for n in range(2, 6):
        for parents in product(*(range(v) for v in range(1, n))):
            host = HostTree(n, tuple((p, v) for v, p in enumerate(parents, start=1)))
            for pick in range(1, 1 << (n - 1)):
                edges = [e for i, e in enumerate(host.edges) if pick >> i & 1]
                for ws in product((1, 2), repeat=len(edges)):
                    subset = tuple((u, v, w) for (u, v), w in zip(edges, ws))
                    _assert_checker_agrees(host, subset)


def _assert_checker_agrees(host, subset):
    graph = edge_line_graph(host, subset)
    solver_f = solve_tree(host, subset).dominating
    m = len(subset)
    for k in range(1 << m):
        members = frozenset(e for e in range(m) if k >> e & 1)
        weight = sum(subset[e][2] for e in members)
        cover = DominationFunction({e: subset[e][2] for e in members})
        for cert in (
            Certificate(cover, members, weight),
            Certificate(solver_f, members, solver_f.size),
            Certificate(solver_f, members, weight),
        ):
            assert outcome(check_tree_edges, subset, cert) == outcome(verify_certificate, graph, cert)


def test_tree_checker_agrees_with_verify_certificate_on_seeded_corruptions():
    """440 certificates: each of 40 seeded selections' own and 10 broken
    copies, out-of-range and negative ids included; the reason, or the
    UnknownVertex raised, is the explicit line graph's."""
    checked = 0
    for seed in range(40):
        host, subset = gen_tree(seed, 1 + seed % 11, 1 + seed % 4)
        graph = edge_line_graph(host, subset)
        for cert in seeded_corruptions(solve_tree(host, subset), graph, seed):
            assert outcome(check_tree_edges, subset, cert) == outcome(verify_certificate, graph, cert)
            checked += 1
    assert checked == 440


def test_tree_checker_rejects_ids_outside_the_selection():
    """An unknown id of f raises before domination is read, one of I only
    after it; as on the explicit line graph."""
    subset = ((0, 1, 2), (1, 2, 3))
    f = DominationFunction({1: 3})
    assert check_tree_edges(subset, Certificate(f, frozenset({1}), 3)).ok
    assert check_tree_edges(subset, Certificate(DominationFunction({0: 1}), frozenset({2}), 1)).reason == "NotDominating"
    for g, members in [(f, {2}), (f, {-1}), (DominationFunction({1: 3, 2: 1}), {1})]:
        with pytest.raises(UnknownVertex, match="out of range 0..1"):
            check_tree_edges(subset, Certificate(g, frozenset(members), 3))
    with pytest.raises(EmptyEdgeSet):
        check_tree_edges((), Certificate(DominationFunction(), frozenset(), 0))


def test_a_star_of_ten_thousand_selected_edges_solves():
    """Its line graph is a clique of 10^4 vertices with about 5 * 10^7 edges;
    the solve reads sums at host vertices only.  On a clique both values are
    the largest weight."""
    m = 10_000
    host = HostTree(m + 1, tuple((0, i) for i in range(1, m + 1)))
    subset = [(0, i, 1 + 7 * i % 5) for i in range(1, m + 1)]
    assert solve_tree(host, subset).value == 5
