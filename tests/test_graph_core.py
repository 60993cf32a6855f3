"""Tests for the shared graph model and certificate checking."""

import math
import random
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from domw import (
    Certificate,
    DominationFunction,
    HostTree,
    IntervalFamily,
    UnknownVertex,
    WeightedGraph,
    edge_line_graph,
    intersection_graph,
    is_dispersed,
    is_w_dominating,
    verify_certificate,
)
from domw import graph_core
from domw.checkers import check_interval, check_tree_edges
from domw.errors import DisconnectedSubtree, EmptySubtree
from domw.graph_core import NOT_DISPERSED, NOT_DOMINATING, VALUE_MISMATCH
from domw.instances_io import gen_subtrees

from .strategies import host_trees, interval_families, subtree_graph, subtree_instances, weighted_graphs


def path(n: int, weights=None) -> WeightedGraph:
    ws = tuple(weights) if weights is not None else (1,) * n
    return WeightedGraph.from_edges(ws, [(i, i + 1) for i in range(n - 1)])


def test_from_edges_builds_symmetric_adjacency():
    g = WeightedGraph.from_edges((1, 2, 3), [(0, 1), (1, 2)])
    assert g.n == 3
    assert [set(a) for a in g.adjacency] == [{1}, {0, 2}, {1}]
    assert g.degree(1) == 2


def test_from_edges_rejects_out_of_range_edge():
    with pytest.raises(UnknownVertex):
        WeightedGraph.from_edges((1, 2), [(0, 2)])


def test_from_edges_rejects_a_self_loop():
    with pytest.raises(ValueError, match="self-loop at vertex 1"):
        WeightedGraph.from_edges((1, 2), [(1, 1)])


def test_from_edges_rejects_nonpositive_weight():
    with pytest.raises(ValueError):
        WeightedGraph.from_edges((1, 0), [])


@pytest.mark.parametrize(
    "adjacency, error, message",
    [
        ((frozenset({1}),), ValueError, "adjacency and weights disagree on vertex count"),
        ((frozenset({2}), frozenset()), UnknownVertex, "vertex 2 out of range"),
        ((frozenset({0}), frozenset()), ValueError, "self-loop at vertex 0"),
        ((frozenset({1}), frozenset()), ValueError, "adjacency not symmetric at (0, 1)"),
    ],
    ids=["count", "range", "loop", "symmetry"],
)
def test_constructor_rejects_a_broken_adjacency(adjacency, error, message):
    with pytest.raises(error) as err:
        WeightedGraph((1, 1), adjacency)
    assert type(err.value) is error
    assert str(err.value) == message


def distance(g: WeightedGraph, u: int, v: int) -> int | float:
    """Number of edges on a shortest u-v path, math.inf when disconnected."""
    if u == v:
        return 0
    dist = {u: 0}
    queue = deque([u])
    while queue:
        x = queue.popleft()
        for y in g.adjacency[x]:
            if y not in dist:
                dist[y] = dist[x] + 1
                if y == v:
                    return dist[y]
                queue.append(y)
    return math.inf


def test_distance_on_a_path():
    g = path(5)
    assert distance(g, 0, 0) == 0
    assert distance(g, 0, 4) == 4
    assert distance(g, 3, 1) == 2


def test_distance_disconnected_is_infinite():
    g = WeightedGraph.from_edges((1, 1, 1, 1), [(0, 1), (2, 3)])
    assert distance(g, 0, 3) == math.inf


def test_is_dispersed_needs_pairwise_distance_three():
    g = path(4)
    assert is_dispersed(g, {0, 3})
    assert not is_dispersed(g, {0, 2})
    assert is_dispersed(g, {1})
    assert is_dispersed(g, set())


def test_domination_function_sums_only_requested_vertices():
    f = DominationFunction({0: 2, 2: 5})
    assert sum(map(f, {0, 1})) == 2
    assert sum(map(f, {0, 2})) == 7
    assert sum(map(f, set())) == 0


def test_domination_function_drops_zero_entries():
    f = DominationFunction({0: 2, 1: 0, 3: 5})
    assert dict(f.items()) == {0: 2, 3: 5}
    assert f.size == 7
    assert f.support == frozenset({0, 3})
    assert f(1) == 0 and f(3) == 5
    assert DominationFunction().size == 0


def test_domination_function_rejects_negative_values():
    with pytest.raises(ValueError):
        DominationFunction({0: -1})


@pytest.mark.parametrize("bad", [-1, 1.0, 0.0, "1", None])
def test_domination_function_names_the_first_bad_value(bad):
    """Checked in one pass with the zeros dropped: the first bad value in
    order raises, zeros before it included."""
    with pytest.raises(ValueError) as err:
        DominationFunction({4: 0, 7: 2, 1: bad, 0: -3})
    assert str(err.value) == "value at vertex 1 must be a nonnegative integer"


def test_domination_function_size_is_no_field():
    """The cached size changes neither equality nor repr."""
    f, g = DominationFunction({0: 2, 3: 5}), DominationFunction({0: 2, 1: 0, 3: 5})
    assert f.size == 7
    assert f == g and repr(f) == repr(g) == "DominationFunction(values={0: 2, 3: 5})"
    assert g.size == 7


def test_is_w_dominating_checks_closed_neighborhood_sums():
    g = path(3, weights=(1, 3, 1))
    assert is_w_dominating(g, DominationFunction({1: 3}))
    # vertex 1 demands 3 but sees only 2
    assert not is_w_dominating(g, DominationFunction({0: 1, 2: 1}))
    assert is_w_dominating(g, DominationFunction({0: 1, 2: 1}), u={0, 2})


def test_verify_certificate_accepts_a_matched_pair():
    g = path(4)
    cert = Certificate(DominationFunction({1: 1, 3: 1}), frozenset({0, 3}), 2)
    check = verify_certificate(g, cert)
    assert check.ok and check.reason is None


def test_verify_certificate_flags_each_failure_mode():
    g = path(4)
    bad_dom = Certificate(DominationFunction({1: 1}), frozenset({0}), 1)
    assert verify_certificate(g, bad_dom).reason == NOT_DOMINATING
    bad_disp = Certificate(DominationFunction({1: 1, 3: 1}), frozenset({0, 2}), 2)
    assert verify_certificate(g, bad_disp).reason == NOT_DISPERSED
    bad_value = Certificate(DominationFunction({1: 1, 3: 1}), frozenset({0}), 2)
    assert verify_certificate(g, bad_value).reason == VALUE_MISMATCH


def test_host_tree_validation():
    with pytest.raises(ValueError):
        HostTree(3, ((0, 1), (1, 2), (2, 0)))
    with pytest.raises(ValueError):
        HostTree(3, ((0, 1), (0, 1)))
    with pytest.raises(UnknownVertex):
        HostTree(2, ((0, 5),))
    with pytest.raises(ValueError, match="self-loop"):
        HostTree(2, ((1, 1),))
    with pytest.raises(ValueError, match="at least one vertex"):
        HostTree(0, ())
    with pytest.raises(ValueError, match="not connected"):
        HostTree(4, ((0, 1), (1, 2), (2, 0)))
    t = HostTree(3, ((0, 1), (1, 2)))
    assert t.adjacency() == [{1}, {0, 2}, {1}]


def _bfs_parents(n, edges):
    nbrs = [[] for _ in range(n)]
    for u, v in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    parent, frontier = {0: -1}, [0]
    for x in frontier:
        for y in nbrs[x]:
            if y not in parent:
                parent[y] = x
                frontier.append(y)
    return [parent[v] for v in range(n)]


def _graph_of_meeting_pairs(weights, members) -> WeightedGraph:
    """The reference: an edge for each pair of members that share an element."""
    pairs = [(i, j) for j in range(len(members)) for i in range(j) if members[i] & members[j]]
    return WeightedGraph.from_edges(weights, pairs)


def test_host_tables_match_a_search_of_the_edges():
    """The neighbor sets and the parent table that a host's check computes,
    against a BFS from 0 over its edge list and the pairwise subtree
    intersections."""
    for seed in range(200):
        host, subtrees, weights = gen_subtrees(seed, 1 + seed % 13, 1 + seed % 7, 4)
        nbrs: list[set[int]] = [set() for _ in range(host.n)]
        for u, v in host.edges:
            nbrs[u].add(v)
            nbrs[v].add(u)
        assert host.adjacency() == nbrs
        assert host._parent == _bfs_parents(host.n, host.edges)
        assert subtree_graph(host, subtrees, weights) == _graph_of_meeting_pairs(weights, subtrees)


def _shuffled_host(rng: random.Random, n: int) -> HostTree:
    """A random tree on 0..n-1 with its vertices relabeled: its edges in
    parent order, reversed, or shuffled with each end pair flipped at
    random; the last two take `_search`."""
    label = rng.sample(range(n), n)
    edges = [(label[rng.randrange(v)], label[v]) for v in range(1, n)]
    shape = rng.randrange(3)
    if shape == 1:
        edges.reverse()
    elif shape == 2:
        rng.shuffle(edges)
        edges = [tuple(rng.sample(edge, 2)) for edge in edges]
    return HostTree(n, tuple(edges))


def test_each_builder_matches_an_edge_list_of_the_meeting_pairs():
    """600 random instances per builder: the line graph of a selection out of
    host order, flipped at random, on hosts whose edge lists are shuffled or
    reversed; the interval graph; and the graph of a subtree file.  Each
    equals `from_edges` over every pair of members that meet."""
    rng = random.Random(33)
    for _ in range(600):
        host = _shuffled_host(rng, rng.randint(2, 12))
        picked = rng.sample(host.edges, rng.randint(1, len(host.edges)))
        subset = [(*rng.sample(edge, 2), rng.randint(1, 5)) for edge in picked]
        expected = _graph_of_meeting_pairs([w for _, _, w in subset], [{u, v} for u, v, _ in subset])
        assert edge_line_graph(host, subset) == expected

        triples = []
        for _ in range(rng.randint(1, 12)):
            x = rng.randint(-5, 20)
            triples.append((x, x + rng.randint(0, 8), rng.randint(1, 5)))
        fam = IntervalFamily.of(triples)
        expected = _graph_of_meeting_pairs(fam.weight, [set(range(x, y + 1)) for x, y, _ in triples])
        assert intersection_graph(fam) == expected

        host = _shuffled_host(rng, rng.randint(1, 12))
        adjacency = host.adjacency()
        subtrees = []
        for _ in range(rng.randint(1, 9)):
            grown = {rng.randrange(host.n)}
            for _ in range(rng.randrange(host.n)):
                grown.add(rng.choice(sorted({u for v in grown for u in adjacency[v]})))
            subtrees.append(frozenset(grown))
        weights = [rng.randint(1, 5) for _ in subtrees]
        assert subtree_graph(host, subtrees, weights) == _graph_of_meeting_pairs(weights, subtrees)


def _edge_lists(rng, count):
    """`count` edge lists of n - 1 entries, n from 1 to 7: half in parent
    order, of which some have one entry spoiled, and half arbitrary."""
    spoil = [
        lambda u, v: (float(u), v), lambda u, v: (u, float(v)), lambda u, v: (u == 0, v),
        lambda u, v: [u, v], lambda u, v: (u, v, 0), lambda u, v: (u,), lambda u, v: (v, u),
        lambda u, v: (u, v + 1), lambda u, v: (u - 1, v), lambda u, v: (v, v), lambda u, v: (u + v, v),
    ]
    for case in range(count):
        n = rng.randint(1, 7)
        if case % 2:
            edges = [(rng.randrange(v), v) for v in range(1, n)]
            if edges and case % 3:
                i = rng.randrange(len(edges))
                edges[i] = rng.choice(spoil)(*edges[i])
        else:
            edges = [(rng.randint(-1, n), rng.randint(-1, n)) for _ in range(n - 1)]
        yield n, tuple(edges)


def test_parent_order_accepts_only_what_the_search_accepts(monkeypatch):
    """On 20,000 edge lists, half in parent order: the host with the
    parent-order rule (which takes 6,000 of them) equals the one `_search`
    alone checks, or raises the same error; its parent table is a BFS from 0.
    On the lists of int pairs, the column test that the file reader runs
    returns what the rule returns."""
    def outcome(n, edges):
        try:
            host = HostTree(n, edges)
        except (ValueError, TypeError) as exc:
            return type(exc), str(exc)
        return host, host._parent

    cases = list(_edge_lists(random.Random(5), 20_000))
    assert 4_000 < sum(graph_core._parent_order(n, edges) is not None for n, edges in cases) < 8_000
    int_pairs = [
        (n, edges) for n, edges in cases
        if all(type(e) is tuple and len(e) == 2 and {*map(type, e)} == {int} for e in edges)
    ]
    assert len(int_pairs) > 15_000
    for n, edges in int_pairs:
        us, vs = [u for u, _ in edges], [v for _, v in edges]
        assert graph_core._parent_columns(n, us, vs) == graph_core._parent_order(n, edges)
    outcomes = [outcome(n, edges) for n, edges in cases]
    monkeypatch.setattr(graph_core, "_parent_order", lambda n, edges: None)
    assert [outcome(n, edges) for n, edges in cases] == outcomes
    trees = [(host, parent) for host, parent in outcomes if isinstance(host, HostTree)]
    assert 5_000 < len(trees) < 15_000
    for host, parent in trees:
        assert parent == _bfs_parents(host.n, host.edges)
    with pytest.raises(TypeError) as float_end:
        HostTree(2, ((0, 1.0),))
    # a bool indexes a list as 0 or 1, but `write_instance` would print it as `True`
    for edges in (((False, True),), ((0, True),), ((0, 1), (True, 2))):
        with pytest.raises(TypeError) as bool_end:
            HostTree(len(edges) + 1, edges)
        assert str(bool_end.value) == str(float_end.value)


def test_subtree_graph_small_example():
    host = HostTree(4, ((0, 1), (1, 2), (1, 3)))
    g = subtree_graph(host, [frozenset({0, 1}), frozenset({1, 2}), frozenset({3})], (2, 1, 4))
    assert g.weights == (2, 1, 4)
    assert [sorted(a) for a in g.adjacency] == [[1], [0], []]


def test_subtree_graph_rejects_bad_subtrees():
    host = HostTree(4, ((0, 1), (1, 2), (1, 3)))
    with pytest.raises(EmptySubtree):
        subtree_graph(host, [frozenset()], (1,))
    with pytest.raises(DisconnectedSubtree):
        subtree_graph(host, [frozenset({0, 2})], (1,))
    with pytest.raises(UnknownVertex):
        subtree_graph(host, [frozenset({0, 9})], (1,))
    # a bool would index vertex 1 but be written as `True`
    with pytest.raises(UnknownVertex, match="subtree 0 uses vertex True outside the host tree"):
        subtree_graph(host, [frozenset({True})], (1,))
    with pytest.raises(ValueError, match="one weight per subtree"):
        subtree_graph(host, [frozenset({0})], (1, 2))
    # a `SubtreeInstance` built through the library checks its weights when built
    for weight in (0, True, 1.0):
        with pytest.raises(ValueError) as err:
            subtree_graph(host, [frozenset({0}), frozenset({1})], (1, weight))
        assert str(err.value) == "weight of vertex 1 must be a positive integer"


@settings(max_examples=100, deadline=None)
@given(weighted_graphs())
def test_full_weight_function_always_dominates(g: WeightedGraph):
    f = DominationFunction({v: g.weights[v] for v in g.vertices})
    assert is_w_dominating(g, f)


def test_predicates_reject_unknown_vertices():
    g = path(3)
    for bad in (3, -1):
        with pytest.raises(UnknownVertex):
            is_dispersed(g, {0, bad})
        with pytest.raises(UnknownVertex):
            is_w_dominating(g, DominationFunction({0: 1}), u={bad})
        # a support vertex outside the graph is an error even when no
        # target's neighborhood would reach it
        with pytest.raises(UnknownVertex):
            is_w_dominating(g, DominationFunction({1: 1, bad: 1}), u={0})
        with pytest.raises(UnknownVertex):
            verify_certificate(g, Certificate(DominationFunction({bad: 1}), frozenset(), 1))


def test_predicates_name_the_first_unknown_vertex():
    g = path(3)
    # targets are checked before the support, and any vertex ahead of a sum
    cases = [
        (lambda: is_w_dominating(g, DominationFunction({7: 1}), u={0, -2}), "vertex -2 out of range 0..2"),
        (lambda: is_w_dominating(g, DominationFunction({0: 1, 7: 1})), "vertex 7 out of range 0..2"),
        (lambda: is_w_dominating(g, DominationFunction(), u=["x"]), "vertex x out of range 0..2"),
        (lambda: is_dispersed(g, [0, 1, 3]), "vertex 3 out of range 0..2"),
        (lambda: is_dispersed(g, [1.0]), "vertex 1.0 out of range 0..2"),
    ]
    for call, message in cases:
        with pytest.raises(UnknownVertex) as err:
            call()
        assert str(err.value) == message


def test_from_edges_checks_range_then_weights_then_self_loops():
    cases = [
        ((0, 1, 1), [(2, 2), (0, 3)], UnknownVertex, "edge (0, 3) out of range"),
        ((1, 0, 1), [(2, 2)], ValueError, "weight of vertex 1 must be a positive integer"),
        ((1, 1, 1), [(2, 2), (1, 1)], ValueError, "self-loop at vertex 1"),
    ]
    for weights, edges, error, message in cases:
        with pytest.raises(error) as err:
            WeightedGraph.from_edges(weights, edges)
        assert type(err.value) is error and str(err.value) == message


@settings(max_examples=100, deadline=None)
@given(weighted_graphs(max_n=9))
def test_from_edges_passes_every_constructor_check(g: WeightedGraph):
    edges = [(u, v) for u in g.vertices for v in g.adjacency[u] if u < v]
    built = WeightedGraph.from_edges(list(g.weights), edges)
    assert built == g == WeightedGraph(built.weights, built.adjacency)
    assert type(built.weights) is tuple


@settings(max_examples=100, deadline=None)
@given(weighted_graphs(max_n=9), st.data())
def test_dispersed_definition_matches_pairwise_distances(g: WeightedGraph, data):
    members = data.draw(st.sets(st.sampled_from(range(g.n))))
    expect = all(
        distance(g, u, v) >= 3 for u in members for v in members if u < v
    )
    assert is_dispersed(g, members) == expect


@settings(max_examples=100, deadline=None)
@given(weighted_graphs(max_n=9), st.data())
def test_w_dominating_definition_matches_neighborhood_sums(g: WeightedGraph, data):
    vertex = st.sampled_from(range(g.n))
    f = DominationFunction(data.draw(st.dictionaries(vertex, st.integers(0, 6))))
    targets = data.draw(st.none() | st.sets(vertex))
    expect = all(
        sum(map(f, g.adjacency[v] | {v})) >= g.weights[v]
        for v in (g.vertices if targets is None else targets)
    )
    assert is_w_dominating(g, f, targets) == expect


@settings(max_examples=100, deadline=None)
@given(interval_families(max_n=12, max_coord=30))
def test_interval_graph_matches_pairwise_intersection(fam):
    g = intersection_graph(fam)
    assert g.weights == fam.weight
    for i in range(fam.n):
        meets = {j for j in range(fam.n) if max(fam.left[i], fam.left[j]) <= min(fam.right[i], fam.right[j])}
        assert g.adjacency[i] == meets - {i}


@settings(max_examples=100, deadline=None)
@given(subtree_instances(max_n=9, max_subtrees=8))
def test_subtree_graph_matches_pairwise_intersection(instance):
    host, subtrees, weights = instance
    g = subtree_graph(host, subtrees, weights)
    assert g.weights == weights
    for i, s in enumerate(subtrees):
        assert g.adjacency[i] == {j for j, t in enumerate(subtrees) if j != i and s & t}


@settings(max_examples=100, deadline=None)
@given(host_trees())
def test_host_tree_adjacency_is_symmetric(t: HostTree):
    adj = t.adjacency()
    for u in range(t.n):
        for v in adj[u]:
            assert u in adj[v]


@pytest.mark.parametrize("stray", [0.0, "1", -1, 3, True], ids=["float", "str", "negative", "n", "bool"])
@pytest.mark.parametrize("place", ["f", "set"])
def test_every_checker_takes_an_id_as_the_explicit_graph_does(stray, place):
    """Three isolated vertices of weight 1, as three disjoint intervals and as
    three disjoint selected tree edges, with an odd id in f or in the set:
    both column checkers decide what `verify_certificate` decides, and raise
    the same class with the same message.  Only an int in 0..2 is a vertex,
    and a bool is no int."""

    def outcome(check, *args):
        try:
            return check(*args).reason
        except Exception as exc:
            return type(exc), str(exc)

    graph = WeightedGraph.from_edges((1, 1, 1), [])
    fam = IntervalFamily.of([(1, 2, 1), (4, 5, 1), (7, 8, 1)])
    subset = ((0, 1, 1), (2, 3, 1), (4, 5, 1))
    if place == "f":
        cert = Certificate(DominationFunction({2: 1, stray: 1}), frozenset({2}), 2)
    else:
        cert = Certificate(DominationFunction({0: 1, 1: 1, 2: 1}), frozenset({2, stray}), 3)
    expected = outcome(verify_certificate, graph, cert)
    assert outcome(check_interval, fam, cert) == outcome(check_tree_edges, subset, cert) == expected
    assert expected == (UnknownVertex, f"vertex {stray} out of range 0..2")
