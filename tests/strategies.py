"""Shared hypothesis strategies for the test suite.

Instances are kept deliberately small so the brute-force oracles stay
instant; the acceptance module covers the larger seeded sweeps.
"""

from typing import Callable, Sequence

from hypothesis import strategies as st

from domw import (
    LCG,
    Certificate,
    CertificateCheck,
    DominationFunction,
    HostTree,
    IntervalFamily,
    SplitInstance,
    UnknownVertex,
    WeightedGraph,
    validate_split,
)


@st.composite
def interval_families(draw, max_n: int = 7, max_coord: int = 12, max_w: int = 5) -> IntervalFamily:
    n = draw(st.integers(min_value=1, max_value=max_n))
    triples = []
    for _ in range(n):
        x = draw(st.integers(min_value=1, max_value=max_coord))
        y = draw(st.integers(min_value=x, max_value=max_coord))
        triples.append((x, y, draw(st.integers(min_value=1, max_value=max_w))))
    return IntervalFamily.of(triples)


@st.composite
def weighted_graphs(draw, max_n: int = 7, max_w: int = 5) -> WeightedGraph:
    n = draw(st.integers(min_value=1, max_value=max_n))
    weights = tuple(draw(st.integers(min_value=1, max_value=max_w)) for _ in range(n))
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if draw(st.booleans())
    ]
    return WeightedGraph.from_edges(weights, edges)


@st.composite
def host_trees(draw, max_n: int = 8) -> HostTree:
    # random recursive tree: each new vertex hangs off an earlier one
    n = draw(st.integers(min_value=2, max_value=max_n))
    edges = tuple((draw(st.integers(min_value=0, max_value=v - 1)), v) for v in range(1, n))
    return HostTree(n, edges)


@st.composite
def tree_edge_subsets(draw, max_n: int = 8, max_w: int = 5):
    """A host tree together with a nonempty weighted subset of its edges."""
    host = draw(host_trees(max_n=max_n))
    subset = [
        (u, v, draw(st.integers(min_value=1, max_value=max_w)))
        for (u, v) in host.edges
        if draw(st.booleans())
    ]
    if not subset:
        u, v = host.edges[draw(st.integers(min_value=0, max_value=len(host.edges) - 1))]
        subset = [(u, v, draw(st.integers(min_value=1, max_value=max_w)))]
    return host, tuple(subset)


def swap_labels(host: HostTree, subset: Sequence[tuple[int, int, int]], a: int, b: int):
    """host and subset with the labels of vertices a and b swapped; edge ids,
    and so every tie-break by id, do not change.

    `reduce_to_full_tree` and `solve_tree` root each component at its
    smallest vertex.  Swapping a component's smallest vertex with another
    vertex r of it roots that component at r, and keeps every component at
    its index, since each root's label stays the same.
    """
    label = {a: b, b: a}
    return (
        HostTree(host.n, tuple((label.get(u, u), label.get(v, v)) for u, v in host.edges)),
        tuple((label.get(u, u), label.get(v, v), w) for u, v, w in subset),
    )


@st.composite
def split_instances(draw, max_a: int = 4, max_b: int = 4, max_w: int = 5) -> SplitInstance:
    """Any split partition: the clique may be empty and a B vertex may have
    no clique neighbor."""
    n_a = draw(st.integers(min_value=0, max_value=max_a))
    n_b = draw(st.integers(min_value=0 if n_a else 1, max_value=max_b))
    n = n_a + n_b
    weights = tuple(draw(st.integers(min_value=1, max_value=max_w)) for _ in range(n))
    edges = [(u, v) for u in range(n_a) for v in range(u + 1, n_a)]
    for b in range(n_a, n):
        hits = draw(st.sets(st.integers(min_value=0, max_value=n_a - 1))) if n_a else set()
        edges.extend((a, b) for a in sorted(hits))
    g = WeightedGraph.from_edges(weights, edges)
    return validate_split(g, frozenset(range(n_a)), frozenset(range(n_a, n)))


@st.composite
def subtree_instances(draw, max_n: int = 7, max_subtrees: int = 6, max_w: int = 4):
    """A host tree with a family of connected subtrees and weights."""
    host = draw(host_trees(max_n=max_n))
    adj = host.adjacency()
    k = draw(st.integers(min_value=1, max_value=max_subtrees))
    subtrees = []
    weights = []
    for _ in range(k):
        size = draw(st.integers(min_value=1, max_value=host.n))
        members = {draw(st.integers(min_value=0, max_value=host.n - 1))}
        while len(members) < size:
            frontier = sorted({x for m in members for x in adj[m]} - members)
            if not frontier:
                break
            members.add(frontier[draw(st.integers(min_value=0, max_value=len(frontier) - 1))])
        subtrees.append(frozenset(members))
        weights.append(draw(st.integers(min_value=1, max_value=max_w)))
    return host, tuple(subtrees), tuple(weights)


@st.composite
def corrupted(draw, cert: Certificate, weights: Sequence[int]) -> Certificate:
    """The certificate, kept or broken in one way: one unit of f moved, one
    member swapped or added, one member added and the value set to the
    members' weight, or f and the set replaced by random ones or by a random
    set with f = w on it."""
    n = len(weights)
    f = dict(cert.dominating.values)
    members = set(cert.dispersed)
    value = cert.value
    vertex = st.integers(min_value=0, max_value=n - 1)
    how = draw(st.sampled_from(["keep", "move", "swap", "add", "value", "random", "cover"]))
    if how == "move" and f:
        source = draw(st.sampled_from(sorted(f)))
        f[source] -= 1
        target = draw(vertex)
        f[target] = f.get(target, 0) + 1
    elif how == "swap" and members:
        members.remove(draw(st.sampled_from(sorted(members))))
        members.add(draw(vertex))
    elif how == "add":
        members.add(draw(vertex))
    elif how == "value":
        members.add(draw(vertex))
        value = sum(weights[m] for m in members)
    elif how == "random":
        f = {v: draw(st.integers(min_value=0, max_value=3)) for v in range(n)}
        members = draw(st.sets(vertex))
        value = sum(f.values())
    elif how == "cover":
        members = draw(st.sets(vertex))
        f = {m: weights[m] for m in members}
        value = sum(f.values())
    return Certificate(DominationFunction(f), frozenset(members), value)


def seeded_corruptions(cert: Certificate, graph: WeightedGraph, seed: int) -> list[Certificate]:
    """The certificate and ten broken copies of it, drawn from `LCG(seed)`:
    an `f` line dropped; a value changed by +1 or -1; one unit of mass moved
    onto a neighbor; an `I` member added, removed or swapped; the `value` line
    bumped by +1 or -1; an id past the end or a negative one put in f and in I.
    A copy that needs something the certificate lacks (a nonzero f, a member,
    a vertex with a neighbor) is the certificate itself."""
    rng, n = LCG(seed), graph.n
    f, members, value = dict(cert.dominating.values), sorted(cert.dispersed), cert.value

    def pick(items):
        return items[rng.draw(len(items))] if items else None

    def copy(values=f, ids=members, total=value):
        return Certificate(DominationFunction(values), frozenset(ids), total)

    def stray():
        return n + rng.draw(3) if rng.draw(2) else -1 - rng.draw(3)

    out = [cert]
    v = pick(sorted(f))
    out.append(copy({u: x for u, x in f.items() if u != v}))
    v = rng.draw(n)
    out.append(copy({**f, v: f.get(v, 0) + (1 if rng.draw(2) or not f.get(v) else -1)}))
    v = pick(sorted(u for u in f if graph.adjacency[u]))
    if v is None:
        out.append(cert)
    else:
        u = pick(sorted(graph.adjacency[v]))
        out.append(copy({**f, v: f[v] - 1, u: f.get(u, 0) + 1}))
    out.append(copy(ids=[*members, rng.draw(n)]))
    gone = pick(members)
    out.append(copy(ids=[m for m in members if m != gone]))
    out.append(copy(ids=[*(m for m in members if m != gone), rng.draw(n)]))
    out.append(copy(total=value + (1 if rng.draw(2) else -1)))
    out.append(copy({**f, stray(): 1 + rng.draw(3)}))
    out.append(copy(ids=[*members, stray()]))
    # a stray id in each: the f one is reported first
    out.append(copy({**f, stray(): 1}, [*members, stray()]))
    return out


def outcome(checker: Callable[..., CertificateCheck], *args) -> str | None:
    """What a checker decides: None when the certificate holds, else its
    reason or the UnknownVertex it raised."""
    try:
        return checker(*args).reason
    except UnknownVertex as exc:
        return f"UnknownVertex: {exc}"
