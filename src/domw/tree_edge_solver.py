"""Exact weighted domination and dispersion on line graphs of tree edge sets.

The instance is a subset F of the edges of a host tree; the graph to dominate
is the intersection graph of F (edges are adjacent when they share a tree
vertex).  Dropping the unused tree edges splits the host into components on
which F is the full edge set, so each component is processed as a rooted tree:
a bottom-up pass charges every edge with the worst deficit among its sons, a
root adjustment closes the remaining gap, and a top-down peeling collects a
dispersed set of edges whose weight matches the function size exactly.

`solve_tree` runs each phase once over the whole forest, on lists over the
host filled by one loop of searches: each vertex's edges, each edge's two ends,
and every edge, component after component, each after the edge above it.
Bottom-up and root adjustment keep A[v], f summed over v's out-edges; the
peeling keeps each vertex's remaining mass, so a son (x, y) is paid exactly on
its remaining neighborhood when mass[x] + mass[y] - g(son) == w(son), an O(1)
test.  A layer walks the edges at its roots, then those at its chosen edges'
ends, in place; the loop that deletes them checks that each chosen edge frees
mass equal to its weight.  A `RootedEdgeTree` is a view on those lists: a root
and its component's edges in search order.  The public phase functions run the
same code on the same lists, with their sums in dicts over the one component.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Sequence

from .checkers import check_tree_edges, self_check
from .errors import EmptyEdgeSet, TheoremViolation
from .graph_core import Certificate, DominationFunction, HostTree, WeightedGraph, _intersection_graph

# an F entry: (endpoint, endpoint, weight); its position is the edge id
FEdge = tuple[int, int, int]
# phase state by edge id or vertex: lists over the whole host, or dicts over one component
_Ints = list[int] | dict[int, int]
_Flags = list[bool] | dict[int, bool]
_Start = tuple[int, int, int | None]  # a component's (root, d, e0) for the peeling


@dataclass(frozen=True)
class DeletionLayers:
    """Per-layer record of the peeling: chosen edges and everything deleted."""

    chosen: tuple[frozenset[int], ...]
    deleted: tuple[frozenset[int], ...]


class _Tables(NamedTuple):
    """An oriented forest, as lists over the selected edges and the host vertices."""

    parent: list[int]  # edge -> parent end, -1 before orientation
    child: list[int]  # edge -> child end, -1 before orientation
    weight: list[int]
    touching: list[list[int]]  # vertex -> its edges by id: its parent edge, if any, and its out-edges


@dataclass(frozen=True)
class RootedEdgeTree:
    """One component of the selected edges, oriented away from its root: a view on the forest's tables."""

    root: int
    order: tuple[int, ...]  # ids into the original F sequence, each after the edge above it
    tables: _Tables = field(repr=False, compare=False)

    @property
    def vertices(self) -> frozenset[int]:
        return frozenset((self.root, *map(self.tables.child.__getitem__, self.order)))


def _forest(n: int, subset: Sequence[FEdge]) -> tuple[_Tables, list[int], list[int], list[int]]:
    """The selected forest on vertices 0..n-1, each component oriented away from its
    smallest vertex by a breadth-first search: the tables, the roots in ascending
    order, every edge (component after component, each after the edge above it)
    and each component's start in that list."""
    touching: list[list[int]] = [[] for _ in range(n)]
    for e, (u, v, _) in enumerate(subset):
        touching[u].append(e)
        touching[v].append(e)
    tb = _Tables([-1] * len(subset), [-1] * len(subset), [w for _, _, w in subset], touching)
    parent, child = tb.parent, tb.child
    other = [u ^ v for u, v, _ in subset]  # XOR of e's ends
    roots, edges, starts = [], [], []
    for r in range(n):
        # a vertex reached from a smaller root already has an oriented edge
        if touching[r] and child[touching[r][0]] < 0:
            roots.append(r)
            starts.append(len(edges))
            reached = [r]
            for u in reached:
                for e in touching[u]:
                    if child[e] < 0:
                        parent[e] = u
                        child[e] = v = other[e] ^ u
                        edges.append(e)
                        reached.append(v)
    return tb, roots, edges, starts


def _normalized(host: HostTree, subset: Sequence[FEdge]) -> tuple[FEdge, ...]:
    """The selection in host edge order and orientation; rejects an empty
    selection, an edge outside the host, an edge selected twice and a weight
    that is no int or below 1.

    A selection that is already a subsequence of the host edges, each in host
    orientation with an int weight of at least 1, is returned as it is: one pass over
    the host edges tells.  Any other selection is placed by position.
    """
    if not subset:
        raise EmptyEdgeSet("the selected edge set is empty")
    rest = iter(host.edges)
    if all((u, v) in rest and type(w) is int and w >= 1 for u, v, w in subset):
        return tuple(subset)
    position = {(u, v) if u < v else (v, u): i for i, (u, v) in enumerate(host.edges)}
    weight = [0] * len(host.edges)
    for u, v, w in subset:
        i = position.get((u, v) if u < v else (v, u))
        if i is None:
            raise ValueError(f"({u}, {v}) is not an edge of the host tree")
        if weight[i]:
            raise ValueError(f"edge ({u}, {v}) selected twice")
        if type(w) is not int:
            raise ValueError(f"edge ({u}, {v}) must have an integer weight")
        if w < 1:
            raise ValueError(f"edge ({u}, {v}) must have positive weight")
        weight[i] = w
    return tuple((u, v, w) for (u, v), w in zip(host.edges, weight) if w)


def reduce_to_full_tree(host: HostTree, subset: Sequence[FEdge]) -> tuple[RootedEdgeTree, ...]:
    """Drop unselected host edges and return each component, canonically rooted."""
    _normalized(host, subset)
    tb, roots, edges, starts = _forest(host.n, subset)
    ends = [*starts[1:], len(edges)]
    return tuple(RootedEdgeTree(r, tuple(edges[a:b]), tb) for r, a, b in zip(roots, starts, ends))


def _bottom_up(tb: _Tables, upward: Iterable[int], f: _Ints, at: _Ints) -> None:
    """Charge f on the edges of upward, each listed after all the edges below it.
    f and at start at 0; at[v] stays f summed over v's out-edges."""
    parent, child, weight, touching = tb
    for e in upward:
        c = child[e]
        # the deficit of son s is weight[s] - at[child[s]] - at[c]
        top = at[c]
        for s in touching[c]:
            if s != e and weight[s] - at[child[s]] > top:
                top = weight[s] - at[child[s]]
        if top > at[c]:
            f[e] = top - at[c]
            at[parent[e]] += top - at[c]


def bottom_up_f(t: RootedEdgeTree) -> DominationFunction:
    """Charge each edge with the worst remaining deficit among its sons.

    Processing each edge after the edges below it, an edge e = (u, v) receives
    max over sons e' = (v, x) of (w(e') - f[A(v)] - f[A(x)])^+, which makes
    f cover every edge except possibly those at the root.
    """
    f = dict.fromkeys(t.order, 0)
    _bottom_up(t.tables, reversed(t.order), f, dict.fromkeys(t.vertices, 0))
    return DominationFunction(f)


def _root_gaps(tb: _Tables, roots: Iterable[int], at: _Ints) -> list[_Start]:
    """(root, d, e0) per root: d the largest w(e) - f[A(root)] - f[A(child end)] over its edges, e0 the first by id."""
    _, child, weight, touching = tb
    starts: list[_Start] = []
    for root in roots:
        edges = touching[root]
        if not edges:  # a component always has at least one root edge
            raise TheoremViolation("the root has no out-edge")
        e0 = edges[0]
        top = weight[e0] - at[child[e0]]
        for e in edges:  # in id order, so only a strictly larger gap moves e0
            gap = weight[e] - at[child[e]]
            if gap > top:
                top, e0 = gap, e
        starts.append((root, top - at[root], e0))
    return starts


def root_adjust(t: RootedEdgeTree, f: DominationFunction) -> tuple[DominationFunction, int, int | None]:
    """Close the gap d left at the root edges; returns (g, d, chosen edge).

    When d <= 0 the bottom-up function already dominates everything and is
    returned unchanged with no chosen edge.
    """
    at = dict.fromkeys(t.vertices, 0)
    for e in t.order:
        at[t.tables.parent[e]] += f(e)
    ((_, d, e0),) = _root_gaps(t.tables, [t.root], at)
    if d <= 0:
        return f, d, None
    return DominationFunction({**f.values, e0: f(e0) + d}), d, e0


def _peel(
    tb: _Tables, starts: Sequence[_Start], edges: Sequence[int], g: _Ints, mass: _Ints, alive: _Flags
) -> list[tuple[list[int], list[int]]]:
    """The (chosen, deleted) edges of each peeling layer of the components with edges, one start each,
    on which mass starts at 0 and alive at true; mass[v] stays g summed over v's alive edges.
    Components share no vertex, so layer k of the forest is layer k of each component."""
    parent, child, weight, touching = tb
    for e in edges:
        ge = g[e]
        mass[parent[e]] += ge
        mass[child[e]] += ge
    layers: list[tuple[list[int], list[int]]] = []
    left = len(edges)
    # A positive adjustment elects e0 alone in its component's first layer.  A
    # layer deletes every remaining out-edge of its roots, so the next layer's
    # roots are the child ends of the edges it deleted, and their parent edges are gone.
    chosen = [e0 for _, d, e0 in starts if d > 0]
    roots: Iterable[int] = [root for root, d, _ in starts if d <= 0]
    if None in chosen:
        raise TheoremViolation("a positive root adjustment names no root edge")
    while left:
        deleted: list[int] = []
        for v in roots:
            for e in touching[v]:
                if not alive[e]:
                    continue
                if not g[e]:  # a zero root edge is no son in this layer and holds no mass
                    alive[e] = False
                    deleted.append(e)
                    continue
                c = child[e]
                at_c = mass[c]
                best, top = -1, -1  # the son paid exactly with the largest g, then the smallest id
                for s in touching[c]:
                    if s != e and alive[s]:
                        gs = g[s]
                        if gs > top and at_c + mass[child[s]] - gs == weight[s]:
                            best, top = s, gs
                if best < 0:
                    raise TheoremViolation(f"no candidate son pays for root edge {e} exactly")
                chosen.append(best)
        off = 0  # nonzero once a chosen edge frees other mass than its weight
        for s in chosen:
            rest = weight[s]
            for x in (parent[s], child[s]):
                for e in touching[x]:
                    if alive[e]:
                        alive[e] = False
                        deleted.append(e)
                        ge = g[e]
                        mass[parent[e]] -= ge
                        mass[child[e]] -= ge
                        rest -= ge
            off |= rest
        # an empty layer would never end the peeling
        if not deleted or off:
            raise TheoremViolation("layer accounting failed: empty layer or deleted mass != chosen weight")
        left -= len(deleted)
        layers.append((chosen, deleted))
        chosen, roots = [], map(child.__getitem__, deleted)
    return layers


def extract_dispersed_tree(
    t: RootedEdgeTree,
    g: DominationFunction,
    d: int,
    e0: int | None,
) -> tuple[frozenset[int], DeletionLayers]:
    """Peel the tree layer by layer, collecting a dispersed edge set.

    Within each not-yet-deleted subtree, every positive root edge elects one
    of its sons whose weight is paid exactly by g on the son's remaining
    neighborhood; the son, its neighbors, and the zero root edges are deleted.
    Each elected edge frees mass equal to its weight, so the final set pays
    for all of g.
    """
    g_at = {e: g(e) for e in t.order}
    layers = _peel(t.tables, [(t.root, d, e0)], t.order, g_at, dict.fromkeys(t.vertices, 0), dict.fromkeys(g_at, True))
    chosen = tuple(frozenset(c) for c, _ in layers)
    return frozenset().union(*chosen), DeletionLayers(chosen, tuple(frozenset(x) for _, x in layers))


def edge_line_graph(host: HostTree, subset: Sequence[FEdge]) -> WeightedGraph:
    """The intersection graph of the selected edges, ids in subset order.

    `_normalized` proves each selected edge a host edge, so each is the
    subtree {u, v} whose top is the end the host's parent table names as the
    other's parent, and no subtree check runs."""
    _normalized(host, subset)
    parent = host._parent
    checked = [((u, v), u if parent[v] == u else v) for u, v, _ in subset]
    return _intersection_graph(host.n, checked, [w for _, _, w in subset])


def _solve_forest(n: int, subset: Sequence[FEdge]) -> Certificate:
    """solve_tree on a selection checked against a host on vertices 0..n-1; the self-check refuses an empty one."""
    tb, roots, edges, _ = _forest(n, subset)
    f, at = [0] * len(subset), [0] * n
    # each phase runs once over the whole forest; reversed, edges puts each edge after the edges below it
    _bottom_up(tb, reversed(edges), f, at)
    starts = _root_gaps(tb, roots, at)
    for _, d, e0 in starts:
        if d > 0:
            f[e0] += d
    layers = _peel(tb, starts, edges, f, [0] * n, [True] * len(subset))
    total = DominationFunction({e: x for e, x in enumerate(f) if x})
    dispersed = frozenset(s for chosen, _ in layers for s in chosen)
    return self_check(check_tree_edges, subset, Certificate(total, dispersed, total.size))


def solve_tree(host: HostTree, subset: Sequence[FEdge]) -> Certificate:
    """Certificate with gamma_w = rho_w on the line graph of the edge subset; no graph is built."""
    _normalized(host, subset)
    return _solve_forest(host.n, subset)
