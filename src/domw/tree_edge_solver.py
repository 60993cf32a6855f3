"""Exact weighted domination and dispersion on line graphs of tree edge sets.

The instance is a subset F of the edges of a host tree; the graph to dominate
is the intersection graph of F (edges are adjacent when they share a tree
vertex).  Dropping the unused tree edges splits the host into components on
which F is the full edge set, so each component is processed as a rooted tree:
a bottom-up pass charges every edge with the worst deficit among its sons, a
root adjustment closes the remaining gap, and a top-down peeling collects a
dispersed set of edges whose weight matches the function size exactly.

`solve_tree` runs the phases on lists over the whole host, filled by one
search per component: each vertex's edges and each edge's two ends.  Bottom-up
and root adjustment keep A[v], f summed over v's out-edges; the peeling keeps
each vertex's remaining mass, so a son (x, y) is paid exactly on its remaining
neighborhood when mass[x] + mass[y] - g(son) == w(son), an O(1) test.  A
layer walks the edges at its roots, then those at its chosen edges' ends, in
place; the loop that deletes them also sums the weight paid and the mass
freed, which must match per layer, as their running sum must match the
component's mass.  A `RootedEdgeTree` is a view on those lists: a root and its
component's edges in search order.  The public phase functions run the same
code on the same lists, with their sums in dicts over the one component.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Sequence

from .checkers import check_tree_edges, self_check
from .errors import EmptyEdgeSet, TheoremViolation
from .graph_core import (
    Certificate,
    DominationFunction,
    HostTree,
    WeightedGraph,
    build_intersection_graph,
)

# an F entry: (endpoint, endpoint, weight); its position is the edge id
FEdge = tuple[int, int, int]
# phase state by edge id or vertex: lists over the whole host, or dicts over one component
_Ints = list[int] | dict[int, int]
_Flags = list[bool] | dict[int, bool]


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


def _orient(tb: _Tables, other: list[int], root: int) -> list[int]:
    """Orient root's component away from root, other[e] being the XOR of e's
    ends; returns its edges, each after the edge above it."""
    parent, child, _, touching = tb
    order: list[int] = []
    reached = [root]
    for u in reached:
        for e in touching[u]:
            if child[e] < 0:
                parent[e] = u
                child[e] = v = other[e] ^ u
                order.append(e)
                reached.append(v)
    return order


def _forest(n: int, subset: Sequence[FEdge]) -> tuple[_Tables, list[tuple[int, list[int]]]]:
    """The selected forest on vertices 0..n-1, and (root, `_orient` order) per component,
    each rooted at its smallest vertex, in the order of their roots."""
    touching: list[list[int]] = [[] for _ in range(n)]
    for e, (u, v, _) in enumerate(subset):
        touching[u].append(e)
        touching[v].append(e)
    tb = _Tables([-1] * len(subset), [-1] * len(subset), [w for _, _, w in subset], touching)
    other = [u ^ v for u, v, _ in subset]
    # a vertex reached from a smaller root already has an oriented edge
    return tb, [(r, _orient(tb, other, r)) for r in range(n) if touching[r] and tb.child[touching[r][0]] < 0]


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
    if all((u, v) in rest and isinstance(w, int) and w >= 1 for u, v, w in subset):
        return tuple(subset)
    position = {(u, v) if u < v else (v, u): i for i, (u, v) in enumerate(host.edges)}
    weight = [0] * len(host.edges)
    for u, v, w in subset:
        i = position.get((u, v) if u < v else (v, u))
        if i is None:
            raise ValueError(f"({u}, {v}) is not an edge of the host tree")
        if weight[i]:
            raise ValueError(f"edge ({u}, {v}) selected twice")
        if not isinstance(w, int):
            raise ValueError(f"edge ({u}, {v}) must have an integer weight")
        if w < 1:
            raise ValueError(f"edge ({u}, {v}) must have positive weight")
        weight[i] = w
    return tuple((u, v, w) for (u, v), w in zip(host.edges, weight) if w)


def reduce_to_full_tree(host: HostTree, subset: Sequence[FEdge]) -> tuple[RootedEdgeTree, ...]:
    """Drop unselected host edges and return each component, canonically rooted."""
    _normalized(host, subset)
    tb, components = _forest(host.n, subset)
    return tuple(RootedEdgeTree(root, tuple(order), tb) for root, order in components)


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


def _root_gap(tb: _Tables, root: int, at: _Ints) -> tuple[int, int]:
    """The largest w(e) - f[A(root)] - f[A(child end)] over the root's edges, and its first edge by id."""
    edges, weight, child = tb.touching[root], tb.weight, tb.child
    if not edges:  # a component always has at least one root edge
        raise TheoremViolation("the root has no out-edge")
    e0 = edges[0]
    top = weight[e0] - at[child[e0]]
    for e in edges:  # in id order, so only a strictly larger gap moves e0
        gap = weight[e] - at[child[e]]
        if gap > top:
            top, e0 = gap, e
    return top - at[root], e0


def root_adjust(t: RootedEdgeTree, f: DominationFunction) -> tuple[DominationFunction, int, int | None]:
    """Close the gap d left at the root edges; returns (g, d, chosen edge).

    When d <= 0 the bottom-up function already dominates everything and is
    returned unchanged with no chosen edge.
    """
    at = dict.fromkeys(t.vertices, 0)
    for e in t.order:
        at[t.tables.parent[e]] += f(e)
    d, e0 = _root_gap(t.tables, t.root, at)
    if d <= 0:
        return f, d, None
    return DominationFunction({**f.values, e0: f(e0) + d}), d, e0


def _peel(
    tb: _Tables, root: int, d: int, e0: int | None, edges: Sequence[int], g: _Ints, mass: _Ints, alive: _Flags
) -> list[tuple[list[int], list[int]]]:
    """The (chosen, deleted) edges of each peeling layer of one component, on which
    mass starts at 0 and alive at true; mass[v] stays g summed over v's alive edges."""
    parent, child, weight, touching = tb
    for e in edges:
        ge = g[e]
        mass[parent[e]] += ge
        mass[child[e]] += ge
    if d > 0 and e0 is None:
        raise TheoremViolation("a positive root adjustment names no root edge")
    layers: list[tuple[list[int], list[int]]] = []
    left = len(edges)
    # A positive adjustment elects e0 alone in the first layer.  A layer
    # deletes every remaining out-edge of its roots, so the next layer's roots
    # are the child ends of the edges it deleted, and their parent edges are gone.
    chosen, roots = ([e0], []) if d > 0 else ([], [root])
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
        paid = freed = 0
        for s in chosen:
            paid += weight[s]
            for x in (parent[s], child[s]):
                for e in touching[x]:
                    if alive[e]:
                        alive[e] = False
                        deleted.append(e)
                        ge = g[e]
                        mass[parent[e]] -= ge
                        mass[child[e]] -= ge
                        freed += ge
        # an empty layer would never end the peeling
        if not deleted or freed != paid:
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
    Per layer the deleted mass equals the weight of the elected edges, so the
    final set pays for all of g.
    """
    g_at = {e: g(e) for e in t.order}
    layers = _peel(t.tables, t.root, d, e0, t.order, g_at, dict.fromkeys(t.vertices, 0), dict.fromkeys(g_at, True))
    chosen = tuple(frozenset(c) for c, _ in layers)
    return frozenset().union(*chosen), DeletionLayers(chosen, tuple(frozenset(x) for _, x in layers))


def edge_line_graph(host: HostTree, subset: Sequence[FEdge]) -> WeightedGraph:
    """The intersection graph of the selected edges, ids in subset order."""
    _normalized(host, subset)
    return build_intersection_graph(host, [{u, v} for u, v, _ in subset], [w for _, _, w in subset])


def _solve_forest(n: int, subset: Sequence[FEdge]) -> Certificate:
    """solve_tree on a selection checked against a host on vertices 0..n-1; the self-check refuses an empty one."""
    tb, components = _forest(n, subset)
    f, at, mass, alive = [0] * len(subset), [0] * n, [0] * n, [True] * len(subset)
    dispersed: list[int] = []
    for root, order in components:
        _bottom_up(tb, reversed(order), f, at)
        d, e0 = _root_gap(tb, root, at)
        if d > 0:
            f[e0] += d
        dispersed += [s for chosen, _ in _peel(tb, root, d, e0, order, f, mass, alive) for s in chosen]
    total = DominationFunction({e: x for e, x in enumerate(f) if x})
    return self_check(check_tree_edges, subset, Certificate(total, frozenset(dispersed), total.size))


def solve_tree(host: HostTree, subset: Sequence[FEdge]) -> Certificate:
    """Certificate with gamma_w = rho_w on the line graph of the edge subset; no graph is built."""
    _normalized(host, subset)
    return _solve_forest(host.n, subset)
