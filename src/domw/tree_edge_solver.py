"""Exact weighted domination and dispersion on line graphs of tree edge sets.

The instance is a subset F of the edges of a host tree; the graph to dominate
is the intersection graph of F (edges are adjacent when they share a tree
vertex).  Dropping the unused tree edges splits the host into components on
which F is the full edge set, so each component is processed as a rooted tree:
a bottom-up pass charges every edge with the worst deficit among its sons, a
root adjustment closes the remaining gap, and a top-down peeling collects a
dispersed set of edges whose weight matches the function size exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .errors import EmptyEdgeSet, TheoremViolation, UnknownVertex
from .graph_core import (
    Certificate,
    DominationFunction,
    HostTree,
    WeightedGraph,
    build_intersection_graph,
    verify_certificate,
)

# an F entry: (endpoint, endpoint, weight); its position is the edge id
FEdge = tuple[int, int, int]


@dataclass(frozen=True)
class RootedEdgeTree:
    """One component of the selected edges, oriented away from its root."""

    root: int
    vertices: frozenset[int]
    edge_ids: tuple[int, ...]  # ids into the original F sequence
    ends: Mapping[int, tuple[int, int]]  # edge id -> (parent side, child side)
    weight: Mapping[int, int]
    out_edges: Mapping[int, tuple[int, ...]]  # A(v), sorted by edge id
    height: Mapping[int, int]  # longest edge path below the child end


@dataclass(frozen=True)
class DeletionLayers:
    """Per-layer record of the peeling: chosen edges and everything deleted."""

    chosen: tuple[frozenset[int], ...]
    deleted: tuple[frozenset[int], ...]


def _incidence(edges: Iterable[tuple[int, FEdge]]) -> dict[int, list[tuple[int, int, int]]]:
    """touching[v]: an (edge id, other end, weight) entry per edge (eid, (u, v, w)) at v."""
    touching: dict[int, list[tuple[int, int, int]]] = {}
    for eid, (u, v, w) in edges:
        touching.setdefault(u, []).append((eid, v, w))
        touching.setdefault(v, []).append((eid, u, w))
    return touching


def _build_rooted(root: int, touching: Mapping[int, Sequence[tuple[int, int, int]]]) -> RootedEdgeTree:
    """The component of root, found and oriented by one DFS from root."""
    ends: dict[int, tuple[int, int]] = {}
    weight: dict[int, int] = {}
    out_edges: dict[int, list[int]] = {root: []}
    stack = [root]
    while stack:
        u = stack.pop()
        for eid, v, w in touching[u]:
            if eid in ends:
                continue
            ends[eid] = (u, v)
            weight[eid] = w
            out_edges[u].append(eid)
            out_edges[v] = []
            stack.append(v)
    # every edge is discovered after its parent edge, so the reverse of the
    # discovery order meets each edge after all the edges below it
    height: dict[int, int] = {}
    for eid in reversed(ends):
        below = [height[e2] for e2 in out_edges[ends[eid][1]]]
        height[eid] = 1 + max(below) if below else 0
    return RootedEdgeTree(
        root=root,
        vertices=frozenset(out_edges),
        edge_ids=tuple(sorted(ends)),
        ends=ends,
        weight=weight,
        out_edges={v: tuple(sorted(es)) for v, es in out_edges.items()},
        height=height,
    )


def choose_root(t: RootedEdgeTree) -> int:
    """The canonical root: the smallest vertex id of the component."""
    return min(t.vertices)


def rooted_at(t: RootedEdgeTree, root: int) -> RootedEdgeTree:
    """The same component re-oriented away from another root."""
    if root not in t.vertices:
        raise UnknownVertex(f"vertex {root} is not in this component")
    edges = ((eid, (*t.ends[eid], t.weight[eid])) for eid in t.edge_ids)
    return _build_rooted(root, _incidence(edges))


def _validate_edge_subset(host: HostTree, subset: Sequence[FEdge]) -> None:
    if not subset:
        raise EmptyEdgeSet("the selected edge set is empty")
    tree_edges = {(u, v) if u < v else (v, u) for u, v in host.edges}
    seen: set[tuple[int, int]] = set()
    for u, v, w in subset:
        key = (u, v) if u < v else (v, u)
        if key not in tree_edges:
            raise ValueError(f"({u}, {v}) is not an edge of the host tree")
        if key in seen:
            raise ValueError(f"edge ({u}, {v}) selected twice")
        seen.add(key)
        if w < 1:
            raise ValueError(f"edge ({u}, {v}) must have positive weight")


def reduce_to_full_tree(host: HostTree, subset: Sequence[FEdge]) -> tuple[RootedEdgeTree, ...]:
    """Drop unselected host edges and return each component, canonically rooted."""
    _validate_edge_subset(host, subset)
    adj = _incidence(enumerate(subset))
    visited: set[int] = set()
    components: list[RootedEdgeTree] = []
    # each component starts at its smallest vertex, its canonical root
    for start in sorted(adj):
        if start not in visited:
            t = _build_rooted(start, adj)
            visited |= t.vertices
            components.append(t)
    return tuple(components)


def bottom_up_f(t: RootedEdgeTree) -> DominationFunction:
    """Charge each edge with the worst remaining deficit among its sons.

    Processing by ascending height, an edge e = (u, v) receives
    max over sons e' = (v, x) of (w(e') - f[A(v)] - f[A(x)])^+, which makes
    f cover every edge except possibly those at the root.
    """
    values: dict[int, int] = {}

    def over(eids: Iterable[int]) -> int:
        return sum(values.get(e, 0) for e in eids)

    for eid in sorted(t.edge_ids, key=lambda e: (t.height[e], e)):
        child = t.ends[eid][1]
        sons = t.out_edges[child]
        if not sons:
            continue
        covered = over(sons)
        worst = 0
        for son in sons:
            grandchild = t.ends[son][1]
            deficit = t.weight[son] - covered - over(t.out_edges[grandchild])
            worst = max(worst, deficit)
        if worst > 0:
            values[eid] = worst
    return DominationFunction(values)


def root_adjust(t: RootedEdgeTree, f: DominationFunction) -> tuple[DominationFunction, int, int | None]:
    """Close the gap d left at the root edges; returns (g, d, chosen edge).

    When d <= 0 the bottom-up function already dominates everything and is
    returned unchanged with no chosen edge.
    """
    root_edges = t.out_edges[t.root]
    at_root = sum(f(e) for e in root_edges)
    d = None
    e0 = None
    for eid in root_edges:
        child = t.ends[eid][1]
        gap = t.weight[eid] - at_root - sum(f(e) for e in t.out_edges[child])
        if d is None or gap > d:
            d = gap
            e0 = eid
    if d is None:  # a component always has at least one root edge
        raise TheoremViolation("the root has no out-edge")
    if d <= 0:
        return f, d, None
    bumped = dict(f.values)
    bumped[e0] = bumped.get(e0, 0) + d
    return DominationFunction(bumped), d, e0


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
    incident: dict[int, set[int]] = {v: set() for v in t.vertices}
    for eid in t.edge_ids:
        u, v = t.ends[eid]
        incident[u].add(eid)
        incident[v].add(eid)

    def restricted_neighborhood(eid: int, remaining: set[int]) -> set[int]:
        u, v = t.ends[eid]
        return (incident[u] | incident[v]) & remaining

    remaining = set(t.edge_ids)
    chosen_layers: list[frozenset[int]] = []
    deleted_layers: list[frozenset[int]] = []
    first = True
    # A layer deletes every remaining out-edge of its roots, so the next
    # layer's roots are the child ends of the edges this layer deleted.
    roots = [t.root]
    while remaining:
        chosen: list[int] = []
        if first and d > 0:
            if e0 is None:
                raise TheoremViolation("a positive root adjustment names no root edge")
            chosen.append(e0)
        else:
            for v_s in roots:
                for eid in t.out_edges[v_s]:
                    if eid not in remaining or g(eid) == 0:
                        continue
                    child = t.ends[eid][1]
                    candidates = [
                        son
                        for son in t.out_edges[child]
                        if son in remaining
                        and sum(g(e) for e in restricted_neighborhood(son, remaining))
                        == t.weight[son]
                    ]
                    if not candidates:
                        raise TheoremViolation(
                            f"no candidate son pays for root edge {eid} exactly"
                        )
                    candidates.sort(key=lambda e: (-g(e), e))
                    chosen.append(candidates[0])
        deleted: set[int] = set()
        for eid in chosen:
            deleted |= restricted_neighborhood(eid, remaining)
        for v_s in roots:
            for eid in t.out_edges[v_s]:
                if eid in remaining and g(eid) == 0:
                    deleted.add(eid)
        # an empty layer would never end the peeling
        if not deleted or sum(g(e) for e in deleted) != sum(t.weight[e] for e in chosen):
            raise TheoremViolation("layer accounting failed: empty layer or deleted mass != chosen weight")
        remaining -= deleted
        roots = sorted({t.ends[e][1] for e in deleted})
        chosen_layers.append(frozenset(chosen))
        deleted_layers.append(frozenset(deleted))
        first = False

    dispersed = frozenset().union(*chosen_layers) if chosen_layers else frozenset()
    if sum(t.weight[e] for e in dispersed) != sum(g(e) for e in t.edge_ids):
        raise TheoremViolation("dispersed weight does not match the function size")
    return dispersed, DeletionLayers(tuple(chosen_layers), tuple(deleted_layers))


def solve_rooted(t: RootedEdgeTree) -> tuple[DominationFunction, frozenset[int], DeletionLayers]:
    """Full pipeline on one rooted component."""
    f = bottom_up_f(t)
    g, d, e0 = root_adjust(t, f)
    dispersed, layers = extract_dispersed_tree(t, g, d, e0)
    return g, dispersed, layers


def edge_line_graph(host: HostTree, subset: Sequence[FEdge]) -> WeightedGraph:
    """The intersection graph of the selected edges, ids in subset order."""
    _validate_edge_subset(host, subset)
    return _line_graph(host, subset)


def _line_graph(host: HostTree, subset: Sequence[FEdge]) -> WeightedGraph:
    return build_intersection_graph(
        host, [{u, v} for u, v, _ in subset], [w for _, _, w in subset]
    )


def solve_tree(host: HostTree, subset: Sequence[FEdge]) -> Certificate:
    """Certificate with gamma_w = rho_w on the line graph of the edge subset."""
    components = reduce_to_full_tree(host, subset)
    values: dict[int, int] = {}
    dispersed: set[int] = set()
    for comp in components:
        g, chosen, _ = solve_rooted(comp)
        values.update(g.values)
        dispersed |= chosen
    total = DominationFunction(values)
    cert = Certificate(total, frozenset(dispersed), total.size)
    # reduce_to_full_tree has validated the subset already
    check = verify_certificate(_line_graph(host, subset), cert)
    if not check:
        raise TheoremViolation(f"certificate failed re-verification: {check.reason}")
    return cert
