"""Core graph types and the predicates every solver and oracle is judged by.

A function f: V -> N w-dominates a vertex u when f summed over the closed
neighborhood N(u) reaches the weight w(u).  A set is dispersed when all
pairwise distances are at least 3 (vertices in different components count).
A certificate couples a w-dominating function with a dispersed set of equal
total value; by weak duality it proves both are optimal.

Two distinct vertices are at distance at most 2 exactly when their closed
neighborhoods meet, so a set is dispersed exactly when no vertex lies in the
closed neighborhoods of two members.  Both certificate predicates therefore
run in O(n + m) by marking neighborhoods, with no shortest-path search.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from operator import ge, lt
from typing import Iterable, Iterator, Mapping, NoReturn, Sequence

from .errors import (
    DisconnectedSubtree,
    EmptySubtree,
    UnknownVertex,
)

Vertex = int


@dataclass(frozen=True)
class WeightedGraph:
    """Undirected graph on vertices 0..n-1 with positive integer weights."""

    weights: tuple[int, ...]  # weights[v] >= 1
    adjacency: tuple[frozenset[Vertex], ...]  # open neighborhoods, symmetric

    def __post_init__(self):
        n = len(self.weights)
        if len(self.adjacency) != n:
            raise ValueError("adjacency and weights disagree on vertex count")
        _check_weights(self.weights)
        for v, nbrs in enumerate(self.adjacency):
            for u in nbrs:
                if not 0 <= u < n:
                    raise UnknownVertex(f"vertex {u} out of range")
                if u == v:
                    raise ValueError(f"self-loop at vertex {v}")
                if v not in self.adjacency[u]:
                    raise ValueError(f"adjacency not symmetric at ({v}, {u})")

    @classmethod
    def _checked(cls, weights: tuple[int, ...], adjacency: tuple[frozenset[Vertex], ...]) -> "WeightedGraph":
        """A graph whose weights and symmetric, loop-free adjacency the caller
        has already checked."""
        g = object.__new__(cls)
        object.__setattr__(g, "weights", weights)
        object.__setattr__(g, "adjacency", adjacency)
        return g

    @classmethod
    def from_edges(cls, weights: Sequence[int], edges: Iterable[tuple[Vertex, Vertex]]) -> "WeightedGraph":
        """The graph of an edge list.  The edge range is checked first, as an
        edge indexes the neighbor sets; the constructor then checks the
        weights and self-loops."""
        n = len(weights)
        nbrs: list[set[Vertex]] = [set() for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise UnknownVertex(f"edge ({u}, {v}) out of range")
            nbrs[u].add(v)
            nbrs[v].add(u)
        return cls(tuple(weights), tuple(map(frozenset, nbrs)))

    @property
    def n(self) -> int:
        return len(self.weights)

    @property
    def vertices(self) -> range:
        return range(self.n)

    def degree(self, v: Vertex) -> int:
        return len(self.adjacency[v])


def _check_weights(weights: Sequence[int]) -> None:
    for v, w in enumerate(weights):
        if type(w) is not int or w < 1:
            raise ValueError(f"weight of vertex {v} must be a positive integer")


@dataclass(frozen=True)
class DominationFunction:
    """A function V -> N stored by its nonzero values."""

    values: dict[Vertex, int] = field(default_factory=dict)

    def __post_init__(self):
        # canonical form: drop zeros so equality is value equality
        kept: dict[Vertex, int] = {}
        for v, x in self.values.items():
            if type(x) is not int or x < 0:
                raise ValueError(f"value at vertex {v} must be a nonnegative integer")
            if x:
                kept[v] = x
        object.__setattr__(self, "values", kept)

    def __call__(self, v: Vertex) -> int:
        return self.values.get(v, 0)

    @cached_property
    def size(self) -> int:
        # kept out of the fields, so equality and repr are unchanged; values is never mutated
        return sum(self.values.values())

    @property
    def support(self) -> frozenset[Vertex]:
        return frozenset(self.values)

    def items(self) -> Iterator[tuple[Vertex, int]]:
        return iter(sorted(self.values.items()))


@dataclass(frozen=True)
class Certificate:
    """A w-dominating function and a dispersed set of matching total value."""

    dominating: DominationFunction
    dispersed: frozenset[Vertex]
    value: int


NOT_DOMINATING = "NotDominating"
NOT_DISPERSED = "NotDispersed"
VALUE_MISMATCH = "ValueMismatch"


@dataclass(frozen=True)
class CertificateCheck:
    """Outcome of verify_certificate; falsy when the certificate fails."""

    ok: bool
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.ok


def _search(n: int, edges: Sequence[tuple[Vertex, Vertex]]) -> list[Vertex] | None:
    """Each vertex's parent in a search from 0 (-1 at 0), or None when an
    edge is out of range or a loop, or when a vertex is left unreached.
    An end that is no int raises TypeError: a float indexes no list, and a
    bool would index vertex 0 or 1 but be written as `False` or `True`."""
    if not {*map(type, chain.from_iterable(edges))} <= {int}:
        raise TypeError("host tree vertices must be integers")
    nbrs: list[list[Vertex]] = [[] for _ in range(n)]
    for u, v in edges:
        if u == v or not (0 <= u < n and 0 <= v < n):
            return None
        nbrs[u].append(v)
        nbrs[v].append(u)
    parent = [-1] + [None] * (n - 1)  # None: not reached yet
    reached = [0]
    for x in reached:
        for y in nbrs[x]:
            if parent[y] is None:
                parent[y] = x
                reached.append(y)
    return parent if len(reached) == n else None


def _parent_columns(n: int, us: list[int], vs: list[int]) -> list[Vertex] | None:
    """The parent table [-1, *us] when the n - 1 int edges (us[i], vs[i]) are
    in parent order: vs is 1..n-1 and 0 <= us[i] < vs[i]; otherwise None.
    Only `HostTree._from_columns` takes this table, in place of a search."""
    if vs != list(range(1, n)) or min(us, default=0) < 0 or not all(map(lt, us, vs)):
        return None
    return [-1, *us]


@dataclass(frozen=True)
class HostTree:
    """A tree on vertices 0..n-1, the host for subtree intersection graphs.

    Construction checks the edge count, then the edges, by one search from
    0: n - 1 edges in range and without loops that reach every vertex form
    a tree.  A repeated edge always leaves a vertex unreached, so repeats
    are looked for only when the search fails, and reported ahead of `not
    connected`.  An end that is no int (a bool or a float) raises
    TypeError.  The subtree checks read the parent table that this check
    computes, which the host keeps as `_parent`.

    Callers that hold int edge columns (the file readers and the
    generators) build the host through `_from_columns` instead.  Edges in
    parent order, edge i - 1 joining some u < i to i, form a tree with no
    search: each vertex's chain of strictly smaller parents ends at 0, so
    the graph is connected, and a connected graph on n vertices with n - 1
    edges is a tree.  `gen_tree` and `gen_subtrees` write their hosts in
    this order.  Columns in any other order go through the constructor.
    """

    n: int
    edges: tuple[tuple[Vertex, Vertex], ...]

    def __post_init__(self):
        n = self.n
        if n < 1:
            raise ValueError("host tree needs at least one vertex")
        if len(self.edges) != n - 1:
            raise ValueError("a tree on n vertices has exactly n-1 edges")
        parent = _search(n, self.edges)
        if parent is None:
            _raise_host_fault(n, self.edges)
        # kept out of the fields, so equality is unchanged; never mutated
        object.__setattr__(self, "_parent", parent)

    @classmethod
    def _from_columns(cls, n: int, us: list[int], vs: list[int]) -> "HostTree":
        """The host on n >= 1 vertices with the int edges (us[i], vs[i]): in
        parent order it takes the table of `_parent_columns` and runs no
        search; in any other order the constructor checks it."""
        edges = tuple(list(zip(us, vs)))  # a list first: see `_read_tree_edges`
        parent = _parent_columns(n, us, vs)
        if parent is None:
            return cls(n, edges)
        host = object.__new__(cls)
        object.__setattr__(host, "n", n)
        object.__setattr__(host, "edges", edges)
        object.__setattr__(host, "_parent", parent)
        return host

    def adjacency(self) -> list[set[Vertex]]:
        """A fresh, mutable list of the neighbor sets, indexed by vertex."""
        adj: list[set[Vertex]] = [set() for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return adj


def _raise_host_fault(n: int, edges: Sequence[tuple[Vertex, Vertex]]) -> NoReturn:
    """Raise for the first faulty edge of n - 1 edges that do not form a tree
    on 0..n-1, checking range, self-loop and repeat in turn; with no faulty
    edge the edges leave a vertex unreached."""
    seen: set[tuple[Vertex, Vertex]] = set()
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise UnknownVertex(f"edge ({u}, {v}) out of range")
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise ValueError(f"duplicate edge ({u}, {v})")
        seen.add(key)
    raise ValueError("host tree is not connected")


def _check_ids(ids: Iterable[Vertex], n: int) -> None:
    """Raise UnknownVertex on the first of ids that is not an int in 0..n-1;
    the graph predicates and both column checkers take their ids through it.
    A bool is no id: `True` would index vertex 1 but be written as `True`."""
    for v in ids:
        if not (type(v) is int and 0 <= v < n):
            raise UnknownVertex(f"vertex {v} out of range 0..{n - 1}")


def is_dispersed(g: WeightedGraph, s: Iterable[Vertex]) -> bool:
    """True when all pairwise distances in s are at least 3.

    Vertices in different components are infinitely far apart and qualify.
    """
    adjacency = g.adjacency
    members = set(s)
    _check_ids(members, g.n)
    claimed: set[Vertex] = set()
    for v in members:
        # v itself is claimed only through an earlier neighbor, which is in
        # adjacency[v] and claimed as well, so one disjointness test suffices
        nbrs = adjacency[v]
        if not claimed.isdisjoint(nbrs):
            return False
        claimed |= nbrs
        claimed.add(v)
    return True


def is_w_dominating(g: WeightedGraph, f: DominationFunction, u: Iterable[Vertex] | None = None) -> bool:
    """Does f satisfy f[N(v)] >= w(v) for every v in u (default: all of V)?

    Every vertex of u and of the support of f must belong to g.
    """
    adjacency, weights = g.adjacency, g.weights
    targets = None if u is None else set(u)
    if targets is not None:
        _check_ids(targets, g.n)
    _check_ids(f.values, g.n)
    load = [0] * g.n  # load[t] = f[N(t)]
    for v, x in f.values.items():
        load[v] += x
        for y in adjacency[v]:
            load[y] += x
    if targets is None:
        return all(map(ge, load, weights))
    return all(load[t] >= weights[t] for t in targets)


def verify_certificate(g: WeightedGraph, cert: Certificate) -> CertificateCheck:
    """Re-check a certificate from scratch; never trusts the producer."""
    if not is_w_dominating(g, cert.dominating):
        return CertificateCheck(False, NOT_DOMINATING)
    if not is_dispersed(g, cert.dispersed):
        return CertificateCheck(False, NOT_DISPERSED)
    weight_of_dispersed = sum(g.weights[v] for v in cert.dispersed)
    if not (cert.dominating.size == cert.value == weight_of_dispersed):
        return CertificateCheck(False, VALUE_MISMATCH)
    return CertificateCheck(True)


def _checked_subtrees(
    host: HostTree, subtrees: Sequence[Iterable[Vertex]]
) -> list[tuple[frozenset[Vertex], Vertex]]:
    """Each subtree as its vertex set and its top, checked to be a nonempty
    connected set of host vertices.  With the host rooted at 0, each
    component of a set S has one member whose parent lies outside S, its
    highest vertex, as any other member's parent is the next vertex on its
    path to that one; so S is connected exactly when it has one such top."""
    n, parent = host.n, host._parent
    checked: list[tuple[frozenset[Vertex], Vertex]] = []
    for i, raw in enumerate(subtrees):
        s = frozenset(raw)
        if not s:
            raise EmptySubtree(f"subtree {i} is empty")
        for v in s:
            # a bool would index vertex 0 or 1 but be written as `False` or `True`
            if not (type(v) is int and 0 <= v < n):
                raise UnknownVertex(f"subtree {i} uses vertex {v} outside the host tree")
        tops = [v for v in s if parent[v] not in s]
        if len(tops) != 1:
            raise DisconnectedSubtree(f"subtree {i} is not connected in the host tree")
        checked.append((s, tops[0]))
    return checked


def _intersection_graph(
    n: int, checked: Sequence[tuple[Iterable[Vertex], Vertex]], weights: Sequence[int]
) -> WeightedGraph:
    """Intersection graph of subtrees of a host on n vertices, each given as
    its vertices and its top and already checked (`_checked_subtrees` or a
    host edge's ends), with one weight each, already checked as well
    (`SubtreeInstance` or `_normalized`); nothing is checked here.

    One graph vertex per subtree, in input order; two are adjacent when the
    subtrees share a host vertex.  Two subtrees meet exactly when one of them
    holds the other's top, its highest vertex with the host rooted at 0; so
    each neighbor is read off the host-vertex to subtree incidence list at a
    top and added on both sides, in O(n + sizes + edges).
    """
    holders: list[list[int]] = [[] for _ in range(n)]
    for i, (s, _) in enumerate(checked):
        for v in s:
            holders[v].append(i)
    nbrs: list[set[Vertex]] = [set() for _ in checked]
    for i, (_, top) in enumerate(checked):
        for j in holders[top]:
            if j != i:
                nbrs[i].add(j)
                nbrs[j].add(i)
    return WeightedGraph._checked(tuple(weights), tuple(map(frozenset, nbrs)))
