"""Canonical instances, seeded generators, and the text file formats.

The random generators run on a fixed 64-bit linear congruential generator so
an instance is a pure function of its parameters, reproducible anywhere:

    state' = (6364136223846793005 * state + 1442695040888963407) mod 2^64
    draw(m) = (state' >> 33) mod m        (advance first, then reduce)

File formats are line oriented ASCII: one record per line, full-line '#'
comments, an explicit version header.  parse(write(x)) == x.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Sequence

from .errors import (
    InstanceSemanticError,
    InstanceSyntaxError,
    ParameterOutOfRange,
)
from .graph_core import (
    Certificate,
    DominationFunction,
    HostTree,
    WeightedGraph,
    build_intersection_graph,
    is_w_dominating,
    verify_certificate,
)
from .interval_solver import IntervalFamily, intersection_graph, solve_interval
from .split_solver import SplitInstance, SplitResult, solve_split, validate_split
from .tree_edge_solver import FEdge, edge_line_graph, solve_tree

_MULTIPLIER = 6364136223846793005
_INCREMENT = 1442695040888963407
_MASK64 = (1 << 64) - 1


class LCG:
    """The fixed pseudorandom generator behind every `gen_*` function."""

    def __init__(self, seed: int):
        if seed < 0:
            raise ParameterOutOfRange("seed must be nonnegative")
        self.state = seed & _MASK64

    def draw(self, m: int) -> int:
        """Advance once and return a value in 0..m-1."""
        if m < 1:
            raise ParameterOutOfRange("draw needs a positive modulus")
        self.state = (_MULTIPLIER * self.state + _INCREMENT) & _MASK64
        return (self.state >> 33) % m

    def randint(self, lo: int, hi: int) -> int:
        """Inclusive uniform draw from lo..hi."""
        if hi < lo:
            raise ParameterOutOfRange(f"empty range {lo}..{hi}")
        return lo + self.draw(hi - lo + 1)

    def chance(self, percent: int) -> bool:
        return self.draw(100) < percent


# ---------------------------------------------------------------------------
# fixed instances


def example_forked_star() -> tuple[HostTree, tuple[frozenset[int], ...], tuple[int, ...]]:
    """Three-ray host tree, rays of length 3 forked at the end, 15 subtrees.

    The intersection graph separates the two domination parameters: dominating
    everything costs 5 while the costliest independent set needs only 4.
    """
    # center 0; ray i (1-based) occupies vertices 4(i-1)+1 .. 4(i-1)+4
    def a(i: int, j: int) -> int:
        return 4 * (i - 1) + j

    edges: list[tuple[int, int]] = []
    for i in (1, 2, 3):
        edges.append((0, a(i, 1)))
        edges.append((a(i, 1), a(i, 2)))
        edges.append((a(i, 2), a(i, 3)))
        edges.append((a(i, 2), a(i, 4)))
    host = HostTree(13, tuple(edges))

    subtrees: list[frozenset[int]] = []
    weights: list[int] = []
    for i in (1, 2, 3):
        subtrees.append(frozenset({a(i, 3), a(i, 2), a(i, 4)}))
        weights.append(1)
    for i in (1, 2, 3):
        for j in (3, 4):
            subtrees.append(frozenset({a(i, 1), a(i, 2), a(i, j)}))
            weights.append(2)
    for i in (1, 2, 3):
        subtrees.append(frozenset({0, a(i, 1), a(i, 2)}))
        weights.append(3)
    for i, j in ((1, 2), (1, 3), (2, 3)):
        subtrees.append(frozenset({a(i, 1), 0, a(j, 1)}))
        weights.append(4)
    return host, tuple(subtrees), tuple(weights)


def example_split_triangle() -> SplitInstance:
    """Clique a_0 a_1 a_2 (weight 5) and independent b_0 b_1 b_2 (weight 4).

    b_i sees a_i and a_(i+1 mod 3).  Every dispersed set is a singleton, so
    the dispersion number 5 sits strictly below gamma_w = 6.
    """
    weights = (5, 5, 5, 4, 4, 4)
    cross = [(3 + i, i) for i in range(3)] + [(3 + i, (i + 1) % 3) for i in range(3)]
    clique_pairs = [(0, 1), (0, 2), (1, 2)]
    graph = WeightedGraph.from_edges(weights, clique_pairs + cross)
    return validate_split(graph, frozenset({0, 1, 2}), frozenset({3, 4, 5}))


def example_three_intervals() -> IntervalFamily:
    """Two touching intervals and one far away: [1,2] w3, [2,4] w1, [5,6] w2.

    Small enough to trace by hand: both greedy passes place 3 + 2 = 5, and
    {0, 2} is a dispersed set of the same weight.
    """
    return IntervalFamily.of([(1, 2, 3), (2, 4, 1), (5, 6, 2)])


def example_nontu_intervals() -> IntervalFamily:
    """Three disjoint unit points inside one long interval, all weight 1.

    The closed-neighborhood matrix of this family has determinant of
    absolute value 2, so it is not totally unimodular.
    """
    return IntervalFamily.of([(1, 1, 1), (2, 2, 1), (3, 3, 1), (1, 3, 1)])


def example_nontu_star() -> tuple[HostTree, tuple[FEdge, ...]]:
    """Star with three rays of length 2; every edge is in the family, weight 1.

    The line graph's closed-neighborhood matrix has |det| = 2.
    """
    host = HostTree(7, ((0, 1), (1, 4), (0, 2), (2, 5), (0, 3), (3, 6)))
    f_edges = tuple((u, v, 1) for u, v in host.edges)
    return host, f_edges


# ---------------------------------------------------------------------------
# seeded generators


def _check_positive(**params: int) -> None:
    for name, value in params.items():
        if value < 1:
            raise ParameterOutOfRange(f"{name} must be positive, got {value}")


def gen_interval(seed: int, n: int, max_coord: int, max_w: int) -> IntervalFamily:
    """n random intervals with endpoints in 1..max_coord, weights in 1..max_w."""
    _check_positive(n=n, max_coord=max_coord, max_w=max_w)
    rng = LCG(seed)
    triples = []
    for _ in range(n):
        x = rng.randint(1, max_coord)
        y = rng.randint(x, max_coord)
        triples.append((x, y, rng.randint(1, max_w)))
    return IntervalFamily.of(triples)


def _random_recursive_tree(rng: LCG, n: int) -> HostTree:
    edges = tuple((rng.randint(0, v - 1), v) for v in range(1, n))
    return HostTree(n, edges)


def gen_tree(seed: int, n_edges: int, max_w: int) -> tuple[HostTree, tuple[FEdge, ...]]:
    """Random recursive tree; each edge joins the family with probability 3/4.

    A draw leaving the family empty falls back to one uniformly chosen edge,
    so the result always carries at least one weighted edge.
    """
    _check_positive(n_edges=n_edges, max_w=max_w)
    rng = LCG(seed)
    host = _random_recursive_tree(rng, n_edges + 1)
    f_edges: list[FEdge] = []
    for u, v in host.edges:
        if rng.draw(4) != 0:
            f_edges.append((u, v, rng.randint(1, max_w)))
    if not f_edges:
        u, v = host.edges[rng.draw(n_edges)]
        f_edges.append((u, v, rng.randint(1, max_w)))
    return host, tuple(f_edges)


def gen_split(
    seed: int, n_a: int, n_b: int, edge_prob_percent: int, max_w: int
) -> SplitInstance:
    """Random split instance: clique of n_a, independent set of n_b.

    Each clique/independent pair gets an edge with the given percent chance;
    any independent vertex left isolated is then attached to one uniformly
    drawn clique vertex, so the covering problem is always feasible (a bare
    percent-retry loop would never terminate at 0).
    """
    _check_positive(n_a=n_a, n_b=n_b, max_w=max_w)
    if not 0 <= edge_prob_percent <= 100:
        raise ParameterOutOfRange("edge_prob_percent must lie in 0..100")
    rng = LCG(seed)
    weights = [rng.randint(1, max_w) for _ in range(n_a + n_b)]
    edges = [(i, j) for i in range(n_a) for j in range(i + 1, n_a)]
    degree_b = [0] * n_b
    for b in range(n_b):
        for a in range(n_a):
            if rng.chance(edge_prob_percent):
                edges.append((a, n_a + b))
                degree_b[b] += 1
    for b in range(n_b):
        if degree_b[b] == 0:
            edges.append((rng.randint(0, n_a - 1), n_a + b))
    graph = WeightedGraph.from_edges(weights, edges)
    return validate_split(
        graph, frozenset(range(n_a)), frozenset(range(n_a, n_a + n_b))
    )


def gen_subtrees(
    seed: int, n_tree: int, n_subtrees: int, max_w: int
) -> tuple[HostTree, tuple[frozenset[int], ...], tuple[int, ...]]:
    """Random host tree plus connected random subtrees grown from seeds."""
    _check_positive(n_tree=n_tree, n_subtrees=n_subtrees, max_w=max_w)
    rng = LCG(seed)
    host = _random_recursive_tree(rng, n_tree)
    adjacency = host.adjacency()
    subtrees: list[frozenset[int]] = []
    weights: list[int] = []
    for _ in range(n_subtrees):
        target = rng.randint(1, n_tree)
        chosen = {rng.randint(0, n_tree - 1)}
        while len(chosen) < target:
            frontier = sorted(
                {u for v in chosen for u in adjacency[v]} - chosen
            )
            if not frontier:
                break
            chosen.add(frontier[rng.draw(len(frontier))])
        subtrees.append(frozenset(chosen))
        weights.append(rng.randint(1, max_w))
    return host, tuple(subtrees), tuple(weights)


# ---------------------------------------------------------------------------
# instance containers and text formats


@dataclass(frozen=True)
class TreeEdgesInstance:
    """Host tree plus the weighted edge subset whose line graph we solve.

    f_edges are normalized to the host's edge order and orientation so that
    writing and reparsing reproduces the instance exactly.
    """

    host: HostTree
    f_edges: tuple[FEdge, ...]

    def __post_init__(self) -> None:
        by_pair: dict[frozenset[int], int] = {}
        for u, v, w in self.f_edges:
            key = frozenset((u, v))
            if key in by_pair:
                raise InstanceSemanticError(f"duplicate family edge {u} {v}")
            if w < 1:
                raise InstanceSemanticError(f"edge {u} {v} has weight {w} < 1")
            by_pair[key] = w
        host_pairs = {frozenset(e) for e in self.host.edges}
        for key in by_pair:
            if key not in host_pairs:
                u, v = sorted(key)
                raise InstanceSemanticError(f"{u} {v} is not a host tree edge")
        normalized = tuple(
            (u, v, by_pair[frozenset((u, v))])
            for u, v in self.host.edges
            if frozenset((u, v)) in by_pair
        )
        object.__setattr__(self, "f_edges", normalized)


@dataclass(frozen=True)
class SubtreeInstance:
    """Host tree with a family of connected vertex sets and their weights."""

    host: HostTree
    subtrees: tuple[frozenset[int], ...]
    weights: tuple[int, ...]


@dataclass(frozen=True)
class InstanceFile:
    """A parsed instance: its kind tag plus the kind-specific payload."""

    kind: str
    payload: object

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise InstanceSemanticError(f"unknown kind {self.kind!r}")


class _Lines:
    """Line cursor over the meaningful lines of a file, tracking numbers."""

    def __init__(self, text: str):
        self.rows: list[tuple[int, str]] = []
        for i, raw in enumerate(text.splitlines(), start=1):
            stripped = raw.strip()
            if stripped and not stripped.startswith("#"):
                self.rows.append((i, stripped))
        self.at = 0
        self.last_line = self.rows[-1][0] if self.rows else 0

    def next(self, what: str) -> tuple[int, str]:
        if self.at >= len(self.rows):
            raise InstanceSyntaxError(self.last_line + 1, f"missing {what}")
        row = self.rows[self.at]
        self.at += 1
        return row

    def done(self) -> None:
        if self.at < len(self.rows):
            line, text = self.rows[self.at]
            raise InstanceSyntaxError(line, f"unexpected trailing content {text!r}")


def _int_fields(line: int, text: str, count: int, what: str) -> list[int]:
    parts = text.split()
    if len(parts) != count:
        raise InstanceSyntaxError(line, f"{what}: expected {count} fields, got {len(parts)}")
    try:
        return [int(p) for p in parts]
    except ValueError:
        raise InstanceSyntaxError(line, f"{what}: fields must be integers") from None


def _count(lines: _Lines, what: str, minimum: int = 0) -> int:
    line, text = lines.next(what)
    (value,) = _int_fields(line, text, 1, what)
    if value < minimum:
        raise InstanceSemanticError(f"{what} must be at least {minimum}, got {value}")
    return value


def _parse_host_tree(lines: _Lines) -> HostTree:
    """A host tree section; every edge line ends with the flag 1 and weight 0."""
    nv = _count(lines, "vertex count", minimum=1)
    edges = []
    for _ in range(nv - 1):
        line, text = lines.next("host edge line")
        u, v, flag, w = _int_fields(line, text, 4, "host edge")
        if (flag, w) != (1, 0):
            raise InstanceSyntaxError(line, "host edge must end with 1 0")
        edges.append((u, v))
    return HostTree(nv, tuple(edges))


def _parse_interval(lines: _Lines) -> IntervalFamily:
    n = _count(lines, "interval count", minimum=1)
    triples = []
    for expect_id in range(n):
        line, text = lines.next("interval line")
        ident, x, y, w = _int_fields(line, text, 4, "interval")
        if ident != expect_id:
            raise InstanceSemanticError(f"interval id {ident} out of order, expected {expect_id}")
        if y < x:
            raise InstanceSemanticError(f"interval {ident} has x {x} > y {y}")
        if w < 1:
            raise InstanceSemanticError(f"interval {ident} has weight {w} < 1")
        triples.append((x, y, w))
    return IntervalFamily.of(triples)


def _parse_tree_edges(lines: _Lines) -> TreeEdgesInstance:
    nv = _count(lines, "vertex count", minimum=1)
    edges = []
    f_edges = []
    for _ in range(nv - 1):
        line, text = lines.next("edge line")
        parts = text.split()
        if len(parts) not in (3, 4):
            raise InstanceSyntaxError(line, "edge: expected `u v 0` or `u v 1 w`")
        try:
            fields = [int(p) for p in parts]
        except ValueError:
            raise InstanceSyntaxError(line, "edge: fields must be integers") from None
        u, v, flag = fields[0], fields[1], fields[2]
        if flag not in (0, 1):
            raise InstanceSyntaxError(line, f"edge: membership flag must be 0 or 1, got {flag}")
        if flag == 1 and len(fields) != 4:
            raise InstanceSyntaxError(line, "edge: member edge needs a weight")
        if flag == 0 and len(fields) != 3:
            raise InstanceSyntaxError(line, "edge: non-member edge takes no weight")
        edges.append((u, v))
        if flag == 1:
            f_edges.append((u, v, fields[3]))
    host = HostTree(nv, tuple(edges))
    return TreeEdgesInstance(host, tuple(f_edges))


def _parse_split(lines: _Lines) -> SplitInstance:
    nv = _count(lines, "vertex count", minimum=1)
    sides: list[str] = []
    weights: list[int] = []
    for expect_id in range(nv):
        line, text = lines.next("vertex line")
        parts = text.split()
        if len(parts) != 3:
            raise InstanceSyntaxError(line, "vertex: expected `id side w`")
        if parts[1] not in ("A", "B"):
            raise InstanceSyntaxError(line, f"vertex: side must be A or B, got {parts[1]!r}")
        try:
            ident, w = int(parts[0]), int(parts[2])
        except ValueError:
            raise InstanceSyntaxError(line, "vertex: id and weight must be integers") from None
        if ident != expect_id:
            raise InstanceSemanticError(f"vertex id {ident} out of order, expected {expect_id}")
        sides.append(parts[1])
        weights.append(w)
    clique = frozenset(v for v in range(nv) if sides[v] == "A")
    independent = frozenset(v for v in range(nv) if sides[v] == "B")
    m = _count(lines, "edge count")
    cross = []
    seen = set()
    for _ in range(m):
        line, text = lines.next("edge line")
        u, v = _int_fields(line, text, 2, "edge")
        for x in (u, v):
            if not 0 <= x < nv:
                raise InstanceSemanticError(f"edge endpoint {x} is not a vertex")
        if (u in clique) == (v in clique):
            raise InstanceSemanticError(f"edge {u} {v} must join the A side to the B side")
        if frozenset((u, v)) in seen:
            raise InstanceSemanticError(f"duplicate edge {u} {v}")
        seen.add(frozenset((u, v)))
        cross.append((u, v))
    clique_pairs = [(u, v) for u in sorted(clique) for v in sorted(clique) if u < v]
    graph = WeightedGraph.from_edges(weights, clique_pairs + cross)
    return validate_split(graph, clique, independent)


def _parse_subtrees(lines: _Lines) -> SubtreeInstance:
    host = _parse_host_tree(lines)
    k = _count(lines, "subtree count", minimum=1)
    subtrees = []
    weights = []
    for _ in range(k):
        line, text = lines.next("subtree line")
        parts = text.split()
        if len(parts) < 2:
            raise InstanceSyntaxError(line, "subtree: expected `w size v1..vsize`")
        try:
            fields = [int(p) for p in parts]
        except ValueError:
            raise InstanceSyntaxError(line, "subtree: fields must be integers") from None
        w, size, members = fields[0], fields[1], fields[2:]
        if len(members) != size:
            raise InstanceSyntaxError(line, f"subtree: announced {size} vertices, got {len(members)}")
        if len(set(members)) != size:
            raise InstanceSemanticError(f"subtree on line {line} repeats a vertex")
        if w < 1:
            raise InstanceSemanticError(f"subtree on line {line} has weight {w} < 1")
        subtrees.append(frozenset(members))
        weights.append(w)
    return SubtreeInstance(host, tuple(subtrees), tuple(weights))


def _parse_explicit(lines: _Lines) -> WeightedGraph:
    nv = _count(lines, "vertex count", minimum=1)
    weights = []
    for expect_id in range(nv):
        line, text = lines.next("vertex line")
        ident, w = _int_fields(line, text, 2, "vertex")
        if ident != expect_id:
            raise InstanceSemanticError(f"vertex id {ident} out of order, expected {expect_id}")
        weights.append(w)
    m = _count(lines, "edge count")
    edges = []
    seen = set()
    for _ in range(m):
        line, text = lines.next("edge line")
        u, v = _int_fields(line, text, 2, "edge")
        if frozenset((u, v)) in seen:
            raise InstanceSemanticError(f"duplicate edge {u} {v}")
        seen.add(frozenset((u, v)))
        edges.append((u, v))
    return WeightedGraph.from_edges(weights, edges)


def parse_instance(text: str) -> InstanceFile:
    lines = _Lines(text)
    line, header = lines.next("header")
    if header != "domw 1":
        raise InstanceSyntaxError(line, f"expected header `domw 1`, got {header!r}")
    line, kind_row = lines.next("kind line")
    parts = kind_row.split()
    if len(parts) != 2 or parts[0] != "kind":
        raise InstanceSyntaxError(line, "expected `kind <name>`")
    kind = parts[1]
    if kind not in KINDS:
        raise InstanceSyntaxError(line, f"unknown kind {kind!r}")
    try:
        payload = KINDS[kind].parse(lines)
    except ValueError as exc:
        if isinstance(exc, (InstanceSyntaxError, InstanceSemanticError)):
            raise
        raise InstanceSemanticError(str(exc)) from exc
    lines.done()
    return InstanceFile(kind, payload)


def _write_interval(fam: IntervalFamily) -> list[str]:
    out = [str(fam.n)]
    for i, iv in enumerate(fam.intervals):
        out.append(f"{i} {iv.left} {iv.right} {iv.weight}")
    return out


def _write_tree_edges(inst: TreeEdgesInstance) -> list[str]:
    by_pair = {frozenset((u, v)): w for u, v, w in inst.f_edges}
    out = [str(inst.host.n)]
    for u, v in inst.host.edges:
        w = by_pair.get(frozenset((u, v)))
        out.append(f"{u} {v} 0" if w is None else f"{u} {v} 1 {w}")
    return out


def _write_split(inst: SplitInstance) -> list[str]:
    g = inst.graph
    out = [str(g.n)]
    for v in g.vertices:
        side = "A" if v in inst.clique else "B"
        out.append(f"{v} {side} {g.weights[v]}")
    cross = sorted(
        (a, b)
        for a in sorted(inst.clique)
        for b in g.adjacency[a]
        if b in inst.independent
    )
    out.append(str(len(cross)))
    out.extend(f"{a} {b}" for a, b in cross)
    return out


def _write_subtrees(inst: SubtreeInstance) -> list[str]:
    out = [str(inst.host.n)]
    out.extend(f"{u} {v} 1 0" for u, v in inst.host.edges)
    out.append(str(len(inst.subtrees)))
    for tree, w in zip(inst.subtrees, inst.weights):
        members = " ".join(str(v) for v in sorted(tree))
        out.append(f"{w} {len(tree)} {members}")
    return out


def _write_explicit(g: WeightedGraph) -> list[str]:
    out = [str(g.n)]
    out.extend(f"{v} {g.weights[v]}" for v in g.vertices)
    edges = sorted((u, v) for u in g.vertices for v in g.adjacency[u] if u < v)
    out.append(str(len(edges)))
    out.extend(f"{u} {v}" for u, v in edges)
    return out


def write_instance(inst: InstanceFile) -> str:
    body = KINDS[inst.kind].write(inst.payload)
    return "\n".join(["domw 1", f"kind {inst.kind}"] + body) + "\n"


CERT_HEADER = "domw-cert 1"
SPLIT_HEADER = "domw-split 1"


def _write_block(header: str, f: DominationFunction, chosen: frozenset[int], value: int) -> str:
    out = [header]
    out.extend(f"f {v} {x}" for v, x in f.items())
    out.append("I " + " ".join(str(v) for v in sorted(chosen)) if chosen else "I")
    out.append(f"value {value}")
    return "\n".join(out) + "\n"


def write_certificate(cert: Certificate) -> str:
    return _write_block(CERT_HEADER, cert.dominating, cert.dispersed, cert.value)


def write_split_result(result: SplitResult) -> str:
    """Report block for split solves, where no matched certificate may exist.

    The witness line lists an independent set whose cheapest domination cost
    equals the value; it is generally not a dispersed set.
    """
    return _write_block(SPLIT_HEADER, result.dominating, result.witness_independent, result.value)


def parse_result(text: str, headers: Sequence[str]) -> tuple[str, Certificate]:
    """A result block under one of `headers`, and the header it carries.

    Certificates and split reports share one layout: `f v x` lines, an `I`
    line and `value n`.  A split report's `I` line is its independent witness,
    which lands in the `dispersed` field.
    """
    lines = _Lines(text)
    line, header = lines.next("header")
    if header not in headers:
        expected = " or ".join(f"`{h}`" for h in headers)
        raise InstanceSyntaxError(line, f"expected header {expected}, got {header!r}")
    values: dict[int, int] = {}
    while True:
        line, row = lines.next("certificate line")
        parts = row.split()
        if parts[0] != "f":
            break
        if len(parts) != 3:
            raise InstanceSyntaxError(line, "expected `f id value`")
        try:
            v, x = int(parts[1]), int(parts[2])
        except ValueError:
            raise InstanceSyntaxError(line, "f line fields must be integers") from None
        if v in values:
            raise InstanceSemanticError(f"vertex {v} assigned twice")
        values[v] = x
    if parts[0] != "I":
        raise InstanceSyntaxError(line, f"expected an `I` line, got {row!r}")
    try:
        chosen = frozenset(int(p) for p in parts[1:])
    except ValueError:
        raise InstanceSyntaxError(line, "I line fields must be integers") from None
    line, row = lines.next("value line")
    parts = row.split()
    if len(parts) != 2 or parts[0] != "value":
        raise InstanceSyntaxError(line, "expected `value n`")
    try:
        value = int(parts[1])
    except ValueError:
        raise InstanceSyntaxError(line, "value must be an integer") from None
    lines.done()
    return header, Certificate(DominationFunction(values), chosen, value)


def parse_certificate(text: str) -> Certificate:
    return parse_result(text, (CERT_HEADER,))[1]


# ---------------------------------------------------------------------------
# the kind table


Checks = list[tuple[str, bool]]  # (property, holds) pairs


def _certificate_checks(g: WeightedGraph, cert: Certificate) -> Checks:
    return [("certificate verifies", bool(verify_certificate(g, cert)))]


def _split_checks(g: WeightedGraph, block: Certificate) -> Checks:
    """A split report proves a feasible function and an independent witness."""
    f, witness = block.dominating, block.dispersed
    dominates = all(v in g.vertices for v in f.support) and is_w_dominating(g, f)
    independent = all(v in g.vertices and not g.adjacency[v] & witness for v in witness)
    return [
        ("function dominates at its value", dominates and f.size == block.value),
        ("witness is independent", independent),
    ]


@dataclass
class Kind:
    """Everything the package does with one instance kind.

    Every kind parses and writes its file section and denotes one weighted
    graph.  A kind with an exact solver also writes the solver's result under
    `result_header`, names the checks a block under that header must pass,
    and names the oracle values (gamma_w, rho_w, gamma_i_w) the solver value
    must equal and those it must bound from above.
    """

    parse: Callable[[_Lines], Any]
    write: Callable[[Any], list[str]]
    graph: Callable[[Any], WeightedGraph]
    solve: Callable[[Any], Any] | None = None
    write_result: Callable[[Any], str] = write_certificate
    result_header: str = CERT_HEADER
    check_result: Callable[[WeightedGraph, Certificate], Checks] = _certificate_checks
    equals: tuple[str, ...] = ()
    at_most: tuple[str, ...] = ()


KINDS: dict[str, Kind] = {
    "interval": Kind(
        _parse_interval, _write_interval, intersection_graph,
        solve=solve_interval, equals=("gamma_w", "rho_w"),
    ),
    "tree-edges": Kind(
        _parse_tree_edges, _write_tree_edges, lambda p: edge_line_graph(p.host, p.f_edges),
        solve=lambda p: solve_tree(p.host, p.f_edges), equals=("gamma_w", "rho_w"),
    ),
    "split": Kind(
        _parse_split, _write_split, lambda p: p.graph,
        solve=solve_split, write_result=write_split_result, result_header=SPLIT_HEADER,
        check_result=_split_checks, equals=("gamma_w", "gamma_i_w"), at_most=("rho_w",),
    ),
    "subtree-intersection": Kind(
        _parse_subtrees, _write_subtrees,
        lambda p: build_intersection_graph(p.host, p.subtrees, p.weights),
    ),
    "explicit": Kind(_parse_explicit, _write_explicit, lambda g: g),
}


def instance_graph(inst: InstanceFile) -> WeightedGraph:
    """The weighted graph an instance denotes, for oracles and matrices."""
    return KINDS[inst.kind].graph(inst.payload)
