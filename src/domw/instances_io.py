"""Canonical instances, seeded generators, and the text file formats.

The random generators run on a fixed 64-bit linear congruential generator so
an instance is a pure function of its parameters, reproducible anywhere:

    state' = (6364136223846793005 * state + 1442695040888963407) mod 2^64
    draw(m) = (state' >> 33) mod m        (advance first, then reduce)

File formats are line oriented ASCII: one record per line, full-line '#'
comments, an explicit version header.  parse(write(x)) == x.  A solver kind's
file in the exact shape `write_instance` emits is read in one pass over its
text, and so is a result block in the shape its writer emits: a regular
expression checks the shape, and the integers of an interval or tree-edges
body or of a result block are converted by one `json.loads` call each,
which takes ASCII digits with no leading zero.  Any other file goes through
the line reader, which names the first fault and its line.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from itertools import chain, compress
from operator import eq, le, lt
from typing import Any, Callable, Iterable, Iterator, Sequence

from .errors import (
    InstanceSemanticError,
    InstanceSyntaxError,
    ParameterOutOfRange,
    UnknownVertex,
)
from .checkers import CertificateCheck, check_interval, check_tree_edges
from .graph_core import (
    Certificate,
    DominationFunction,
    HostTree,
    WeightedGraph,
    _check_weights,
    _checked_subtrees,
    _intersection_graph,
    is_w_dominating,
)
from .interval_solver import IntervalFamily, _fault, intersection_graph, solve_interval
from .split_solver import SplitInstance, SplitResult, solve_split
from .tree_edge_solver import FEdge, _normalized, _solve_forest, edge_line_graph

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
    # a_i is vertex i and b_i vertex 3 + i; `_split_instance` joins the clique
    nbrs = [{3, 5}, {3, 4}, {4, 5}, {0, 1}, {1, 2}, {2, 0}]
    return _split_instance([5, 5, 5, 4, 4, 4], [True] * 3 + [False] * 3, nbrs)


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
    vs = list(range(1, n))
    return HostTree._from_columns(n, [rng.randint(0, v - 1) for v in vs], vs)


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
    nbrs: list[set[int]] = [set() for _ in range(n_a)]
    nbrs += [{a for a in range(n_a) if rng.chance(edge_prob_percent)} for _ in range(n_b)]
    independent = range(n_a, n_a + n_b)
    for b in independent:
        if not nbrs[b]:
            nbrs[b].add(rng.randint(0, n_a - 1))
    for b in independent:
        for a in nbrs[b]:
            nbrs[a].add(b)
    return _split_instance(weights, [True] * n_a + [False] * n_b, nbrs)


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
            # never empty: the host is connected and chosen is not all of it
            frontier = sorted(
                {u for v in chosen for u in adjacency[v]} - chosen
            )
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
    writing and reparsing reproduces the instance exactly; a selection already
    in that order is kept as it is.  The file reader builds its selection in
    that order and skips the check through `_checked`.
    """

    host: HostTree
    f_edges: tuple[FEdge, ...]

    def __post_init__(self) -> None:
        try:  # a file may select no edge
            normalized = _normalized(self.host, self.f_edges) if self.f_edges else ()
        except ValueError as exc:
            raise InstanceSemanticError(str(exc)) from exc
        object.__setattr__(self, "f_edges", normalized)

    @classmethod
    def _checked(cls, host: HostTree, f_edges: tuple[FEdge, ...]) -> "TreeEdgesInstance":
        """An instance whose selection the caller has already checked: a
        subsequence of the host edges, in host orientation, every weight at least 1."""
        inst = object.__new__(cls)
        object.__setattr__(inst, "host", host)
        object.__setattr__(inst, "f_edges", f_edges)
        return inst


@dataclass(frozen=True)
class SubtreeInstance:
    """Host tree with a family of connected vertex sets and their weights.

    The constructor checks the family once, whether a file or a caller built
    it: one weight per subtree, then each subtree a nonempty connected set
    of host vertices, then each weight an int of at least 1.  No later step
    checks them again: the graph is built from each subtree's set and top,
    which the instance keeps as `_checked_subtrees`.
    """

    host: HostTree
    subtrees: tuple[frozenset[int], ...]
    weights: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.subtrees) != len(self.weights):
            raise ValueError("one weight per subtree is required")
        checked = _checked_subtrees(self.host, self.subtrees)
        _check_weights(self.weights)
        # kept out of the fields, so equality is unchanged; never mutated
        object.__setattr__(self, "_checked_subtrees", checked)


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
        # lines end where universal newlines end them, `\r\n`, `\r` or `\n`,
        # as `domw` opens files; `str.splitlines` also ends one at `\v`, `\f`,
        # `\x1c`-`\x1e` and three non-ASCII separators
        rows = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
        self.rows: list[tuple[int, str]] = [
            (i, row) for i, row in enumerate(map(str.strip, rows), start=1)
            if row and row[0] != "#"
        ]
        self.at = 0
        self.last_line = self.rows[-1][0] if self.rows else 0

    def next(self, what: str) -> tuple[int, str]:
        if self.at >= len(self.rows):
            raise InstanceSyntaxError(self.last_line + 1, f"missing {what}")
        row = self.rows[self.at]
        self.at += 1
        return row

    def take(self, count: int, what: str) -> Iterator[tuple[int, str]]:
        """The next count rows, one slice; a file that ends first raises the
        `missing` error of `next` once the rows it has are read, so a fault
        in one of them is still reported first."""
        block = self.rows[self.at : self.at + count]
        self.at += len(block)
        yield from block
        if len(block) < count:
            raise InstanceSyntaxError(self.last_line + 1, f"missing {what}")

    def done(self) -> None:
        if self.at < len(self.rows):
            line, text = self.rows[self.at]
            raise InstanceSyntaxError(line, f"unexpected trailing content {text!r}")


def _ints(line: int, parts: Sequence[str], what: str) -> list[int]:
    try:
        return [int(p) for p in parts]
    except ValueError:
        raise InstanceSyntaxError(line, f"{what}: fields must be integers") from None


def _int_fields(line: int, text: str, count: int, what: str) -> list[int]:
    parts = text.split()
    if len(parts) != count:
        raise InstanceSyntaxError(line, f"{what}: expected {count} fields, got {len(parts)}")
    return _ints(line, parts, what)


def _count(lines: _Lines, what: str, minimum: int = 0) -> int:
    line, text = lines.next(what)
    (value,) = _int_fields(line, text, 1, what)
    if value < minimum:
        raise InstanceSemanticError(f"{what} must be at least {minimum}, got {value}")
    return value


def _parse_host_tree(lines: _Lines) -> HostTree:
    """A host tree section; every edge line ends with the flag 1 and weight 0."""
    nv = _count(lines, "vertex count", minimum=1)
    us: list[int] = []
    vs: list[int] = []
    for line, text in lines.take(nv - 1, "host edge line"):
        u, v, flag, w = _int_fields(line, text, 4, "host edge")
        if (flag, w) != (1, 0):
            raise InstanceSyntaxError(line, "host edge must end with 1 0")
        us.append(u)
        vs.append(v)
    return HostTree._from_columns(nv, us, vs)


def _parse_interval(lines: _Lines) -> IntervalFamily:
    """The interval lines, read straight into the family's columns; each line
    gets the checks of `_int_fields` and `Interval`, with their messages."""
    n = _count(lines, "interval count", minimum=1)
    left: list[int] = []
    right: list[int] = []
    weight: list[int] = []
    for expect_id, (line, text) in enumerate(lines.take(n, "interval line")):
        parts = text.split()
        if len(parts) != 4:
            raise InstanceSyntaxError(line, f"interval: expected 4 fields, got {len(parts)}")
        try:
            ident, x, y, w = map(int, parts)
        except ValueError:
            raise InstanceSyntaxError(line, "interval: fields must be integers") from None
        if ident != expect_id:
            raise InstanceSemanticError(f"interval id {ident} out of order, expected {expect_id}")
        if x > y or w < 1:
            raise InstanceSemanticError(f"line {line}: interval {ident}: {_fault(x, y, w)}")
        left.append(x)
        right.append(y)
        weight.append(w)
    return IntervalFamily._checked(tuple(left), tuple(right), tuple(weight))


def _tree_edge(line: int, text: str) -> tuple[int, int, int | None]:
    """An edge line's ends and member weight (None for a non-member), checked
    field by field."""
    parts = text.split()
    if len(parts) not in (3, 4):
        raise InstanceSyntaxError(line, "edge: expected `u v 0` or `u v 1 w`")
    fields = _ints(line, parts, "edge")
    u, v, flag = fields[0], fields[1], fields[2]
    if flag not in (0, 1):
        raise InstanceSyntaxError(line, f"edge: membership flag must be 0 or 1, got {flag}")
    if flag == 1 and len(fields) != 4:
        raise InstanceSyntaxError(line, "edge: member edge needs a weight")
    if flag == 0 and len(fields) != 3:
        raise InstanceSyntaxError(line, "edge: non-member edge takes no weight")
    if flag and fields[3] < 1:
        raise ValueError(f"edge ({u}, {v}) must have positive weight")
    return u, v, fields[3] if flag else None


def _parse_tree_edges(lines: _Lines) -> TreeEdgesInstance:
    nv = _count(lines, "vertex count", minimum=1)
    us: list[int] = []
    vs: list[int] = []
    f_edges = []
    for line, text in lines.take(nv - 1, "edge line"):
        u, v, weight = _tree_edge(line, text)
        us.append(u)
        vs.append(v)
        if weight is not None:
            f_edges.append((u, v, weight))
    # the members are host edges as written, in file order, each weight checked on its line
    return TreeEdgesInstance._checked(HostTree._from_columns(nv, us, vs), tuple(f_edges))


def _split_vertex(line: int, text: str) -> tuple[int, bool, int]:
    """A vertex line's id, whether it is on the A side, and its weight,
    checked field by field."""
    parts = text.split()
    if len(parts) != 3:
        raise InstanceSyntaxError(line, "vertex: expected `id side w`")
    if parts[1] not in ("A", "B"):
        raise InstanceSyntaxError(line, f"vertex: side must be A or B, got {parts[1]!r}")
    ident, w = _ints(line, (parts[0], parts[2]), "vertex")
    return ident, parts[1] == "A", w


def _parse_split(lines: _Lines) -> SplitInstance:
    """The vertex and edge lines, read straight into neighbor sets.

    Each line is checked once, in file order, and its first fault raised
    there: a vertex line's fields, id order and weight; an edge line's
    fields, range, sides and repeat.  Every vertex names a side, the parser
    joins the clique itself and every edge crosses the sides, so the result
    is a split partition with symmetric, loop-free neighbor sets, and no
    graph or split check runs again.
    """
    nv = _count(lines, "vertex count", minimum=1)
    on_a: list[bool] = []
    weights: list[int] = []
    for expect_id, (line, text) in enumerate(lines.take(nv, "vertex line")):
        ident, side_a, w = _split_vertex(line, text)
        if ident != expect_id:
            raise InstanceSemanticError(f"vertex id {ident} out of order, expected {expect_id}")
        if w < 1:
            raise ValueError(f"weight of vertex {ident} must be a positive integer")
        on_a.append(side_a)
        weights.append(w)
    m = _count(lines, "edge count")
    nbrs: list[set[int]] = [set() for _ in range(nv)]
    for line, text in lines.take(m, "edge line"):
        u, v = _int_fields(line, text, 2, "edge")
        if not (0 <= u < nv and 0 <= v < nv):  # before a negative id indexes from the end
            raise UnknownVertex(f"edge ({u}, {v}) out of range")
        if on_a[u] == on_a[v]:
            raise InstanceSemanticError(f"edge {u} {v} must join the A side to the B side")
        if v in nbrs[u]:
            raise InstanceSemanticError(f"duplicate edge {u} {v}")
        nbrs[u].add(v)
        nbrs[v].add(u)
    return _split_instance(weights, on_a, nbrs)


def _split_instance(weights: list[int], on_a: list[bool], nbrs: list[set[int]]) -> SplitInstance:
    """The split instance of checked weights, sides and crossing edges (as
    symmetric neighbor sets); the A side is joined into a clique here."""
    vertices = range(len(weights))
    clique = frozenset(compress(vertices, on_a))
    for a in clique:
        nbrs[a] |= clique
        nbrs[a].discard(a)
    graph = WeightedGraph._checked(tuple(weights), tuple(map(frozenset, nbrs)))
    return SplitInstance(graph, clique, frozenset(vertices) - clique)


def _parse_subtrees(lines: _Lines) -> SubtreeInstance:
    host = _parse_host_tree(lines)
    k = _count(lines, "subtree count", minimum=1)
    subtrees = []
    weights = []
    for line, text in lines.take(k, "subtree line"):
        parts = text.split()
        if len(parts) < 2:
            raise InstanceSyntaxError(line, "subtree: expected `w size v1..vsize`")
        fields = _ints(line, parts, "subtree")
        w, size, members = fields[0], fields[1], fields[2:]
        if len(members) != size:
            raise InstanceSyntaxError(line, f"subtree: announced {size} vertices, got {len(members)}")
        if len(set(members)) != size:
            raise InstanceSemanticError(f"subtree on line {line} repeats a vertex")
        subtrees.append(frozenset(members))
        weights.append(w)
    return SubtreeInstance(host, tuple(subtrees), tuple(weights))


def _parse_explicit(lines: _Lines) -> WeightedGraph:
    """The vertex and edge lines, read straight into neighbor sets as
    `_parse_split` reads them: each line is checked once, in file order, and
    its first fault raised there: a vertex line's fields, id order and
    weight; an edge line's fields, range, self-loop and repeat."""
    nv = _count(lines, "vertex count", minimum=1)
    weights = []
    for expect_id, (line, text) in enumerate(lines.take(nv, "vertex line")):
        ident, w = _int_fields(line, text, 2, "vertex")
        if ident != expect_id:
            raise InstanceSemanticError(f"vertex id {ident} out of order, expected {expect_id}")
        if w < 1:
            raise ValueError(f"weight of vertex {ident} must be a positive integer")
        weights.append(w)
    m = _count(lines, "edge count")
    nbrs: list[set[int]] = [set() for _ in range(nv)]
    for line, text in lines.take(m, "edge line"):
        u, v = _int_fields(line, text, 2, "edge")
        if not (0 <= u < nv and 0 <= v < nv):  # before a negative id indexes from the end
            raise UnknownVertex(f"edge ({u}, {v}) out of range")
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        if v in nbrs[u]:
            raise InstanceSemanticError(f"duplicate edge {u} {v}")
        nbrs[u].add(v)
        nbrs[v].add(u)
    return WeightedGraph._checked(tuple(weights), tuple(map(frozenset, nbrs)))


# The whole-text readers, one per solver kind, take the count from the head
# of the file and the text after the count line.  Each reads only the exact
# shape `write_instance` emits and returns None for any other text or any
# fault, which the line reader then names with its line.  Fields are matched
# with [0-9], as \d also takes the digits of other scripts.  The interval
# and tree-edges bodies are converted by `_json_ints`, whose number grammar
# refuses a leading zero such as `007` with a ValueError: such a file, which
# `int` reads, goes to the line reader too.
_HEAD = re.compile(r"domw 1\nkind ([a-z-]+)\n([1-9][0-9]{0,8})\n")
# a coordinate may be negative; `[0-9-]` costs half the time of `-?`, and a
# lone `-` fails in `_json_ints`
_INTERVAL_BODY = re.compile(r"(?:[0-9]+ [0-9-][0-9]* [0-9-][0-9]* [0-9]+\n)*")
# a member's weight has no leading zero, so ` 0\n` ends only the lines `u v 0`
_TREE_BODY = re.compile(r"(?:[0-9]+ [0-9]+ (?:0|1 [1-9][0-9]*)\n)*")
# matched whole, not by `_match_lines` below like the two above: its groups
# capture whole blocks, and split files stay small
_SPLIT_BODY = re.compile(r"((?:[0-9]+ [AB] [0-9]+\n)*)([0-9]+)\n((?:[0-9]+ [0-9]+\n)*)")
# A `(?:...)*` repeat keeps a backtracking frame of some 320 bytes per line it
# matches, 32 MB on a 10^5-line body, so `_match_lines` matches a body in
# chunks of at most this many characters, each ending just after a `\n`
_CHUNK = 1 << 16


def _match_lines(body_shape: re.Pattern[str], body: str) -> bool:
    """Whether `body_shape`, a repeat of `\n`-ended lines, matches all of
    `body`.  A chunk with no line end holds part of a line longer than any
    written one, so it fails."""
    pos, end = 0, len(body)
    while end - pos > _CHUNK:
        stop = body.rfind("\n", pos, pos + _CHUNK) + 1
        if not stop or not body_shape.fullmatch(body, pos, stop):
            return False
        pos = stop
    return body_shape.fullmatch(body, pos, end) is not None


def _json_ints(text: str) -> list[int]:
    """The integers of a checked text of fields, each followed by one space
    or newline, in one `json.loads` call: half the time of `split` and
    `map(int, ...)`.  A field JSON refuses (`007`, a lone `-`, more than
    4,300 digits) raises ValueError."""
    return json.loads(f"[{text[:-1].replace(' ', ',').replace(chr(10), ',')}]")


def _read_interval(n: int, body: str) -> IntervalFamily | None:
    if not _match_lines(_INTERVAL_BODY, body):
        return None
    fields = _json_ints(body)
    left, right, weight = fields[1::4], fields[2::4], fields[3::4]
    # the line count comes first, so a count far above it builds no list of n
    if (
        len(fields) != 4 * n
        or fields[0::4] != list(range(n))
        or min(weight) < 1
        or not all(map(le, left, right))
    ):
        return None
    return IntervalFamily._checked(tuple(left), tuple(right), tuple(weight))


def _read_tree_edges(nv: int, body: str) -> TreeEdgesInstance | None:
    if not _match_lines(_TREE_BODY, body):
        return None
    # a weight 0 on each line `u v 0` gives every line four fields
    fields = _json_ints(body.replace(" 0\n", " 0 0\n"))
    # the line count comes first, so a count far above it builds no list of nv
    if len(fields) != 4 * (nv - 1):
        return None
    us, vs = fields[0::4], fields[1::4]
    # `tuple` over an iterator grows its result by resizing, and each resize
    # puts it back in the collector's youngest generation, to be scanned
    # again; building a list first took half the time at 10^5 edges
    f_edges = tuple(list(compress(zip(us, vs, fields[3::4]), fields[2::4])))
    # a host fault raises, and the line reader names it
    return TreeEdgesInstance._checked(HostTree._from_columns(nv, us, vs), f_edges)


def _read_split(nv: int, body: str) -> SplitInstance | None:
    shape = _SPLIT_BODY.fullmatch(body)
    if shape is None:
        return None
    vertex_fields, ends = shape[1].split(), list(map(int, shape[3].split()))
    weights = list(map(int, vertex_fields[2::3]))
    on_a = list(map("A".__eq__, vertex_fields[1::3]))
    m, us, vs = int(shape[2]), ends[0::2], ends[1::2]
    if (
        len(vertex_fields) != 3 * nv  # nv lines, checked before a list of nv is built
        or list(map(int, vertex_fields[0::3])) != list(range(nv))  # ids in order
        or len(us) != m
        or min(weights) < 1
        or max(ends, default=0) >= nv
        or any(map(eq, map(on_a.__getitem__, us), map(on_a.__getitem__, vs)))  # inside one side
    ):
        return None
    nbrs: list[set[int]] = [set() for _ in range(nv)]
    for u, v in zip(us, vs):
        nbrs[u].add(v)
        nbrs[v].add(u)
    if sum(map(len, nbrs)) != 2 * m:  # a repeated edge adds no neighbor
        return None
    return _split_instance(weights, on_a, nbrs)


def parse_instance(text: str) -> InstanceFile:
    """An instance file, read by its kind's whole-text reader when it has one
    and the text is in the written shape, and by the line reader otherwise."""
    head = _HEAD.match(text)
    read = KINDS[head[1]].read if head and head[1] in KINDS else None
    if read is not None:
        try:
            payload = read(int(head[2]), text[head.end() :])
        except ValueError:  # a fault, which the line reader names
            payload = None
        if payload is not None:
            return InstanceFile(head[1], payload)
    return _parse_lines(text)


def _parse_lines(text: str) -> InstanceFile:
    """The line reader: any instance file, checked line by line, its first
    fault named with its line."""
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
    for i, (x, y, w) in enumerate(zip(fam.left, fam.right, fam.weight)):
        out.append(f"{i} {x} {y} {w}")
    return out


def _write_tree_edges(inst: TreeEdgesInstance) -> list[str]:
    # f_edges share the host's orientation, so a pair is its own key
    weight = {(u, v): w for u, v, w in inst.f_edges}
    out = [str(inst.host.n)]
    for u, v in inst.host.edges:
        w = weight.get((u, v))
        out.append(f"{u} {v} 0" if w is None else f"{u} {v} 1 {w}")
    return out


def _write_split(inst: SplitInstance) -> list[str]:
    g = inst.graph
    out = [str(g.n)]
    for v in g.vertices:
        side = "A" if v in inst.clique else "B"
        out.append(f"{v} {side} {g.weights[v]}")
    # every neighbor of a B vertex is on the A side
    cross = sorted((a, b) for b in inst.independent for a in g.adjacency[b])
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


def _require_ints(*columns: Iterable[Any]) -> None:
    """Raise ValueError on the first vertex id of the columns that is no int,
    which a writer would print as `True` or `1.0` and no reader takes; the
    test is one set of types, built at C speed."""
    if not {*map(type, chain.from_iterable(columns))} <= {int}:
        bad = next(x for x in chain.from_iterable(columns) if type(x) is not int)
        raise ValueError(f"vertex {bad!r} is not an integer")


def _write_block(header: str, f: DominationFunction, chosen: frozenset[int], value: int) -> str:
    # a DominationFunction checks its values, not its ids
    _require_ints(f.values, chosen)
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


# a result block as `_write_block` writes it: the header, `f v x` lines, the
# `I` line and `value n`
_RESULT = re.compile(r"([^\n]*)\n((?:f [0-9]+ [0-9]+\n)*)I((?: [0-9]+)*\n)value ([0-9]+)\n")


def parse_result(text: str, headers: Sequence[str]) -> tuple[str, Certificate]:
    """A result block under one of `headers`, and the header it carries.

    Certificates and split reports share one layout: `f v x` lines, an `I`
    line and `value n`.  A split report's `I` line is its independent witness,
    which lands in the `dispersed` field.  A block in the written shape is
    read in one pass; any other text, or a fault, goes to the line reader,
    which names it.
    """
    try:
        block = _read_result(text, headers)
    except ValueError:  # a fault, which the line reader names
        block = None
    return block or _parse_result_lines(text, headers)


def _read_result(text: str, headers: Sequence[str]) -> tuple[str, Certificate] | None:
    """A block in the shape `_write_block` emits, its f ids and I ids each
    strictly increasing, so that none repeats; None for any other text."""
    shape = _RESULT.fullmatch(text)
    if shape is None or shape[1] not in headers:
        return None
    pairs = _json_ints(shape[2].replace("f ", ""))
    chosen = _json_ints(shape[3][1:])
    ids = pairs[0::2]
    if not (all(map(lt, ids, ids[1:])) and all(map(lt, chosen, chosen[1:]))):
        return None
    f = DominationFunction(dict(zip(ids, pairs[1::2])))
    return shape[1], Certificate(f, frozenset(chosen), int(shape[4]))


def _parse_result_lines(text: str, headers: Sequence[str]) -> tuple[str, Certificate]:
    """The line reader for result blocks: any block, checked line by line,
    its first fault named with its line."""
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
        v, x = _ints(line, parts[1:], "f line")
        if v in values:
            raise InstanceSemanticError(f"vertex {v} assigned twice")
        values[v] = x
    if parts[0] != "I":
        raise InstanceSyntaxError(line, f"expected an `I` line, got {row!r}")
    chosen: set[int] = set()
    for v in _ints(line, parts[1:], "I line"):
        if v in chosen:
            raise InstanceSemanticError(f"vertex {v} listed twice on the I line")
        chosen.add(v)
    line, row = lines.next("value line")
    parts = row.split()
    if len(parts) != 2 or parts[0] != "value":
        raise InstanceSyntaxError(line, "expected `value n`")
    (value,) = _ints(line, parts[1:], "value line")
    lines.done()
    return header, Certificate(DominationFunction(values), frozenset(chosen), value)


def parse_certificate(text: str) -> Certificate:
    return parse_result(text, (CERT_HEADER,))[1]


# ---------------------------------------------------------------------------
# the kind table


Checks = list[tuple[str, bool]]  # (property, holds) pairs


def _certified(check: CertificateCheck) -> Checks:
    """A certificate's one check, named by its reason when it fails, as `domw verify` prints it."""
    return [(check.reason or "certificate verifies", check.ok)]


def _split_checks(inst: SplitInstance, block: Certificate) -> Checks:
    """A split report proves a feasible function and an independent witness."""
    g, f, witness = inst.graph, block.dominating, block.dispersed
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
    graph, whose vertex count `domw check` compares with its cap before it
    builds the graph.  A kind with an exact solver also reads its section
    as `write` emits it in one pass over the text (`read`, tried before the
    line reader `parse`), writes the solver's result under `result_header`,
    names the checks of the payload a block under that header must pass,
    and names the oracle values (gamma_w, rho_w, gamma_i_w) the solver
    value must equal and those it must bound from above.
    """

    parse: Callable[[_Lines], Any]
    write: Callable[[Any], list[str]]
    graph: Callable[[Any], WeightedGraph]
    vertex_count: Callable[[Any], int]
    read: Callable[[int, str], Any] | None = None
    solve: Callable[[Any], Any] | None = None
    write_result: Callable[[Any], str] = write_certificate
    result_header: str = CERT_HEADER
    check_result: Callable[[Any, Certificate], Checks] | None = None
    equals: tuple[str, ...] = ()
    at_most: tuple[str, ...] = ()


KINDS: dict[str, Kind] = {
    "interval": Kind(
        _parse_interval, _write_interval, intersection_graph, lambda p: p.n, read=_read_interval,
        solve=solve_interval, check_result=lambda p, cert: _certified(check_interval(p, cert)),
        equals=("gamma_w", "rho_w"),
    ),
    "tree-edges": Kind(
        _parse_tree_edges, _write_tree_edges, lambda p: edge_line_graph(p.host, p.f_edges),
        lambda p: len(p.f_edges), read=_read_tree_edges,
        solve=lambda p: _solve_forest(p.host.n, p.f_edges),
        check_result=lambda p, cert: _certified(check_tree_edges(p.f_edges, cert)), equals=("gamma_w", "rho_w"),
    ),
    "split": Kind(
        _parse_split, _write_split, lambda p: p.graph, lambda p: p.graph.n, read=_read_split,
        solve=solve_split, write_result=write_split_result, result_header=SPLIT_HEADER,
        check_result=_split_checks, equals=("gamma_w", "gamma_i_w"), at_most=("rho_w",),
    ),
    "subtree-intersection": Kind(
        _parse_subtrees, _write_subtrees,
        lambda p: _intersection_graph(p.host.n, p._checked_subtrees, p.weights),
        lambda p: len(p.subtrees),
    ),
    "explicit": Kind(_parse_explicit, _write_explicit, lambda g: g, lambda g: g.n),
}


def instance_graph(inst: InstanceFile) -> WeightedGraph:
    """The weighted graph an instance denotes, for oracles and matrices."""
    return KINDS[inst.kind].graph(inst.payload)
