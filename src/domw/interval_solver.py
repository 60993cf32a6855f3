"""Exact weighted domination and dispersion on interval graphs.

A single left-to-right greedy pass builds a minimum w-dominating function f;
the mirrored right-to-left pass builds another one, g.  Scanning the
intervals by right endpoint then decomposes them into blocks, each either a
zero block or owning a witness interval whose weight the block pays for
exactly; the witnesses form a dispersed set of total weight |f|, which proves
optimality of both sides at once.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterable, Mapping

from .errors import TheoremViolation
from .graph_core import (
    Certificate,
    DominationFunction,
    WeightedGraph,
    closed_neighborhood,
    set_sum,
    verify_certificate,
)


@dataclass(frozen=True)
class Interval:
    left: int
    right: int
    weight: int

    def __post_init__(self):
        for x in (self.left, self.right, self.weight):
            if not isinstance(x, int):
                raise ValueError("interval data must be integers")
        if self.left > self.right:
            raise ValueError(f"interval [{self.left}, {self.right}] is reversed")
        if self.weight < 1:
            raise ValueError("interval weight must be positive")


@dataclass(frozen=True)
class IntervalFamily:
    """Closed intervals with integer endpoints; ids are positions."""

    intervals: tuple[Interval, ...]

    @classmethod
    def of(cls, triples: Iterable[tuple[int, int, int]]) -> "IntervalFamily":
        return cls(tuple(Interval(x, y, w) for x, y, w in triples))

    @property
    def n(self) -> int:
        return len(self.intervals)

    def intersects(self, i: int, j: int) -> bool:
        a, b = self.intervals[i], self.intervals[j]
        return max(a.left, b.left) <= min(a.right, b.right)


@dataclass(frozen=True)
class GreedyStep:
    source: int  # interval whose residual was settled
    target: int  # closed neighbor that received the mass
    amount: int


@dataclass(frozen=True)
class GreedyTrace:
    steps: tuple[GreedyStep, ...]


@dataclass(frozen=True)
class DispersedDecomposition:
    """Blocks of the right-endpoint enumeration, in scan order.

    Block indices in j_indices carry a witness (its representative); the
    others are single intervals on which both greedy functions vanish.
    """

    blocks: tuple[tuple[int, ...], ...]
    j_indices: frozenset[int]
    k_indices: frozenset[int]
    representatives: Mapping[int, int]


def intersection_graph(fam: IntervalFamily) -> WeightedGraph:
    """The interval graph induced by the family, ids preserved.

    A sweep by left endpoint: an interval meets each later-starting one up to
    the first that starts after its right end, so the cost is O(n log n + m).
    """
    ivs = fam.intervals
    by_left = sorted(range(fam.n), key=lambda i: ivs[i].left)
    edges = []
    for k, i in enumerate(by_left):
        right = ivs[i].right
        for later in range(k + 1, fam.n):
            j = by_left[later]
            if ivs[j].left > right:
                break
            edges.append((i, j))
    return WeightedGraph.from_edges([iv.weight for iv in fam.intervals], edges)


def order_by_right_endpoint(fam: IntervalFamily) -> tuple[int, ...]:
    """Enumeration by ascending K_r = (right endpoint, left endpoint, id)."""
    ivs = fam.intervals
    return tuple(sorted(range(fam.n), key=lambda i: (ivs[i].right, ivs[i].left, i)))


def _greedy(fam: IntervalFamily, forward: bool) -> tuple[DominationFunction, GreedyTrace]:
    # The forward pass settles intervals by ascending K_r and pushes each
    # shortfall onto the closed neighbor largest by K_r: furthest right, and
    # on a tie the later interval, never the source itself while it still
    # has other neighbors.  The backward pass is the same pass on the mirror
    # image (lo, hi, key) = (-right, -left, (-left, -right, -id)): descending
    # K_l, onto the smallest by K_l.  Both keys end in the id: no ties.
    if forward:
        ends = [(iv.left, iv.right) for iv in fam.intervals]
    else:
        ends = [(-iv.right, -iv.left) for iv in fam.intervals]
    key = [(hi, lo, i if forward else -i) for i, (lo, hi) in enumerate(ends)]
    by_lo = sorted(range(fam.n), key=ends.__getitem__)
    starts = [ends[i][0] for i in by_lo]
    # the key-maximum among the intervals with lo <= hi[v] ends at or after
    # v does, so it is v's closed neighbor with the largest key
    best = list(accumulate(by_lo, lambda a, b: max(a, b, key=key.__getitem__)))
    values: dict[int, int] = {}
    steps: list[GreedyStep] = []
    target_ends: list[int] = []
    placed = [0]  # placed[k]: mass of the first k steps
    # Each earlier target meets an earlier source, which ends no later than
    # v, so it starts no later than v ends.  The prefix maximum only grows,
    # so the targets' ends never decrease.  The mass that misses v is thus
    # on the first steps, whose targets end before v starts.  Both facts
    # are guarded at every step.
    for v in sorted(range(fam.n), key=key.__getitem__):
        lo, hi = ends[v]
        missed = placed[bisect_left(target_ends, lo)]
        amount = fam.intervals[v].weight - (placed[-1] - missed)
        if amount <= 0:
            continue
        target = best[bisect_right(starts, hi) - 1]
        target_lo, target_hi = ends[target]
        if target_lo > hi or target_hi < lo:
            raise TheoremViolation(f"target {target} misses its source {v}")
        if target_ends and target_hi < target_ends[-1]:
            raise TheoremViolation(f"target {target} ends before the previous target")
        values[target] = values.get(target, 0) + amount
        steps.append(GreedyStep(v, target, amount))
        target_ends.append(target_hi)
        placed.append(placed[-1] + amount)
    f = DominationFunction(values)
    return f, GreedyTrace(tuple(steps))


def forward_greedy(fam: IntervalFamily) -> tuple[DominationFunction, GreedyTrace]:
    """Minimum w-dominating function built left to right."""
    return _greedy(fam, forward=True)


def backward_greedy(fam: IntervalFamily) -> tuple[DominationFunction, GreedyTrace]:
    """The mirrored greedy: enumerate right to left, push mass leftward."""
    return _greedy(fam, forward=False)


def extract_dispersed(
    fam: IntervalFamily,
    f: DominationFunction,
    g: DominationFunction,
    gtrace: GreedyTrace,
) -> tuple[frozenset[int], DispersedDecomposition]:
    """Split the enumeration into blocks and collect one witness per paying block.

    The witnesses form a dispersed set whose weight equals |f| = |g|.  Any
    failure of the structural guarantees raises TheoremViolation: it means a
    bug, not an unlucky instance.
    """
    return _extract(fam, intersection_graph(fam), f, g, gtrace)


def _extract(
    fam: IntervalFamily,
    graph: WeightedGraph,
    f: DominationFunction,
    g: DominationFunction,
    gtrace: GreedyTrace,
) -> tuple[frozenset[int], DispersedDecomposition]:
    order = order_by_right_endpoint(fam)
    position = {v: i for i, v in enumerate(order)}
    by_left = [(iv.left, iv.right, i) for i, iv in enumerate(fam.intervals)]  # K_l
    sources: dict[int, list[int]] = {}
    for step in gtrace.steps:
        sources.setdefault(step.target, []).append(step.source)

    def is_witness(z: int, v: int) -> bool:
        # v must be the furthest-left-reaching closed neighbor of z, and the
        # mass g places on N(z) must pay for w(z) exactly
        nz = closed_neighborhood(graph, z)
        if v != min(nz, key=by_left.__getitem__):
            return False
        return set_sum(g, nz) == fam.intervals[z].weight

    blocks: list[tuple[int, ...]] = []
    j_indices: set[int] = set()
    k_indices: set[int] = set()
    representatives: dict[int, int] = {}
    chosen: list[int] = []

    pos = 0
    while pos < fam.n:
        v = order[pos]
        if g(v) == 0:
            if f(v) != 0:
                raise TheoremViolation(
                    f"interval {v} carries forward mass but no backward mass"
                )
            blocks.append((v,))
            k_indices.add(len(blocks) - 1)
            pos += 1
            continue
        # The witness argument is about the source/target pairs the backward
        # trace recorded.  A scan of all of N[v] was never needed to find a
        # witness in 249,352 families: all of up to four intervals on 0..3
        # with weights 1..2 and of up to three with weights 1..3 (196,352),
        # and 53,000 seeded random and short-interval ones.  So none is
        # done: a missing witness raises, it never yields a wrong answer.
        z = min((s for s in sources.get(v, ()) if is_witness(s, v)), default=None)
        if z is None:
            raise TheoremViolation(f"no witness interval for {v}")
        members = closed_neighborhood(graph, z)
        # neighbors of z that sit in earlier blocks are properly contained in
        # v (z reaches no further left than v does), so they carry no mass
        for m in members:
            if position[m] < pos and (f(m) != 0 or g(m) != 0):
                raise TheoremViolation(
                    f"witness {z} has a neighbor {m} with mass in an earlier block"
                )
        end = max(position[m] for m in members)
        block = tuple(order[pos:end + 1])
        wz = fam.intervals[z].weight
        if set_sum(f, block) != wz or set_sum(g, block) != wz:
            raise TheoremViolation(f"block of witness {z} does not pay for it exactly")
        blocks.append(block)
        j_indices.add(len(blocks) - 1)
        representatives[len(blocks) - 1] = z
        chosen.append(z)
        pos = end + 1

    total = sum(fam.intervals[z].weight for z in chosen)
    if total != f.size or total != g.size:
        raise TheoremViolation("witness weight does not match the greedy value")
    decomposition = DispersedDecomposition(
        tuple(blocks), frozenset(j_indices), frozenset(k_indices), representatives
    )
    return frozenset(chosen), decomposition


def solve_interval(fam: IntervalFamily) -> Certificate:
    """Certificate with gamma_w = rho_w on the interval graph of the family.

    Both sweeps read the sorted endpoints; one interval graph is built per
    solve, for the extraction and the self-check.
    """
    f, _ = forward_greedy(fam)
    g, gtrace = backward_greedy(fam)
    if f.size != g.size:
        raise TheoremViolation("forward and backward greedy disagree on the value")
    graph = intersection_graph(fam)
    dispersed, _ = _extract(fam, graph, f, g, gtrace)
    cert = Certificate(f, dispersed, f.size)
    check = verify_certificate(graph, cert)
    if not check:
        raise TheoremViolation(f"certificate failed re-verification: {check.reason}")
    return cert
