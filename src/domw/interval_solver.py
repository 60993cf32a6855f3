"""Exact weighted domination and dispersion on interval graphs.

A single left-to-right greedy pass builds a minimum w-dominating function f;
the mirrored right-to-left pass builds another one, g.  Scanning the
intervals by right endpoint then decomposes them into blocks, each either a
zero block or owning a witness interval whose weight the block pays for
exactly; the witnesses form a dispersed set of total weight |f|, which proves
optimality of both sides at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

from .errors import TheoremViolation, UnknownVertex
from .graph_core import (
    Certificate,
    DominationFunction,
    WeightedGraph,
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
    """Enumeration by ascending right endpoint, then left endpoint, then id."""
    return tuple(sorted(range(fam.n), key=lambda i: (fam.intervals[i].right, fam.intervals[i].left, i)))


def _closed_neighborhoods(fam: IntervalFamily) -> list[list[int]]:
    return [[j for j in range(fam.n) if j == i or fam.intersects(i, j)] for i in range(fam.n)]


# Forward pass settles intervals by right endpoint and pushes each residual
# onto the closed neighbor reaching furthest right; the backward pass is the
# mirror image under coordinate negation.
def _forward_enum_key(fam: IntervalFamily) -> Callable[[int], tuple]:
    return lambda i: (fam.intervals[i].right, fam.intervals[i].left, i)


def _backward_enum_key(fam: IntervalFamily) -> Callable[[int], tuple]:
    return lambda i: (-fam.intervals[i].left, -fam.intervals[i].right, -i)


def _forward_target_key(fam: IntervalFamily) -> Callable[[int], tuple]:
    # furthest right: the maximum of the forward enumeration order, so ties
    # on the right endpoint fall to the later interval (never the source
    # itself while it still has other neighbors)
    return lambda i: (-fam.intervals[i].right, -fam.intervals[i].left, -i)


def _backward_target_key(fam: IntervalFamily) -> Callable[[int], tuple]:
    # furthest left: the maximum of the backward enumeration order
    return lambda i: (fam.intervals[i].left, fam.intervals[i].right, i)


def _greedy(
    fam: IntervalFamily,
    enum_key: Callable[[int], tuple],
    target_key: Callable[[int], tuple],
) -> tuple[DominationFunction, GreedyTrace]:
    nbhd = _closed_neighborhoods(fam)
    order = sorted(range(fam.n), key=enum_key)
    residual = [iv.weight for iv in fam.intervals]
    values: dict[int, int] = {}
    steps: list[GreedyStep] = []
    # residuals only decrease, so a single scan visits every positive source
    for v in order:
        if residual[v] == 0:
            continue
        target = min(nbhd[v], key=target_key)
        amount = residual[v]
        values[target] = values.get(target, 0) + amount
        steps.append(GreedyStep(v, target, amount))
        for z in nbhd[target]:
            residual[z] = max(0, residual[z] - amount)
        for z in range(fam.n):
            # residuals stay recomputable from the mass placed so far
            placed = sum(values.get(u, 0) for u in nbhd[z])
            if residual[z] != max(0, fam.intervals[z].weight - placed):
                raise TheoremViolation(f"residual of interval {z} drifted from the placed mass")
    f = DominationFunction(values)
    return f, GreedyTrace(tuple(steps))


def forward_greedy(fam: IntervalFamily) -> tuple[DominationFunction, GreedyTrace]:
    """Minimum w-dominating function built left to right."""
    return _greedy(fam, _forward_enum_key(fam), _forward_target_key(fam))


def backward_greedy(fam: IntervalFamily) -> tuple[DominationFunction, GreedyTrace]:
    """The mirrored greedy: enumerate right to left, push mass leftward."""
    return _greedy(fam, _backward_enum_key(fam), _backward_target_key(fam))


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
    nbhd = _closed_neighborhoods(fam)
    order = order_by_right_endpoint(fam)
    position = {v: i for i, v in enumerate(order)}
    target_key = _backward_target_key(fam)

    def is_witness(z: int, v: int) -> bool:
        # v must be the furthest-left-reaching closed neighbor of z, and the
        # mass g places on N(z) must pay for w(z) exactly
        if v != min(nbhd[z], key=target_key):
            return False
        return set_sum(g, nbhd[z]) == fam.intervals[z].weight

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
        # the backward trace recorded exactly the source/target pairs the
        # witness argument is about; fall back to a full scan if none fits
        candidates = sorted(
            {step.source for step in gtrace.steps if step.target == v and is_witness(step.source, v)}
        )
        if not candidates:
            candidates = sorted(z for z in nbhd[v] if is_witness(z, v))
        if not candidates:
            raise TheoremViolation(f"no witness interval for {v}")
        z = candidates[0]
        members = nbhd[z]
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
    """Certificate with gamma_w = rho_w on the interval graph of the family."""
    f, _ = forward_greedy(fam)
    g, gtrace = backward_greedy(fam)
    if f.size != g.size:
        raise TheoremViolation("forward and backward greedy disagree on the value")
    dispersed, _ = extract_dispersed(fam, f, g, gtrace)
    cert = Certificate(f, dispersed, f.size)
    check = verify_certificate(intersection_graph(fam), cert)
    if not check:
        raise TheoremViolation(f"certificate failed re-verification: {check.reason}")
    return cert
