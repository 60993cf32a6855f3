"""Exact weighted domination and dispersion on interval graphs.

A single left-to-right greedy pass builds a minimum w-dominating function f;
the mirrored right-to-left pass builds another one, g.  Scanning the
intervals by right endpoint then decomposes them into blocks, each either a
zero block or owning a witness interval whose weight the block pays for
exactly; the witnesses form a dispersed set of total weight |f|, which proves
optimality of both sides at once.

A family is three columns indexed by id: left ends, right ends and weights.
All three phases read those columns and two orders of the ids, K_r = (right,
left, id) and K_l = (left, right, id), which a family sorts once, each by one
int key, and keeps; the self-check is `checkers.check_interval`, which shares
no code with the solver: it sorts only f's support and the witnesses, by
each end, on its own, and reads the columns in id order.  Each
pass returns its steps as a `GreedyTrace` of three int columns (source, target,
amount), which the extraction reads as they are; the solve is the three public
phases and the self-check.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from math import inf
from typing import Iterable, Mapping, Sequence

from .checkers import check_interval, self_check
from .errors import TheoremViolation
from .graph_core import Certificate, DominationFunction, WeightedGraph


def _fault(left, right, weight) -> str:
    """Why (left, right, weight) is no interval, or "" when it is one."""
    if not (isinstance(left, int) and isinstance(right, int) and isinstance(weight, int)):
        return "interval data must be integers"
    if left > right:
        return f"interval [{left}, {right}] is reversed"
    if weight < 1:
        return "interval weight must be positive"
    return ""


@dataclass(frozen=True)
class Interval:
    left: int
    right: int
    weight: int

    def __post_init__(self):
        fault = _fault(self.left, self.right, self.weight)
        if fault:
            raise ValueError(fault)


@dataclass(frozen=True)
class IntervalFamily:
    """Closed intervals with integer endpoints; ids are positions.

    The family is three columns, one slot per id: left end, right end and
    weight.  The constructor checks every slot with `Interval`'s checks and
    raises its ValueError.
    """

    left: tuple[int, ...]
    right: tuple[int, ...]
    weight: tuple[int, ...]

    def __post_init__(self) -> None:
        if not len(self.left) == len(self.right) == len(self.weight):
            raise ValueError("interval columns must have equal lengths")
        for x, y, w in zip(self.left, self.right, self.weight):
            fault = _fault(x, y, w)
            if fault:
                raise ValueError(fault)

    @classmethod
    def of(cls, triples: Iterable[tuple[int, int, int]]) -> "IntervalFamily":
        rows = [(x, y, w) for x, y, w in triples]
        return cls(*zip(*rows)) if rows else cls((), (), ())

    @classmethod
    def _checked(
        cls, left: tuple[int, ...], right: tuple[int, ...], weight: tuple[int, ...]
    ) -> "IntervalFamily":
        """A family of columns whose every slot the caller has already checked."""
        fam = object.__new__(cls)
        for name, column in (("left", left), ("right", right), ("weight", weight)):
            object.__setattr__(fam, name, column)
        return fam

    @property
    def intervals(self) -> tuple[Interval, ...]:
        return tuple(map(Interval, self.left, self.right, self.weight))

    @property
    def n(self) -> int:
        return len(self.left)

    @cached_property
    def _orders(self) -> tuple[tuple[int, ...], ...]:
        """The ids by K_r and by K_l, and each id's position in each order.

        Each order is a stable sort of the ids by one int key.  Every end
        lies in lo..lo + span - 1, so (right - lo) * span + (left - lo) ranks
        the ids as (right, left) does, and its mirror as (left, right) does.
        """
        n, left, right = self.n, self.left, self.right
        if not n:
            return (), (), (), ()
        lo = min(left)
        span = max(right) - lo + 1
        ids = range(n)
        k_r = [(y - lo) * span + (x - lo) for x, y in zip(left, right)]
        k_l = [(x - lo) * span + (y - lo) for x, y in zip(left, right)]
        by_right = tuple(sorted(ids, key=k_r.__getitem__))
        by_left = tuple(sorted(ids, key=k_l.__getitem__))
        pos_r, pos_l = [0] * n, [0] * n
        for k, i in enumerate(by_right):
            pos_r[i] = k
        for k, i in enumerate(by_left):
            pos_l[i] = k
        return by_right, by_left, tuple(pos_r), tuple(pos_l)


@dataclass(frozen=True)
class GreedyStep:
    source: int  # interval whose residual was settled
    target: int  # closed neighbor that received the mass
    amount: int


@dataclass(frozen=True)
class GreedyTrace:
    """A pass's steps as three columns, one slot per step."""

    sources: tuple[int, ...]
    targets: tuple[int, ...]
    amounts: tuple[int, ...]

    def __post_init__(self) -> None:
        if not len(self.sources) == len(self.targets) == len(self.amounts):
            raise ValueError("trace columns must have equal lengths")

    @property
    def steps(self) -> tuple[GreedyStep, ...]:
        """The steps as `GreedyStep`s, packed from the columns on each read."""
        return tuple(map(GreedyStep, self.sources, self.targets, self.amounts))


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
    lefts = fam.left
    by_left = sorted(range(fam.n), key=lefts.__getitem__)
    edges = []
    for k, i in enumerate(by_left):
        right = fam.right[i]
        for later in range(k + 1, fam.n):
            j = by_left[later]
            if lefts[j] > right:
                break
            edges.append((i, j))
    return WeightedGraph.from_edges(fam.weight, edges)


def order_by_right_endpoint(fam: IntervalFamily) -> tuple[int, ...]:
    """Enumeration by ascending K_r = (right endpoint, left endpoint, id)."""
    return fam._orders[0]


# The running extrema compare inline and index in the loop: for 150 ints,
# accumulate(map(rank.__getitem__, ids), max) takes 37 us, as it calls the
# builtin once per item, and these loops 8 us (CPython 3.11, 2-core x86).
# In that form the four of a solve took about a tenth of an interval-dense one.


def _running_max(rank: Sequence[int], ids: Iterable[int]) -> list[int]:
    """The maximum of rank[i] over each prefix of ids."""
    out = []
    top = -inf
    for i in ids:
        r = rank[i]
        if r > top:
            top = r
        out.append(top)
    return out


def _running_min(rank: Sequence[int], ids: Iterable[int]) -> list[int]:
    """The minimum of rank[i] over each prefix of ids."""
    out = []
    low = inf
    for i in ids:
        r = rank[i]
        if r < low:
            low = r
        out.append(low)
    return out


def _greedy(fam: IntervalFamily, forward: bool) -> tuple[DominationFunction, GreedyTrace]:
    """One pass: its function and its steps."""
    # Both passes read the family's two orders.  The forward pass settles by
    # ascending K_r and pushes each shortfall onto the closed neighbor latest
    # in K_r: furthest right, on a tie the later interval, never the source
    # itself while it has other neighbors.  The backward pass mirrors it on
    # (lo, hi) = (-right, -left): descending K_l, onto the earliest in K_l.
    by_right, by_left, pos_r, pos_l = fam._orders
    if forward:
        los, his = fam.left, fam.right
        settle, scan, rank = by_right, by_left, pos_r
    else:
        last = fam.n - 1
        los, his = [-y for y in fam.right], [-x for x in fam.left]
        settle, scan, rank = by_left[::-1], by_right[::-1], [last - p for p in pos_l]
    starts = list(map(los.__getitem__, scan))
    weight = fam.weight
    # rank[i] is i's position in the settle order.  Of the intervals with
    # lo <= hi[v], the one ranked highest ends at or after v, so it is the
    # target.  The running maximum is read only after a whole run of equal
    # lo, so the order inside such a run does not matter.
    best = _running_max(rank, scan)
    values: dict[int, int] = {}
    sources: list[int] = []
    targets: list[int] = []
    amounts: list[int] = []
    target_ends: list[int] = []
    placed = [0]  # placed[k]: mass of the first k steps
    total = 0
    # Each earlier target meets an earlier source, which ends no later than
    # v, so it starts no later than v ends.  The prefix maximum only grows,
    # so the targets' ends never decrease.  The mass that misses v is thus
    # on the first steps, whose targets end before v starts.  Both facts
    # are guarded at every step.
    for v in settle:
        lo, hi = los[v], his[v]
        amount = weight[v] - total + placed[bisect_left(target_ends, lo)]
        if amount <= 0:
            continue
        target = settle[best[bisect_right(starts, hi) - 1]]
        target_hi = his[target]
        if los[target] > hi or target_hi < lo:
            raise TheoremViolation(f"target {target} misses its source {v}")
        if target_ends and target_hi < target_ends[-1]:
            raise TheoremViolation(f"target {target} ends before the previous target")
        values[target] = values.get(target, 0) + amount
        sources.append(v)
        targets.append(target)
        amounts.append(amount)
        target_ends.append(target_hi)
        total += amount
        placed.append(total)
    return DominationFunction(values), GreedyTrace(tuple(sources), tuple(targets), tuple(amounts))


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
    bug, not an unlucky instance.  Neighborhoods are read off the sorted
    endpoints; no graph is built.
    """
    n, left, right, weight = fam.n, fam.left, fam.right, fam.weight
    order, by_left, position, pos_l = fam._orders
    lefts, rights = [left[i] for i in by_left], [right[v] for v in order]
    # f and g at the ids 0..n-1; mass on any other id is left out, so the final weight check raises on it
    fv, gv = [0] * n, [0] * n
    for column, h in ((fv, f), (gv, g)):
        for v, x in h.values.items():
            if 0 <= v < n:
                column[v] = x
    # N[z] is the first hi intervals by left minus the first lo by right (those
    # end before z starts), so prefix sums in both orders give g[N[z]].  From lo
    # on, the enumeration holds z, so its K_l-least member starts by z.right;
    # the latest in it of the first hi by left ends at or after z: both are in N[z].
    g_l = [0, *accumulate(map(gv.__getitem__, by_left))]
    f_r, g_r = ([0, *accumulate(map(h.__getitem__, order))] for h in (fv, gv))
    first = [by_left[p] for p in _running_min(pos_l, reversed(order))][::-1]
    last = _running_max(position, by_left)
    pushed_by: dict[int, list[int]] = {}  # the sources of each target
    for source, target in zip(gtrace.sources, gtrace.targets):
        pushed_by.setdefault(target, []).append(source)

    blocks: list[tuple[int, ...]] = []
    k_indices: set[int] = set()
    representatives: dict[int, int] = {}  # by J-block index

    pos = 0
    while pos < n:
        v = order[pos]
        if gv[v] == 0:
            if fv[v] != 0:
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
        z = hi = None
        for s in pushed_by.get(v, ()):
            s_lo, s_hi = bisect_left(rights, left[s]), bisect_right(lefts, right[s])
            # v must be the furthest-left-reaching closed neighbor of s, and
            # the mass g places on N(s) must pay for w(s) exactly
            if v == first[s_lo] and g_l[s_hi] - g_r[s_lo] == weight[s] and (z is None or s < z):
                z, hi = s, s_hi
        if z is None:
            raise TheoremViolation(f"no witness interval for {v}")
        end = last[hi - 1] + 1
        block = order[pos:end]
        wz = weight[z]
        # The block holds every neighbor of z from v on.  The others lie inside
        # v, in earlier blocks, and carry no mass: each is a zero block, as one
        # heading a J-block would have v, K_l-earlier, in its witness's
        # neighborhood, and one inside a J-block would lie inside the interval
        # that stretches that block, which starts before v and meets z.
        if f_r[end] - f_r[pos] != wz or g_r[end] - g_r[pos] != wz:
            raise TheoremViolation(f"block of witness {z} does not pay for it exactly")
        blocks.append(block)
        representatives[len(blocks) - 1] = z
        pos = end

    total = sum(weight[z] for z in representatives.values())
    if total != f.size or total != g.size:
        raise TheoremViolation("witness weight does not match the greedy value")
    decomposition = DispersedDecomposition(
        tuple(blocks), frozenset(representatives), frozenset(k_indices), representatives
    )
    return frozenset(representatives.values()), decomposition


def solve_interval(fam: IntervalFamily) -> Certificate:
    """Certificate with gamma_w = rho_w on the interval graph of the family.

    Every phase and the self-check read the sorted endpoints; no graph is built.
    """
    f, _ = forward_greedy(fam)
    g, gtrace = backward_greedy(fam)
    if f.size != g.size:
        raise TheoremViolation("forward and backward greedy disagree on the value")
    dispersed, _ = extract_dispersed(fam, f, g, gtrace)
    return self_check(check_interval, fam, Certificate(f, dispersed, f.size))
