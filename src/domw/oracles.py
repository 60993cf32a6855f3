"""Independent ground-truth oracles: brute force, exact rational LP, matrix tests.

Everything here is deliberately separate from the interval and tree-edge
solvers so the two routes can disagree loudly in tests.  One capped,
memoized search finds a heaviest packing, items with pairwise disjoint
masks: rho_w is one, with the closed neighborhoods as masks, and the cover
search bounds its value by one, with the demands' supplier sets as masks.
gamma_i_w prices the maximal independent sets, which a Bron-Kerbosch
enumeration on an explicit stack lists without a 2^n table.
The branch and bound `min_dominating` is also the split solver's cover
search; the split tests therefore keep a plain exhaustive reference that
does not use it.  Its node state is a bitmask over the demands for each
remaining deficit, and its greedy packing bound reads one conflict mask per
demand.  Before its first pass it computes the exact packing and prunes
every node on what the packed demands still lack.  It searches one target
value at a time, from the packing's weight up to just below its greedy
seed, as iterative deepening on the objective (Korf 1985): each pass
prunes every node that cannot reach a cover of the target and stops at its
first cover.  The LP oracle runs one single-phase simplex on the packing
LP from the slack basis and reads the covering dual off its final cost
row; both vectors are checked exactly.  All arithmetic is exact: integer
branch and bound, Fraction simplex, fraction-free determinants.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import BadPermutation, InstanceTooLarge, LPInternalError, TheoremViolation
from .graph_core import DominationFunction, WeightedGraph, is_w_dominating

DEFAULT_CAP = 10
# Nodes one min_dominating search may visit before it raises InstanceTooLarge
# (exit code 3) instead of running on, counted over all its target passes.
# The most any search has needed: 1,594 on the 18,000 split-search benchmark
# instances of workload seeds 0-9, 23,407 in the test suite (61,811 with the
# root packing capped off), 63,312 (about 0.2 s) on gen_split(3, 18, 40, 50,
# 5), 194,787 on gen_split(4, 24, 40, 20, 5), 229,521 on gen_split(3, 24, 60,
# 50, 5).  brute_gamma_i's enumeration has a budget of its own, as large:
# it takes 2,379 nodes on CI's 40-interval file.
NODE_BUDGET = 1_000_000
# Masks of free suppliers one packing search may hold, solved or still open,
# before it gives up, as an exact packing is itself exponential: the cover
# search then runs with its greedy packing alone, and brute_rho raises
# InstanceTooLarge (exit code 3).  Each open mask is one level of recursion,
# so the cap also keeps it inside Python's default recursion limit of 1,000.
# The most a cover search's packing has needed: 92 masks on the
# 18,000 split-search benchmark covers of workload seeds 0-9, 110 on the test
# suite's 3,000 digest covers, 377 on gen_split(4, 24, 40, 20, 5).  Sparse
# covers need more, and many still solve through the fallback: of the 405
# files gen_split(seed 0-2, n_a 14-30 even, n_b 20/40/60, edge_prob
# 8/12/15/20/30, 5), 73 needed more than 500 masks and 48 of those solved
# within NODE_BUDGET, such as gen_split(1, 28, 40, 12, 5) at 767 masks
# (value 32) and gen_split(1, 30, 40, 8, 5) at 1,353 (value 45).
PACKING_MASKS = 500


def _check_cap(n: int, cap: int) -> None:
    if n > cap:
        raise InstanceTooLarge(f"{n} vertices exceeds the cap of {cap}")


class _PackingTooLarge(Exception):
    """The packing search reached PACKING_MASKS masks."""


def _settle(free: int, starting: Mapping[int, list[tuple[int, int, int]]]) -> int:
    """free without its lowest suppliers that start no item inside it."""
    while free:
        low = free & -free
        for mask, _, _ in starting.get(low, ()):
            if mask & free == mask:
                return free
        free ^= low
    return 0


def _packing_search(
    free: int,
    depth: int,
    starting: Mapping[int, list[tuple[int, int, int]]],
    best: dict[int, tuple[int, int]],
) -> tuple[int, int]:
    """The heaviest packing inside free, as its weight and items; best holds
    the masks already solved.  Raises _PackingTooLarge when those and the
    masks open above it exceed PACKING_MASKS, which bounds the depth too."""
    got = best.get(free)
    if got is not None:
        return got
    if len(best) + depth > PACKING_MASKS:
        raise _PackingTooLarge
    low = free & -free
    depth += 1
    top, chosen = _packing_search(_settle(free ^ low, starting), depth, starting, best)
    for mask, weight, item in starting[low]:
        if mask & free == mask:
            rest, taken = _packing_search(_settle(free & ~mask, starting), depth, starting, best)
            if weight + rest > top:
                top, chosen = weight + rest, taken | item
    best[free] = top, chosen
    return top, chosen


def _max_packing(supply: Sequence[int], weights: Sequence[int]) -> int:
    """A heaviest set of items with pairwise disjoint masks, as a bitmask
    over item positions; 0 when the search would hold more than
    PACKING_MASKS masks.

    Item i is the mask supply[i], of weight weights[i]; a mask's bits are
    called suppliers, as in the cover search, and are vertices for rho_w.
    Of the items with one mask only the heaviest, the lowest on a tie, is
    kept, and an item is dropped when one of its suppliers alone carries an
    item at least as heavy.  The search is memoized over masks of free
    suppliers.  At a mask it leaves its lowest supplier unused or takes an
    item that starts there and fits; a supplier that starts no fitting item
    is left unused at once, so every mask it enters starts a fitting item.
    """
    heaviest: dict[int, int] = {}
    for i, (mask, weight) in enumerate(zip(supply, weights)):
        if mask not in heaviest or weight > weights[heaviest[mask]]:
            heaviest[mask] = i
    # alone[t]: the suppliers that alone carry an item of weight t or more
    alone = [0] * (max(weights) + 1)
    for mask, i in heaviest.items():
        if not mask & (mask - 1):
            for t in range(weights[i] + 1):
                alone[t] |= mask
    starting: dict[int, list[tuple[int, int, int]]] = {}  # lowest supplier -> items
    union = 0
    for mask, i in heaviest.items():
        if mask & (mask - 1) and mask & alone[weights[i]]:
            continue
        starting.setdefault(mask & -mask, []).append((mask, weights[i], 1 << i))
        union |= mask
    try:
        return _packing_search(_settle(union, starting), 0, starting, {0: (0, 0)})[1]
    except _PackingTooLarge:
        return 0


def min_dominating(
    g: WeightedGraph,
    demands: Iterable[int],
    suppliers: Iterable[int] | None = None,
) -> tuple[int, DominationFunction]:
    """Exact minimum size of a function with f[N(u)] >= w(u) for u in demands.

    Depth-first branch and bound on an explicit stack, one level per
    supplier, suppliers by falling degree.  When suppliers is given, only
    those vertices may carry mass.  A search that visits more than
    NODE_BUDGET nodes, over all its passes, raises InstanceTooLarge.  Among
    equal optima the greedy seed (below) is returned when it is optimal, and
    otherwise the first optimum in depth-first order.

    The node state is bit-parallel.  Demands are bits, at their positions in
    sorted order, and a node holds level[0..W], W the largest demand weight:
    level[d] holds the demands that still lack exactly d, so all are met when
    level[0] is full.  A supplier's cover mask holds the demands in its closed
    neighborhood.  Its value runs from the highest level that meets the
    demands whose last supplier it is (each demand is met there at the
    latest) up to the highest level that meets its cover mask (anything above
    is reducible).  Placing a value moves each covered demand that many
    levels down in O(W) mask operations, and the child gets the new levels as
    its own.

    Demands with disjoint supplier sets need disjoint mass, so two packings
    bound each node.  Before its first pass, the search computes P, a
    heaviest such set of demands (_max_packing; none past its mask cap).  No
    function is lighter than w(P).  Each node carries what P's demands still
    lack in all; a supplier serves at most one of them, so placing a value
    lowers it by at most that value.  A child is pruned before it is built
    when what it would carry is at least its gap to the incumbent; its
    gap falls by one per unit of value and what it carries by at most one,
    so the larger values of its node are pruned with it.  At each node that
    is built, a greedy packing walks the levels from W down, takes the
    lowest free demand each time and blocks that demand's conflict mask, the
    demands whose closed neighborhoods meet its own; it stops as soon as the
    bound prunes.  Neither bound prunes a node that could beat the
    incumbent.

    The incumbent starts as a greedy cover, the seed.  The search then runs
    in passes with targets T = w(P), w(P) + 1, ... up to the seed's size
    less one, each from the root.  A pass bounds every node by T + 1, so it
    prunes each node that cannot reach a cover of size T or less, and it
    stops at its first cover.  A pass that finds none proves the optimum
    above T; the passes before it proved it at least T, so the first cover
    weighs T and is the first optimum in depth-first order.  If every target
    fails, the seed is optimal and is returned.
    """
    demand_list = sorted(set(demands))
    if not demand_list:
        return 0, DominationFunction()
    w = g.weights
    # holders[x]: the demands whose closed neighborhood contains x, which is
    # the cover mask of x as a supplier
    holders = [0] * g.n
    for i, u in enumerate(demand_list):
        for x in (u, *g.adjacency[u]):
            holders[x] |= 1 << i
    pool = g.vertices if suppliers is None else sorted(set(suppliers))
    variables = sorted((v for v in pool if holders[v]), key=lambda v: (-g.degree(v), v))
    covers = [holders[v] for v in variables]
    # lasts[j]: the demands whose last supplier in the branching order is at
    # position j.  The node there forces at least their deficit onto it, so
    # every demand is met by the time the search passes its last supplier: no
    # node meets an unmet demand with no supplier left, and none runs past
    # the end.
    lasts = []
    seen = 0
    for cover in reversed(covers):
        lasts.append(cover & ~seen)
        seen |= cover
    lasts.reverse()
    full = (1 << len(demand_list)) - 1
    if seen != full:
        missing = full & ~seen
        u = demand_list[(missing & -missing).bit_length() - 1]
        raise ValueError(f"demand at vertex {u} has no available supplier")
    # conflict[i]: the demands whose closed neighborhood meets demand i's
    conflict = []
    for u in demand_list:
        mask = 0
        for x in (u, *g.adjacency[u]):
            mask |= holders[x]
        conflict.append(mask)
    max_w = max(w[u] for u in demand_list)
    start = [0] * (max_w + 1)
    for i, u in enumerate(demand_list):
        start[w[u]] |= 1 << i

    def place(level: list[int], cover: int, val: int) -> list[int]:
        # every covered demand lacks val less; those that lacked at most val are met
        keep = ~cover
        met = level[0]
        for d in range(1, val + 1):
            met |= level[d] & cover
        moved = level[val + 1 :] + [0] * val
        return [met] + [low & keep | high & cover for low, high in zip(level[1:], moved)]

    def greedy_seed() -> dict[int, int]:
        # each round meets the neediest unmet demand, the lowest on a tie, by
        # adding what it lacks at its supplier that covers the most unmet
        # demands; so the seed is never worse than w(u) on every demand u
        values: dict[int, int] = {}
        level = start
        while level[0] != full:
            d = max_w
            while not level[d]:
                d -= 1
            bit = level[d] & -level[d]
            unmet = ~level[0]
            j = max(
                (j for j, cover in enumerate(covers) if cover & bit),
                key=lambda j: ((covers[j] & unmet).bit_count(), -variables[j]),
            )
            values[variables[j]] = values.get(variables[j], 0) + d
            level = place(level, covers[j], d)
        return values

    best_values = greedy_seed()
    best_size = sum(best_values.values())
    # supply[i]: the positions of demand i's suppliers, as a bitmask
    supply = [0] * len(demand_list)
    for j, cover in enumerate(covers):
        while cover:
            low = cover & -cover
            supply[low.bit_length() - 1] |= 1 << j
            cover ^= low
    packed = _max_packing(supply, [w[u] for u in demand_list])  # P, over the demands
    floor = sum(w[u] for i, u in enumerate(demand_list) if packed >> i & 1)  # w(P)
    path = [0] * len(variables)  # the value at each position above the node
    nodes = 0
    # frames[k]: a node on the current path, as its position, size, levels,
    # what P's demands still lack in all and what the one its supplier
    # serves lacks (P's supplier sets are disjoint), and the values it has
    # yet to place.  The path lives in this list, not on the call stack, so
    # the search depth (one level per supplier) is bounded by memory.
    frames: list[tuple[int, int, list[int], int, int, Iterator[int]]] = []

    def visit(idx: int, size: int, level: list[int], need: int) -> None:
        nonlocal best_size, best_values, nodes
        nodes += 1
        if nodes > NODE_BUDGET:
            raise InstanceTooLarge(f"the cover search exceeded its budget of {NODE_BUDGET} nodes")
        # No node here is as heavy as the incumbent, nor do P's demands need
        # its gap: the root has size 0 and need w(P) <= target, and the pass
        # loop visits a child only when 0 <= need < best_size - size.
        if level[0] == full:
            best_size = size
            best_values = {variables[j]: path[j] for j in range(idx) if path[j]}
            return
        gap = best_size - size
        # demands with disjoint closed neighborhoods need disjoint mass; take
        # them neediest first, the lowest on a tie, until the bound prunes
        blocked = 0
        for d in range(max_w, 0, -1):
            free = level[d] & ~blocked
            while free:
                gap -= d
                if gap <= 0:
                    return
                i = (free & -free).bit_length() - 1
                blocked |= conflict[i]
                free &= ~conflict[i]
        cover = covers[idx]
        top = max_w
        while top and not level[top] & cover:
            top -= 1
        mine = cover & lasts[idx]
        forced = top
        while forced and not level[forced] & mine:
            forced -= 1
        served = cover & packed
        lack = max_w if served else 0
        while lack and not level[lack] & served:
            lack -= 1
        frames.append((idx, size, level, need, lack, iter(range(forced, top + 1))))

    # one pass per target: only a cover of size at most target beats the
    # bound target + 1, and the passes below it failed, so the first cover a
    # pass finds weighs target; when every target below the seed fails,
    # best_size ends at the seed's size with its values untouched
    for target in range(floor, best_size):
        best_size = target + 1
        visit(0, 0, start, floor)
        while frames and best_size > target:
            idx, size, level, need, lack, values = frames[-1]
            val = next(values, None)
            # P's demands have disjoint supplier sets, so below the child they
            # need rest more, what they still lack in all, and the child is
            # pruned when that fills its gap to the incumbent.  One more unit
            # of val lowers rest by at most 1 and the gap by exactly 1, so
            # every later value of the frame is pruned too: the frame ends.
            if val is None or (rest := need - min(val, lack)) >= best_size - size - val:
                frames.pop()
                continue
            path[idx] = val
            child = place(level, covers[idx], val) if val else level
            visit(idx + 1, size + val, child, rest)
        if best_size == target:
            break
    result = DominationFunction(best_values)
    if not is_w_dominating(g, result, demand_list):
        raise TheoremViolation("branch and bound returned a function that misses a demand")
    return best_size, result


def brute_gamma(g: WeightedGraph, cap: int = DEFAULT_CAP) -> tuple[int, DominationFunction]:
    """Exact gamma_w by branch and bound."""
    _check_cap(g.n, cap)
    return min_dominating(g, g.vertices)


def _mask_members(mask: int) -> frozenset[int]:
    return frozenset(v for v in range(mask.bit_length()) if mask >> v & 1)


def brute_rho(g: WeightedGraph, cap: int = DEFAULT_CAP) -> tuple[int, frozenset[int]]:
    """Exact rho_w: a heaviest set of vertices at pairwise distance 3 or more.

    Such a set is dispersed exactly when its closed neighborhoods are
    pairwise disjoint, so it is a heaviest packing of the items N[v] of
    weight w(v) (_max_packing).  A packing past PACKING_MASKS masks raises
    InstanceTooLarge.
    """
    _check_cap(g.n, cap)
    if not g.n:
        return 0, frozenset()
    items = [sum(1 << u for u in g.adjacency[v]) | 1 << v for v in g.vertices]
    packed = _max_packing(items, g.weights)
    if not packed:
        raise InstanceTooLarge(f"the packing search exceeded its cap of {PACKING_MASKS} masks")
    chosen = _mask_members(packed)
    return sum(g.weights[v] for v in chosen), chosen


def brute_gamma_i(
    g: WeightedGraph, cap: int = DEFAULT_CAP
) -> tuple[int, frozenset[int], DominationFunction]:
    """Exact gamma_i_w: the costliest-to-dominate independent set.

    Domination cost is monotone in the demand set, so only the maximal
    independent sets are priced, with min_dominating; of equal costs the
    lowest vertex mask wins.  They are the maximal cliques of the complement,
    which Bron and Kerbosch (1973) enumerate, here on an explicit stack of
    (chosen, candidates, excluded) masks.  A node branches on the candidates
    in N[p] alone, p its lowest candidate or excluded vertex, as each maximal
    extension holds p or a neighbor of p (Tomita, Tanaka and Takahashi 2006).
    An enumeration past NODE_BUDGET nodes raises InstanceTooLarge.
    """
    _check_cap(g.n, cap)
    adj = [sum(1 << u for u in g.adjacency[v]) for v in g.vertices]
    best: tuple[int, int, DominationFunction | None] = (-1, 0, None)  # cost, -mask, function
    stack = [(0, (1 << g.n) - 1, 0)]
    nodes = 0
    while stack:
        nodes += 1
        if nodes > NODE_BUDGET:
            raise InstanceTooLarge(f"the independent set enumeration exceeded its budget of {NODE_BUDGET} nodes")
        chosen, cand, excl = stack.pop()
        if not cand | excl:  # chosen is maximal
            cost, func = min_dominating(g, _mask_members(chosen))
            if (cost, -chosen) > best[:2]:
                best = cost, -chosen, func
            continue
        p = (cand | excl) & -(cand | excl)
        branch = cand & (adj[p.bit_length() - 1] | p)
        while branch:
            bit = branch & -branch
            branch ^= bit
            v = bit.bit_length() - 1
            stack.append((chosen | bit, cand & ~adj[v] & ~bit, excl & ~adj[v]))
            cand ^= bit  # v moves from the candidates to the excluded
            excl |= bit
    # every graph, the empty one too, has a maximal independent set
    cost, minus, func = best
    return cost, _mask_members(-minus), func


# ---------------------------------------------------------------------------
# exact rational linear programming


@dataclass(frozen=True)
class FractionalSolution:
    """Optimal values and vectors of the packing LP and its dual."""

    gamma_star: Fraction  # optimum of (D): min |f|, f[N(v)] >= w(v), f >= 0
    rho_star: Fraction  # optimum of (P): max sum w(v) g(v), g[N(v)] <= 1, g >= 0
    dual: Mapping[int, Fraction]  # f attaining gamma_star
    primal: Mapping[int, Fraction]  # g attaining rho_star


def _pivot(tableau: list[list[Fraction]], cost: list[Fraction], basis: list[int], row: int, col: int) -> None:
    pivot = tableau[row][col]
    tableau[row] = [x / pivot for x in tableau[row]]
    for i in range(len(tableau)):
        if i != row and tableau[i][col] != 0:
            coef = tableau[i][col]
            tableau[i] = [x - coef * y for x, y in zip(tableau[i], tableau[row])]
    if cost[col] != 0:
        coef = cost[col]
        cost[:] = [x - coef * y for x, y in zip(cost, tableau[row])]
    basis[row] = col


def _run_simplex(tableau: list[list[Fraction]], cost: list[Fraction], basis: list[int]) -> None:
    """Minimize with Bland's anti-cycling rule until no improving column."""
    while True:
        enter = None
        for j in range(len(cost) - 1):  # cost[-1] is the objective, not a column
            if cost[j] < 0:
                enter = j
                break
        if enter is None:
            return
        leave = None
        best_ratio: Fraction | None = None
        for i, row in enumerate(tableau):
            if row[enter] > 0:
                ratio = row[-1] / row[enter]
                if best_ratio is None or ratio < best_ratio or (
                    ratio == best_ratio and basis[i] < basis[leave]
                ):
                    best_ratio = ratio
                    leave = i
        if leave is None:
            raise LPInternalError("unbounded linear program")
        _pivot(tableau, cost, basis, leave, enter)


def _solve_lp(
    objective: Sequence[int], rows: Sequence[Sequence[int]]
) -> tuple[Fraction, list[Fraction], list[Fraction]]:
    """Exact single-phase simplex for max c x s.t. A x <= 1, x >= 0.

    It starts from the slack basis, which is feasible as the right-hand side
    is 1.  Returns the optimum, x, and y: the reduced costs of the slack
    columns in the final cost row, which solve the dual, min sum y s.t.
    A^T y >= c, y >= 0.
    """
    n = len(objective)
    m = len(rows)
    tableau = [
        [Fraction(x) for x in row] + [Fraction(1 if k == i else 0) for k in range(m)] + [Fraction(1)]
        for i, row in enumerate(rows)
    ]
    basis = list(range(n, n + m))
    # the slack columns cost nothing, so the basis needs no pricing out
    cost = [Fraction(-x) for x in objective] + [Fraction(0)] * (m + 1)
    _run_simplex(tableau, cost, basis)
    x = [Fraction(0)] * n
    for i, b in enumerate(basis):
        if b < n:
            x[b] = tableau[i][-1]
    return cost[-1], x, cost[n : n + m]


def solve_fractional(g: WeightedGraph, cap: int = DEFAULT_CAP) -> FractionalSolution:
    """Solve the packing LP and its covering dual exactly, in one simplex run.

    (P)  max sum_v w(v) g(v)  s.t.  g[N(v)] <= 1,  g >= 0
    (D)  min sum_v f(v)       s.t.  f[N(v)] >= w(v),  f >= 0

    g comes from the final tableau of (P) and f from its cost row.  Both are
    checked exactly: each is feasible for its own side, g attains the
    tableau's optimum and |f| equals it, which proves both optimal.  A
    failed check is an internal error, not a result.
    """
    _check_cap(g.n, cap)
    rows = neighborhood_matrix(g).rows
    rho_star, primal, dual = _solve_lp(g.weights, rows)
    for v, row in enumerate(rows):
        if primal[v] < 0 or sum(x for x, a in zip(primal, row) if a) > 1:
            raise LPInternalError("primal solution infeasible")
        if dual[v] < 0 or sum(y for y, a in zip(dual, row) if a) < g.weights[v]:
            raise LPInternalError("dual solution infeasible")
    if sum(w * x for w, x in zip(g.weights, primal)) != rho_star:
        raise LPInternalError("primal objective mismatch")
    gamma_star = sum(dual, Fraction(0))
    if gamma_star != rho_star:
        raise LPInternalError(f"duality gap: {gamma_star} != {rho_star}")
    return FractionalSolution(gamma_star, rho_star, dict(enumerate(dual)), dict(enumerate(primal)))


# ---------------------------------------------------------------------------
# neighborhood matrices


@dataclass(frozen=True)
class NeighborhoodMatrix:
    """0/1 closed-neighborhood matrix under a chosen vertex order."""

    rows: tuple[tuple[int, ...], ...]
    order: tuple[int, ...]


def neighborhood_matrix(g: WeightedGraph, order: Sequence[int] | None = None) -> NeighborhoodMatrix:
    """Entry (i, j) is 1 exactly when order[j] lies in N(order[i])."""
    chosen = tuple(order) if order is not None else tuple(g.vertices)
    if sorted(chosen) != list(g.vertices):
        raise BadPermutation("order must be a permutation of the vertex set")
    nbhds = [g.adjacency[v] | {v} for v in g.vertices]
    rows = tuple(
        tuple(1 if u in nbhds[v] else 0 for u in chosen) for v in chosen
    )
    return NeighborhoodMatrix(rows, chosen)


def det(matrix: NeighborhoodMatrix | Sequence[Sequence[int]]) -> int:
    """Exact integer determinant by fraction-free elimination."""
    raw = matrix.rows if isinstance(matrix, NeighborhoodMatrix) else matrix
    rows = [list(r) for r in raw]
    n = len(rows)
    for r in rows:
        if len(r) != n:
            raise ValueError("determinant needs a square matrix")
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if rows[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if rows[i][k] != 0), None)
            if swap is None:
                return 0
            rows[k], rows[swap] = rows[swap], rows[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                rows[i][j] = (rows[i][j] * rows[k][k] - rows[i][k] * rows[k][j]) // prev
            rows[i][k] = 0
        prev = rows[k][k]
    return sign * rows[n - 1][n - 1]


def has_consecutive_ones(matrix: NeighborhoodMatrix | Sequence[Sequence[int]]) -> bool:
    """Do the ones of every row form one contiguous run?"""
    raw = matrix.rows if isinstance(matrix, NeighborhoodMatrix) else matrix
    for row in raw:
        positions = [j for j, x in enumerate(row) if x]
        if positions and positions[-1] - positions[0] + 1 != len(positions):
            return False
    return True
