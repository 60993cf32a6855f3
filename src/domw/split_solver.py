"""Exact weighted domination on split graphs, where it equals the
independent-domination value.

On a split graph (clique A, independent set B) a B vertex with no neighbor
pays its own weight.  For the rest, the minimum w-dominating function is the
exact minimum cover of B on A from `oracles.min_dominating`, topped up on the
heaviest clique vertex when that costs more.  An independent set certifies
the value: B, or the isolated B vertices and the heaviest clique vertex.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NotAClique, NotAPartition, NotIndependent
from .graph_core import DominationFunction, WeightedGraph
from .oracles import min_dominating


@dataclass(frozen=True)
class SplitInstance:
    """A graph with a vertex partition into a clique and an independent set.

    Build one from a graph through validate_split, which checks the
    partition is genuine.  The file readers and `gen_split` build one from
    its sides and crossing edges, which hold it by construction.
    """

    graph: WeightedGraph
    clique: frozenset[int]
    independent: frozenset[int]


@dataclass(frozen=True)
class SplitResult:
    value: int  # gamma_w = gamma_i_w
    dominating: DominationFunction
    witness_independent: frozenset[int]  # dominating it alone costs the value


def validate_split(graph: WeightedGraph, clique: frozenset[int], independent: frozenset[int]) -> SplitInstance:
    """Check the claimed split partition and wrap it up."""
    if clique & independent or (clique | independent) != set(graph.vertices):
        raise NotAPartition("clique and independent set must partition the vertices")
    a_sorted = sorted(clique)
    for i, u in enumerate(a_sorted):
        for v in a_sorted[i + 1:]:
            if v not in graph.adjacency[u]:
                raise NotAClique(f"clique vertices {u} and {v} are not adjacent")
    for u in sorted(independent):
        for v in graph.adjacency[u]:
            if v in independent and u < v:
                raise NotIndependent(f"independent vertices {u} and {v} are adjacent")
    return SplitInstance(graph, frozenset(clique), frozenset(independent))


def solve_split(inst: SplitInstance) -> SplitResult:
    """gamma_w of a split graph with an independent witness of the same cost.

    B vertices without a neighbor pay their own weight and join any witness:
    gamma_w = w(isolated) + gamma_w(G - isolated).  On the rest the value is
    the larger of the clique cover of B and the heaviest clique vertex.
    """
    w = inst.graph.weights
    isolated = frozenset(b for b in inst.independent if not inst.graph.adjacency[b])
    cover = min_dominating(inst.graph, inst.independent - isolated, inst.clique)[1]
    values = dict(cover.values)
    values.update((b, w[b]) for b in isolated)
    heaviest = max((w[a] for a in inst.clique), default=0)
    witness = inst.independent
    if cover.size < heaviest:
        a_star = min(a for a in inst.clique if w[a] == heaviest)
        values[a_star] = values.get(a_star, 0) + heaviest - cover.size
        witness = isolated | {a_star}
    f = DominationFunction(values)
    return SplitResult(f.size, f, witness)
