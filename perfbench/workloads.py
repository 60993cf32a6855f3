"""The benchmark's seeded workloads: each one is a fixed list of instances.

Instance ``i`` of a run with workload seed ``s`` is drawn from generator seed
``s * SEED_STRIDE + i``, so the same workload seed always gives the same
instance files, byte for byte.

Sizes are smaller than the ROADMAP's 10^4-10^5 ladders on purpose.  A run
reports quantiles over at least 100 instances (so that ``solve_s_p90`` has ten
beyond it) and should solve each of them more than once within
``run_seconds``.  The quadratic helpers of today's solvers make n = 300
intervals cost about 0.35 s each; n = 150 costs 0.05 s.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import domw

SEED_STRIDE = 10_000


def gen_sparse_interval(seed: int, n: int) -> domw.IntervalFamily:
    """n short intervals on 1..2n+6, so each one meets only a few others.

    ``gen_interval`` has no length bound, so this family is drawn here, on the
    same ``domw.LCG``.  Draw order, for each interval in id order:

        left   = rng.randint(1, 2 * n)    one draw(2n)
        length = rng.randint(0, 6)        one draw(7)
        weight = rng.randint(1, 5)        one draw(5)

    and the interval is [left, left + length] with that weight.  A future
    ``gen_interval`` length parameter can be checked against this stream.
    """
    rng = domw.LCG(seed)
    triples = []
    for _ in range(n):
        left = rng.randint(1, 2 * n)
        length = rng.randint(0, 6)
        weight = rng.randint(1, 5)
        triples.append((left, left + length, weight))
    return domw.IntervalFamily.of(triples)


def _sparse(seed: int) -> domw.InstanceFile:
    return domw.InstanceFile("interval", gen_sparse_interval(seed, 150))


def _dense(seed: int) -> domw.InstanceFile:
    return domw.InstanceFile("interval", domw.gen_interval(seed, 150, 600, 5))


def _tree(seed: int) -> domw.InstanceFile:
    host, f_edges = domw.gen_tree(seed, 250, 5)
    return domw.InstanceFile("tree-edges", domw.TreeEdgesInstance(host, f_edges))


def _split(seed: int) -> domw.InstanceFile:
    return domw.InstanceFile("split", domw.gen_split(seed, 9, 40, 30, 5))


@dataclass(frozen=True)
class Workload:
    name: str
    count: int  # instances per run; one pass solves each once
    make: Callable[[int], domw.InstanceFile]

    def instance_text(self, seed: int, i: int) -> str:
        """Instance file ``i`` of a run with this workload seed."""
        return domw.write_instance(self.make(seed * SEED_STRIDE + i))


# A pass takes about 5 s on a 2-core x86 container.  tree-edges (12 s) and
# split-search (16 s) hold more instances because their solve times vary more
# from instance to instance (is_dispersed grows with the dispersed set, and
# the cover search has a heavy tail), so fewer would make runs on different
# seeds disagree.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("interval-sparse", 100, _sparse),
        Workload("interval-dense", 100, _dense),
        Workload("tree-edges", 400, _tree),
        Workload("split-search", 1800, _split),
    )
}
