"""Traced re-composition of ``domw solve`` from the solvers' public phases.

Each instance is solved by calling the same public functions that
``solve_interval``, ``solve_tree`` and ``solve_split`` call, in the same order,
with one span around every call into a layer of ``domw``.  The output text is
the one ``domw solve`` prints, which the run checks.  Spans are recorded here,
in the benchmark, not inside the package.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Iterator

from domw import (
    Certificate,
    DominationFunction,
    TheoremViolation,
    backward_greedy,
    bottom_up_f,
    edge_line_graph,
    extract_dispersed,
    extract_dispersed_tree,
    forward_greedy,
    intersection_graph,
    is_dispersed,
    is_w_dominating,
    parse_instance,
    reduce_to_full_tree,
    root_adjust,
    solve_split,
    write_certificate,
    write_split_result,
)

ROOT = "instance"


class Tracer:
    """In-memory spans of one instance: [name, parent index, start, end]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append([name, parent, time.perf_counter(), None])
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index][3] = time.perf_counter()

    def self_times(self) -> dict[str, float]:
        """Seconds per span name: each span's duration minus its children's."""
        totals: dict[str, float] = {}
        child_time = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        for (name, _, start, end), inner in zip(self.spans, child_time):
            totals[name] = totals.get(name, 0.0) + (end - start - inner)
        return totals

    def total(self) -> float:
        """Duration of the root span."""
        _, _, start, end = self.spans[0]
        return end - start


def _verify(graph, cert: Certificate, tracer: Tracer) -> None:
    # verify_certificate, split into its two public predicates
    with tracer.span("graph_core.is_w_dominating"):
        dominating = is_w_dominating(graph, cert.dominating)
    with tracer.span("graph_core.is_dispersed"):
        dispersed = is_dispersed(graph, cert.dispersed)
    weight = sum(graph.weights[v] for v in cert.dispersed)
    if not (dominating and dispersed and cert.dominating.size == cert.value == weight):
        raise TheoremViolation("certificate failed re-verification")


def _interval(fam, tracer: Tracer, counts: dict[str, int]):
    with tracer.span("interval_solver.forward_greedy"):
        f, ftrace = forward_greedy(fam)
    with tracer.span("interval_solver.backward_greedy"):
        g, gtrace = backward_greedy(fam)
    if f.size != g.size:
        raise TheoremViolation("forward and backward greedy disagree on the value")
    with tracer.span("interval_solver.extract_dispersed"):
        dispersed, decomposition = extract_dispersed(fam, f, g, gtrace)
    cert = Certificate(f, dispersed, f.size)
    with tracer.span("interval_solver.intersection_graph"):
        graph = intersection_graph(fam)
    _verify(graph, cert, tracer)
    with tracer.span("instances_io.write_certificate"):
        text = write_certificate(cert)
    counts["interval_solver.greedy_steps"] = len(ftrace.steps) + len(gtrace.steps)
    counts["interval_solver.blocks"] = len(decomposition.blocks)
    return text, graph, len(dispersed)


def _tree(payload, tracer: Tracer, counts: dict[str, int]):
    host, subset = payload.host, payload.f_edges
    with tracer.span("tree_edge_solver.reduce_to_full_tree"):
        components = reduce_to_full_tree(host, subset)
    values: dict[int, int] = {}
    dispersed: set[int] = set()
    layers = 0
    for comp in components:
        with tracer.span("tree_edge_solver.bottom_up_f"):
            f = bottom_up_f(comp)
        with tracer.span("tree_edge_solver.root_adjust"):
            g, d, e0 = root_adjust(comp, f)
        with tracer.span("tree_edge_solver.extract_dispersed_tree"):
            chosen, deletion = extract_dispersed_tree(comp, g, d, e0)
        values.update(g.values)
        dispersed |= chosen
        layers += len(deletion.chosen)
    total = DominationFunction(values)
    cert = Certificate(total, frozenset(dispersed), total.size)
    with tracer.span("tree_edge_solver.edge_line_graph"):
        graph = edge_line_graph(host, subset)
    _verify(graph, cert, tracer)
    with tracer.span("instances_io.write_certificate"):
        text = write_certificate(cert)
    counts["tree_edge_solver.components"] = len(components)
    counts["tree_edge_solver.deletion_layers"] = layers
    return text, graph, len(dispersed)


def _split(inst, tracer: Tracer, counts: dict[str, int]):
    with tracer.span("split_solver.solve_split"):
        result = solve_split(inst)
    with tracer.span("instances_io.write_certificate"):
        text = write_split_result(result)
    graph = inst.graph
    # clique vertices with an independent neighbour: the cover search's depth
    counts["split_solver.cover_vars"] = len(
        {a for b in inst.independent for a in graph.adjacency[b] & inst.clique}
    )
    return text, graph, len(result.witness_independent)


_SOLVERS = {"interval": _interval, "tree-edges": _tree, "split": _split}


def traced_solve(path: str) -> tuple[str, dict[str, float], dict[str, int], float]:
    """Solve one instance file as ``domw solve`` does, with a span per layer call.

    Returns the printed output, self seconds per layer, counters, and the
    traced total in seconds.
    """
    tracer = Tracer()
    counts: dict[str, int] = {}
    with tracer.span(ROOT):
        with open(path, "r", encoding="ascii") as handle:
            text = handle.read()
        with tracer.span("instances_io.parse_instance"):
            inst = parse_instance(text)
        output, graph, witness = _SOLVERS[inst.kind](inst.payload, tracer, counts)
    counts["instances_io.bytes_in"] = len(text.encode("ascii"))
    counts["graph_core.edges"] = sum(len(nbrs) for nbrs in graph.adjacency) // 2
    counts["graph_core.dispersed_size"] = witness
    return output, tracer.self_times(), counts, tracer.total()
