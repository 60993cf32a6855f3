"""Correctness checks on the text ``domw solve`` printed, run outside timing.

Interval and tree-edge output is a certificate: a w-dominating function and a
dispersed set of equal value, which by weak duality proves both optimal.
Split output pairs a dominating function with an independent witness; its
value is also compared with values pinned from an earlier commit.
"""

from __future__ import annotations

from domw import (
    instance_graph,
    is_w_dominating,
    parse_certificate,
    parse_instance,
    verify_certificate,
)

SPLIT_HEADER = "domw-split 1\n"


def output_error(instance_text: str, output: str, pinned_value: int | None) -> str | None:
    """None when the output is a correct answer for the instance, else why not."""
    inst = parse_instance(instance_text)
    graph = instance_graph(inst)
    if inst.kind in ("interval", "tree-edges"):
        check = verify_certificate(graph, parse_certificate(output))
        return None if check else f"certificate rejected: {check.reason}"
    if not output.startswith(SPLIT_HEADER):
        return "split output lacks its header"
    # the split report has the certificate's line layout under its own header
    result = parse_certificate("domw-cert 1\n" + output[len(SPLIT_HEADER):])
    witness = result.dispersed
    if not all(0 <= v < graph.n for v in result.dominating.support | witness):
        return "split output names an unknown vertex"
    if not is_w_dominating(graph, result.dominating):
        return "split function does not dominate"
    if any(graph.adjacency[v] & witness for v in witness):
        return "split witness is not independent"
    if result.value != result.dominating.size:
        return "split value differs from the function size"
    if pinned_value is not None and result.value != pinned_value:
        return f"split value {result.value} differs from pinned {pinned_value}"
    return None
