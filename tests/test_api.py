"""The package's public names: what the `domw` commands run, and what the
benchmark under perfbench/ reads of the library."""

import domw

PUBLIC = [
    "BadPermutation", "Certificate", "CertificateCheck", "DisconnectedSubtree",
    "DominationFunction", "EmptyEdgeSet", "EmptySubtree", "FractionalSolution", "HostTree",
    "InstanceFile", "InstanceSemanticError", "InstanceSyntaxError", "InstanceTooLarge",
    "Interval", "IntervalFamily", "LCG", "LPInternalError", "NeighborhoodMatrix", "NotAClique",
    "NotAPartition", "NotIndependent", "ParameterOutOfRange", "RootedEdgeTree", "SplitInstance",
    "SplitResult", "SubtreeInstance", "TheoremViolation", "TreeEdgesInstance", "UnknownVertex",
    "WeightedGraph", "backward_greedy", "bottom_up_f", "brute_gamma", "brute_gamma_i",
    "brute_rho", "build_intersection_graph", "closed_neighborhood", "det", "edge_line_graph",
    "example_forked_star", "example_nontu_intervals", "example_nontu_star",
    "example_split_triangle", "extract_dispersed", "extract_dispersed_tree", "forward_greedy",
    "gen_interval", "gen_split", "gen_subtrees", "gen_tree", "has_consecutive_ones",
    "instance_graph", "intersection_graph", "is_dispersed", "is_w_dominating",
    "neighborhood_matrix", "order_by_right_endpoint", "parse_certificate", "parse_instance",
    "reduce_to_full_tree", "root_adjust", "solve_fractional", "solve_interval", "solve_split",
    "solve_tree", "validate_split", "verify_certificate", "write_certificate", "write_instance",
    "write_split_result",
]


def test_the_public_names_are_pinned():
    """Sorted, with no submodule among them: a name joins or leaves the API
    only with this list."""
    assert domw.__all__ == PUBLIC
