"""Exact weighted domination, dispersion, and independent domination.

Structured solvers with matched certificates for interval families, edge
subsets of a tree, and split graphs, plus independent brute-force and
exact-rational LP oracles.
"""

from types import ModuleType as _ModuleType

from .errors import (
    BadPermutation,
    DisconnectedSubtree,
    EmptyEdgeSet,
    EmptySubtree,
    InstanceSemanticError,
    InstanceSyntaxError,
    InstanceTooLarge,
    LPInternalError,
    NotAClique,
    NotAPartition,
    NotIndependent,
    ParameterOutOfRange,
    TheoremViolation,
    UnknownVertex,
)
from .graph_core import (
    Certificate,
    CertificateCheck,
    DominationFunction,
    HostTree,
    WeightedGraph,
    build_intersection_graph,
    closed_neighborhood,
    is_dispersed,
    is_w_dominating,
    verify_certificate,
)
from .interval_solver import (
    Interval,
    IntervalFamily,
    backward_greedy,
    extract_dispersed,
    forward_greedy,
    intersection_graph,
    order_by_right_endpoint,
    solve_interval,
)
from .tree_edge_solver import (
    RootedEdgeTree,
    bottom_up_f,
    edge_line_graph,
    extract_dispersed_tree,
    reduce_to_full_tree,
    root_adjust,
    solve_tree,
)
from .split_solver import (
    SplitInstance,
    SplitResult,
    solve_split,
    validate_split,
)
from .oracles import (
    FractionalSolution,
    NeighborhoodMatrix,
    brute_gamma,
    brute_gamma_i,
    brute_rho,
    det,
    has_consecutive_ones,
    neighborhood_matrix,
    solve_fractional,
)
from .instances_io import (
    LCG,
    InstanceFile,
    SubtreeInstance,
    TreeEdgesInstance,
    example_forked_star,
    example_nontu_intervals,
    example_nontu_star,
    example_split_triangle,
    gen_interval,
    gen_split,
    gen_subtrees,
    gen_tree,
    instance_graph,
    parse_certificate,
    parse_instance,
    write_certificate,
    write_instance,
    write_split_result,
)

# the submodules are attributes of the package once imported, but no part of its API
__all__ = [name for name in dir() if not name.startswith("_") and not isinstance(globals()[name], _ModuleType)]
