"""Tests for the instance file formats, generators, and the LCG."""

import hashlib
import random
import tracemalloc
from itertools import product

import pytest
from hypothesis import given, settings

from domw import (
    Certificate,
    DominationFunction,
    HostTree,
    InstanceFile,
    IntervalFamily,
    LCG,
    SplitInstance,
    SplitResult,
    SubtreeInstance,
    TreeEdgesInstance,
    WeightedGraph,
    gen_interval,
    gen_split,
    gen_subtrees,
    gen_tree,
    instance_graph,
    parse_certificate,
    parse_instance,
    solve_split,
    write_certificate,
    write_instance,
    validate_split,
    write_split_result,
)
from domw import graph_core
from domw.errors import (
    DisconnectedSubtree,
    EmptySubtree,
    InstanceSemanticError,
    InstanceSyntaxError,
    ParameterOutOfRange,
    UnknownVertex,
)
from domw.instances_io import (
    CERT_HEADER,
    KINDS,
    _INTERVAL_BODY,
    _TREE_BODY,
    _match_lines,
    _parse_lines,
    _parse_result_lines,
    _read_result,
    parse_result,
    example_forked_star,
    example_nontu_intervals,
    example_nontu_star,
    example_split_triangle,
)

from .strategies import host_trees


def test_lcg_golden_values():
    """Frozen outputs of the 64-bit linear congruential generator; any
    change here silently invalidates every seeded instance in the suite."""
    r = LCG(0)
    assert [r.draw(100) for _ in range(6)] == [7, 24, 37, 36, 25, 91]
    r = LCG(7)
    assert [r.randint(1, 12) for _ in range(6)] == [3, 12, 10, 6, 2, 12]
    r = LCG(3)
    assert [r.chance(60) for _ in range(6)] == [True, False, True, True, True, True]


def test_lcg_bounds_and_degenerate_chances():
    r = LCG(42)
    assert all(0 <= r.draw(7) < 7 for _ in range(200))
    assert all(3 <= r.randint(3, 5) <= 5 for _ in range(200))
    assert not any(r.chance(0) for _ in range(50))
    assert all(r.chance(100) for _ in range(50))


def test_generators_are_deterministic():
    assert gen_interval(11, 5, 12, 5) == gen_interval(11, 5, 12, 5)
    assert gen_tree(11, 6, 5) == gen_tree(11, 6, 5)
    assert gen_split(11, 3, 4, 60, 5) == gen_split(11, 3, 4, 60, 5)
    assert gen_subtrees(11, 6, 5, 4) == gen_subtrees(11, 6, 5, 4)
    assert gen_interval(11, 5, 12, 5) != gen_interval(12, 5, 12, 5)


_GENERATED = {
    "interval": lambda s: gen_interval(s, 1 + s % 40, 10 + s % 90, 1 + s % 5),
    "tree-edges": lambda s: TreeEdgesInstance(*gen_tree(s, 1 + s % 40, 1 + s % 5)),
    "split": lambda s: gen_split(s, 1 + s % 12, 1 + s % 30, 10 * (s % 11), 1 + s % 6),
    "subtree-intersection": lambda s: SubtreeInstance(*gen_subtrees(s, 1 + s % 20, 1 + s % 9, 1 + s % 4)),
}


@pytest.mark.parametrize(
    "kind, digest",
    [
        ("interval", "aec08c51bc260d6f95a4f4622ca884ebb6e40544ba35862412a15a88c71b7e16"),
        ("tree-edges", "30deb01a1cffc1cdc31a581abeb7891b4b4ac0f0574340b70de4dfe1f60bad74"),
        ("split", "371c463f34893dc1e9c9fe58d008abc9111af152a5630b46d2a168c5395e0a51"),
        ("subtree-intersection", "ccc8ef9d5affb3f759b4b4e76394acda923aff4e58936186a1da00a4c8c0fa45"),
    ],
)
def test_generated_files_match_their_pinned_digest(kind, digest):
    """Each generator's written files over seeds 0..49, pinned byte for byte;
    the shapes run from one vertex up, the split ones through every tenth
    edge percentage from 0 to 100."""
    written = hashlib.sha256()
    for seed in range(50):
        written.update(write_instance(InstanceFile(kind, _GENERATED[kind](seed))).encode("ascii"))
    assert written.hexdigest() == digest


def test_generated_hosts_equal_the_searched_host():
    """The hosts that `gen_tree` and `gen_subtrees` build from their drawn
    parents, with no search, equal the constructor's host on 500 seeds
    each, parent table included, from one vertex up."""
    for seed in range(500):
        for host in (gen_tree(seed, 1 + seed % 40, 5)[0], gen_subtrees(seed, 1 + seed % 40, 2, 4)[0]):
            searched = HostTree(host.n, host.edges)
            assert host == searched and host._parent == searched._parent


def test_generator_parameter_validation():
    with pytest.raises(ParameterOutOfRange):
        gen_interval(0, 0, 12, 5)
    with pytest.raises(ParameterOutOfRange):
        gen_split(0, 3, 4, 60, 0)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: LCG(-1), "seed must be nonnegative"),
        (lambda: LCG(1).draw(0), "draw needs a positive modulus"),
        (lambda: LCG(1).randint(2, 1), "empty range 2..1"),
        (lambda: gen_split(0, 3, 4, -1, 5), "edge_prob_percent must lie in 0..100"),
        (lambda: gen_split(0, 3, 4, 101, 5), "edge_prob_percent must lie in 0..100"),
    ],
    ids=["seed", "draw", "randint", "percent-low", "percent-high"],
)
def test_generator_rejections_name_the_parameter(call, message):
    with pytest.raises(ParameterOutOfRange) as err:
        call()
    assert type(err.value) is ParameterOutOfRange
    assert str(err.value) == message


def test_instance_file_rejects_an_unknown_kind():
    with pytest.raises(InstanceSemanticError) as err:
        InstanceFile("matrix", None)
    assert type(err.value) is InstanceSemanticError
    assert str(err.value) == "unknown kind 'matrix'"


def test_gen_split_leaves_no_isolated_b_vertex():
    for seed in range(40):
        inst = gen_split(seed, 3, 4, 0, 5)
        for b in inst.independent:
            assert inst.graph.adjacency[b] & inst.clique


def test_example_instances_are_consistent():
    host, subtrees, weights = example_forked_star()
    assert host.n == 13 and len(subtrees) == len(weights) == 15
    fam = example_nontu_intervals()
    assert [(iv.left, iv.right, iv.weight) for iv in fam.intervals] == [
        (1, 1, 1),
        (2, 2, 1),
        (3, 3, 1),
        (1, 3, 1),
    ]
    host, subset = example_nontu_star()
    assert host.n == 7 and len(subset) == 6
    inst = example_split_triangle()
    assert sorted(inst.clique) == [0, 1, 2]


def test_interval_file_round_trip_is_byte_exact():
    inst = InstanceFile("interval", gen_interval(5, 4, 12, 5))
    text = write_instance(inst)
    assert text == (
        "domw 1\n"
        "kind interval\n"
        "4\n"
        "0 5 10 5\n"
        "1 2 10 2\n"
        "2 12 12 1\n"
        "3 1 4 5\n"
    )
    again = parse_instance(text)
    assert again == inst
    assert write_instance(again) == text


def test_tree_edges_file_round_trip():
    host, subset = gen_tree(9, 6, 5)
    inst = InstanceFile("tree-edges", TreeEdgesInstance(host, subset))
    text = write_instance(inst)
    assert parse_instance(text) == inst
    assert write_instance(parse_instance(text)) == text


def test_split_file_round_trip():
    inst = InstanceFile("split", gen_split(3, 3, 4, 60, 5))
    text = write_instance(inst)
    assert parse_instance(text) == inst
    assert write_instance(parse_instance(text)) == text


def test_subtree_file_round_trip():
    host, subtrees, weights = gen_subtrees(2, 6, 5, 4)
    inst = InstanceFile("subtree-intersection", SubtreeInstance(host, subtrees, weights))
    text = write_instance(inst)
    assert parse_instance(text) == inst
    assert write_instance(parse_instance(text)) == text
    with pytest.raises(ValueError, match="^one weight per subtree is required$"):
        SubtreeInstance(host, subtrees, weights[:-1])


def test_parser_skips_blank_lines_and_comments():
    text = (
        "# generated by hand\n"
        "domw 1\n"
        "\n"
        "kind interval\n"
        "1\n"
        "# the only interval\n"
        "0 1 2 3\n"
    )
    inst = parse_instance(text)
    assert inst.kind == "interval"
    assert instance_graph(inst).weights == (3,)


def test_parser_reports_line_numbers():
    with pytest.raises(InstanceSyntaxError) as err:
        parse_instance("")
    assert err.value.line == 1
    with pytest.raises(InstanceSyntaxError) as err:
        parse_instance("domw 1\nkind foo\n")
    assert err.value.line == 2
    with pytest.raises(InstanceSyntaxError) as err:
        parse_instance("domw 1\nkind interval\n1\n0 1 2\n")
    assert err.value.line == 4
    with pytest.raises(InstanceSyntaxError) as err:
        parse_instance("domw 1\nkind interval\n1\n0 1 2 1\nextra\n")
    assert err.value.line == 5


def test_parser_semantic_failures():
    with pytest.raises(InstanceSemanticError):
        parse_instance("domw 1\nkind interval\n1\n5 1 2 1\n")
    with pytest.raises(
        InstanceSemanticError, match=r"^line 5: interval 1: interval \[9, 2\] is reversed$"
    ):
        parse_instance("domw 1\nkind interval\n2\n0 1 2 1\n1 9 2 1\n")
    with pytest.raises(
        InstanceSemanticError, match="^line 4: interval 0: interval weight must be positive$"
    ):
        parse_instance("domw 1\nkind interval\n1\n0 1 2 0\n")
    # cross edge joining two A vertices
    with pytest.raises(InstanceSemanticError):
        parse_instance("domw 1\nkind split\n3\n0 A 1\n1 A 1\n2 B 1\n1\n0 1\n")
    with pytest.raises(InstanceSemanticError):
        parse_instance("domw 1\nkind split\n3\n0 A 1\n1 A 1\n2 B 1\n2\n0 2\n0 2\n")


TREE = "domw 1\nkind tree-edges\n2\n"
SPLIT = "domw 1\nkind split\n2\n"
SUBTREE = "domw 1\nkind subtree-intersection\n2\n0 1 1 0\n1\n"
EXPLICIT = "domw 1\nkind explicit\n"
CERT = "domw-cert 1\n"


@pytest.mark.parametrize(
    "text, error, line",
    [
        # tree-edges
        (TREE + "0 1\n", InstanceSyntaxError, 4),
        (TREE + "0 x 0\n", InstanceSyntaxError, 4),
        (TREE + "0 1 2\n", InstanceSyntaxError, 4),
        (TREE + "0 1 1\n", InstanceSyntaxError, 4),
        (TREE + "0 1 0 3\n", InstanceSyntaxError, 4),
        # split
        (SPLIT + "0 A\n", InstanceSyntaxError, 4),
        (SPLIT + "0 C 1\n", InstanceSyntaxError, 4),
        (SPLIT + "0 A x\n", InstanceSyntaxError, 4),
        (SPLIT + "1 A 1\n", InstanceSemanticError, None),
        (SPLIT + "0 A 1\n1 B 1\n1\n0 5\n", InstanceSemanticError, None),
        # subtree-intersection
        (SUBTREE + "3\n", InstanceSyntaxError, 6),
        (SUBTREE + "1 2 0\n", InstanceSyntaxError, 6),
        (SUBTREE + "1 2 0 0\n", InstanceSemanticError, None),
        (SUBTREE + "0 1 0\n", InstanceSemanticError, None),
        ("domw 1\nkind subtree-intersection\n2\n0 1 0 0\n1\n1 1 0\n", InstanceSyntaxError, 4),
        # explicit
        (EXPLICIT + "1\n3 1\n0\n", InstanceSemanticError, None),
        (EXPLICIT + "2\n0 1\n1 1\n2\n0 1\n1 0\n", InstanceSemanticError, None),
        (EXPLICIT + "1\n0 1\n1\n0 0\n", InstanceSemanticError, None),
        # the kind line and the counts
        ("domw 1\nkinds interval\n", InstanceSyntaxError, 2),
        ("domw 1\nkind interval\n0\n", InstanceSemanticError, None),
        # result blocks
        (CERT + "f 0\nI\nvalue 0\n", InstanceSyntaxError, 2),
        (CERT + "f 0 x\nI\nvalue 0\n", InstanceSyntaxError, 2),
        (CERT + "I x\nvalue 0\n", InstanceSyntaxError, 2),
        (CERT + "I\nvalue x\n", InstanceSyntaxError, 3),
        (CERT + "f 0 1\nf 0 2\nI\nvalue 3\n", InstanceSemanticError, None),
        (CERT + "f 0 1\nvalue 1\n", InstanceSyntaxError, 3),
        (CERT + "I\nworth 0\n", InstanceSyntaxError, 3),
    ],
)
def test_parsers_reject_malformed_input(text, error, line):
    parse = parse_certificate if text.startswith(CERT) else parse_instance
    with pytest.raises(error) as err:
        parse(text)
    if line is not None:
        assert err.value.line == line


def test_explicit_file_round_trip_is_byte_exact():
    inst = InstanceFile("explicit", example_split_triangle().graph)
    text = write_instance(inst)
    assert text == (
        "domw 1\n"
        "kind explicit\n"
        "6\n"
        "0 5\n1 5\n2 5\n3 4\n4 4\n5 4\n"
        "9\n"
        "0 1\n0 2\n0 3\n0 5\n1 2\n1 3\n1 4\n2 4\n2 5\n"
    )
    assert parse_instance(text) == inst
    assert write_instance(parse_instance(text)) == text


def test_tree_edges_instance_normalizes_and_validates():
    host = HostTree(3, ((0, 1), (1, 2)))
    inst = TreeEdgesInstance(host, ((2, 1, 4), (1, 0, 7)))
    # reordered to host edge order with host orientation
    assert inst.f_edges == ((0, 1, 7), (1, 2, 4))
    with pytest.raises(InstanceSemanticError):
        TreeEdgesInstance(host, ((0, 1, 1), (1, 0, 1)))
    with pytest.raises(InstanceSemanticError):
        TreeEdgesInstance(host, ((0, 2, 1),))
    with pytest.raises(InstanceSemanticError):
        TreeEdgesInstance(host, ((0, 1, 0),))
    # a weight that is no int would be written as a file that parse_instance refuses
    with pytest.raises(InstanceSemanticError, match=r"^edge \(0, 1\) must have an integer weight$"):
        TreeEdgesInstance(host, ((0, 1, 2.5),))


def test_instance_graph_dispatch():
    assert instance_graph(InstanceFile("interval", gen_interval(1, 4, 12, 5))).n == 4
    host, subset = gen_tree(1, 5, 5)
    assert instance_graph(InstanceFile("tree-edges", TreeEdgesInstance(host, subset))).n == len(subset)
    split = gen_split(1, 2, 3, 60, 5)
    assert instance_graph(InstanceFile("split", split)).n == 5
    host, subs, ws = gen_subtrees(1, 5, 4, 3)
    assert instance_graph(InstanceFile("subtree-intersection", SubtreeInstance(host, subs, ws))).n == 4


def test_certificate_round_trip():
    cert = Certificate(DominationFunction({2: 3, 0: 1}), frozenset({0, 4}), 4)
    text = write_certificate(cert)
    assert text == "domw-cert 1\nf 0 1\nf 2 3\nI 0 4\nvalue 4\n"
    assert parse_certificate(text) == cert


def test_empty_certificate_round_trip():
    cert = Certificate(DominationFunction(), frozenset(), 0)
    text = write_certificate(cert)
    assert parse_certificate(text) == cert


def _split_pair(one):
    """An A vertex of weight one joined to a B vertex of weight 2."""
    graph = WeightedGraph((one, 2), (frozenset({1}), frozenset({0})))
    return InstanceFile("split", SplitInstance(graph, frozenset({0}), frozenset({1})))


@pytest.mark.parametrize(
    "make, write, parse, message",
    [
        (lambda one: InstanceFile("interval", IntervalFamily.of([(one, 2, 1)])), write_instance, parse_instance,
         "interval data must be integers"),
        (lambda one: InstanceFile("interval", IntervalFamily.of([(0, 2, one)])), write_instance, parse_instance,
         "interval data must be integers"),
        (lambda one: InstanceFile("tree-edges", TreeEdgesInstance(HostTree(2, ((0, 1),)), ((0, 1, one),))),
         write_instance, parse_instance, "edge (0, 1) must have an integer weight"),
        (lambda one: InstanceFile("explicit", WeightedGraph.from_edges((one, 2), [(0, 1)])), write_instance,
         parse_instance, "weight of vertex 0 must be a positive integer"),
        (_split_pair, write_instance, parse_instance, "weight of vertex 0 must be a positive integer"),
        (lambda one: Certificate(DominationFunction({0: one}), frozenset({0}), 1), write_certificate,
         parse_certificate, "value at vertex 0 must be a nonnegative integer"),
    ],
    ids=["interval-end", "interval-weight", "tree-edge-weight", "explicit-weight", "split-weight", "f-value"],
)
def test_a_bool_is_refused_before_it_breaks_the_round_trip(make, write, parse, message):
    """parse(write(x)) == x with the int 1; a writer would print `True` in
    its place, which the readers refuse, so the constructor refuses it."""
    x = make(1)
    assert parse(write(x)) == x
    with pytest.raises(ValueError) as err:
        make(True)
    assert str(err.value) == message


def test_certificate_parse_failures():
    with pytest.raises(InstanceSyntaxError):
        parse_certificate("nope\n")
    with pytest.raises(InstanceSyntaxError):
        parse_certificate("domw-cert 1\nf 0 1\nI 0\n")
    with pytest.raises(InstanceSemanticError, match="vertex 2 listed twice on the I line"):
        parse_certificate("domw-cert 1\nf 2 1\nI 2 2\nvalue 1\n")


def test_split_result_block():
    res = solve_split(example_split_triangle())
    text = write_split_result(res)
    assert text == (
        "domw-split 1\n"
        "f 0 2\n"
        "f 1 2\n"
        "f 2 2\n"
        "I 3 4 5\n"
        "value 6\n"
    )


@settings(max_examples=80, deadline=None)
@given(host_trees())
def test_random_hosts_round_trip_through_the_tree_format(host: HostTree):
    subset = tuple((u, v, 1 + (u + v) % 5) for (u, v) in host.edges)
    inst = InstanceFile("tree-edges", TreeEdgesInstance(host, subset))
    assert parse_instance(write_instance(inst)) == inst


TREE_KIND = "domw 1\nkind tree-edges\n"
INTERVAL_KIND = "domw 1\nkind interval\n"
SPLIT_AB = "domw 1\nkind split\n2\n0 A 1\n1 B 1\n"
Syntax, Semantic = InstanceSyntaxError, InstanceSemanticError


@pytest.mark.parametrize(
    "text, error, message, line",
    [
        # a member edge of weight 0 is named at its line, ahead of a later host fault
        (TREE_KIND + "2\n0 1 1 0\n", Semantic, "edge (0, 1) must have positive weight", None),
        (TREE_KIND + "3\n0 1 1 0\n0 1 0\n", Semantic, "edge (0, 1) must have positive weight", None),
        # host faults, from the host tree check
        (TREE_KIND + "3\n0 1 0\n1 0 1 2\n", Semantic, "duplicate edge (1, 0)", None),
        (TREE_KIND + "4\n0 1 1 1\n1 2 0\n2 0 1 1\n", Semantic, "host tree is not connected", None),
        (TREE_KIND + "3\n0 1 0\n1 3 1 1\n", Semantic, "edge (1, 3) out of range", None),
        (TREE_KIND + "3\n0 1 0\n1 1 0\n", Semantic, "self-loop at vertex 1", None),
        # the first faulty edge wins: a repeat ahead of an out-of-range edge
        (TREE_KIND + "4\n0 1 0\n0 1 0\n2 5 0\n", Semantic, "duplicate edge (0, 1)", None),
        # line faults; comments and blank lines keep their numbers
        (TREE_KIND + "2\n0 x\n", Syntax, "line 4: edge: expected `u v 0` or `u v 1 w`", 4),
        (TREE_KIND + "3\n0 1 0\n# a comment\n\n1 x 1 2\n", Syntax, "line 7: edge: fields must be integers", 7),
        # cut short inside a block: reported at the line after the last one,
        # and after any fault in the rows that are there
        (TREE_KIND + "4\n0 1 0\n\n# cut short\n1 2 1 1\n", Syntax, "line 8: missing edge line", 8),
        (TREE_KIND + "4\n0 1 0\n1 x 0\n", Syntax, "line 5: edge: fields must be integers", 5),
        ("domw 1\nkind interval\n3\n0 1 2 1\n1 2 3 1\n", Syntax, "line 6: missing interval line", 6),
        ("domw 1\nkind split\n3\n0 A 1\n1 B 1\n", Syntax, "line 6: missing vertex line", 6),
        (SPLIT_AB + "2\n0 1\n", Syntax, "line 8: missing edge line", 8),
        ("domw 1\nkind subtree-intersection\n3\n0 1 1 0\n", Syntax, "line 5: missing host edge line", 5),
        # a repeated edge, given in the other orientation
        (SPLIT_AB + "2\n0 1\n1 0\n", Semantic, "duplicate edge 1 0", None),
        ("domw 1\nkind explicit\n2\n0 1\n1 1\n2\n0 1\n1 0\n", Semantic, "duplicate edge 1 0", None),
        # an explicit file is read like a split file: its first faulty line
        # is named, with that line's first fault
        (EXPLICIT + "2\n0 1\n1 0\n1\n0 5\n", Semantic, "weight of vertex 1 must be a positive integer", None),
        (EXPLICIT + "2\n0 1\n1 1\n2\n0 5\n0 x\n", Semantic, "edge (0, 5) out of range", None),
        (EXPLICIT + "2\n0 1\n1 1\n2\n1 1\n1 1\n", Semantic, "self-loop at vertex 1", None),
        (EXPLICIT + "3\n0 1\n1 1\n2 1\n3\n0 1\n1 0\n0 7\n", Semantic, "duplicate edge 1 0", None),
        # a subtree weight below 1 is named by its index, as the constructor
        # names it, after the subtrees themselves are checked
        (SUBTREE + "0 1 0\n", Semantic, "weight of vertex 0 must be a positive integer", None),
        ("domw 1\nkind subtree-intersection\n3\n0 1 1 0\n1 2 1 0\n2\n0 1 0\n1 2 0 2\n", Semantic,
         "subtree 1 is not connected in the host tree", None),
        # records end only at line ends: a form feed splits no record, and a
        # `\x1c` line shifts no line number after it
        (INTERVAL_KIND + "2\n0 1 2 3\f1 4 5 6\n", Syntax, "line 4: interval: expected 4 fields, got 8", 4),
        (INTERVAL_KIND + "2\n0 1 2 1\n\x1c\n1 x 2 1\n", Syntax, "line 6: interval: fields must be integers", 6),
    ],
)
def test_parser_fault_class_message_and_line(text, error, message, line):
    with pytest.raises(error) as err:
        parse_instance(text)
    assert type(err.value) is error
    assert str(err.value) == message
    assert getattr(err.value, "line", None) == line


def test_out_of_range_host_vertex_comes_from_unknown_vertex():
    with pytest.raises(InstanceSemanticError) as err:
        parse_instance(TREE_KIND + "2\n0 5 1 1\n")
    assert str(err.value) == "edge (0, 5) out of range"
    assert type(err.value.__cause__) is UnknownVertex


def test_flags_that_int_accepts_still_parse():
    # `00` and `+1` are not the written shapes but are integer 0 and 1
    odd = parse_instance(TREE_KIND + "3\n0 1 00\n1 2 +1 5\n")
    assert odd == parse_instance(TREE_KIND + "3\n0 1 0\n1 2 1 5\n")
    assert odd.payload.f_edges == ((1, 2, 5),)


def test_parsed_selections_equal_the_public_constructors():
    """A parsed selection is the instance the public constructor builds from
    the same host and members: 200 seeded files, a file with the flags the
    written shapes do not take, and weights below 1 in any member."""
    cases = [gen_tree(seed, 1 + seed % 40, 1 + seed % 7) for seed in range(200)]
    for host, subset in cases:
        parsed = parse_instance(write_instance(InstanceFile("tree-edges", TreeEdgesInstance(host, subset)))).payload
        assert parsed == TreeEdgesInstance(host, subset) == TreeEdgesInstance(parsed.host, parsed.f_edges)
        assert type(parsed.f_edges) is tuple and parsed.f_edges == subset
    odd = parse_instance(TREE_KIND + "4\n0 1 +1 3\n1 2 00\n1 3 1 +2\n").payload
    assert odd == TreeEdgesInstance(HostTree(4, ((0, 1), (1, 2), (1, 3))), ((0, 1, 3), (1, 3, 2)))
    assert parse_instance(TREE_KIND + "2\n0 1 0\n").payload == TreeEdgesInstance(HostTree(2, ((0, 1),)), ())
    for body, message in [
        ("3\n0 1 1 2\n1 2 1 -3\n", "edge (1, 2) must have positive weight"),
        ("3\n0 1 1 0\n1 2 1 -3\n", "edge (0, 1) must have positive weight"),
        ("3\n0 1 +1 2\n2 1 1 0\n", "edge (2, 1) must have positive weight"),
    ]:
        with pytest.raises(InstanceSemanticError) as err:
            parse_instance(TREE_KIND + body)
        assert type(err.value) is InstanceSemanticError and str(err.value) == message


INTERVALS = "domw 1\nkind interval\n"


@pytest.mark.parametrize(
    "body, error, message, line",
    [
        # field counts and integer fields
        ("1\n0 1 2\n", Syntax, "line 4: interval: expected 4 fields, got 3", 4),
        ("1\n0 1 2 1 1\n", Syntax, "line 4: interval: expected 4 fields, got 5", 4),
        ("2\n0 1 2 1\n1 1 x 1\n", Syntax, "line 5: interval: fields must be integers", 5),
        ("1\n0 1 2.0 1\n", Syntax, "line 4: interval: fields must be integers", 4),
        # the id must be the line's position in the block
        ("2\n0 1 2 1\n0 3 4 1\n", Semantic, "interval id 0 out of order, expected 1", None),
        ("1\n1 1 2 1\n", Semantic, "interval id 1 out of order, expected 0", None),
        # the interval itself, with `Interval`'s message and the line number in front
        ("2\n0 1 2 1\n1 9 2 1\n", Semantic, "line 5: interval 1: interval [9, 2] is reversed", None),
        ("1\n0 1 2 0\n", Semantic, "line 4: interval 0: interval weight must be positive", None),
        ("1\n0 1 2 -1\n", Semantic, "line 4: interval 0: interval weight must be positive", None),
        ("1\n0 9 2 0\n", Semantic, "line 4: interval 0: interval [9, 2] is reversed", None),
        # a file that ends early, after the rows it has are checked
        ("3\n0 1 2 1\n\n# cut short\n1 2 3 1\n", Syntax, "line 8: missing interval line", 8),
        ("3\n0 1 2 1\n1 2 1 1\n", Semantic, "line 5: interval 1: interval [2, 1] is reversed", None),
        ("3\n0 1 2 1\n1 2 x 1\n", Syntax, "line 5: interval: fields must be integers", 5),
        # the count line
        ("0\n", Semantic, "interval count must be at least 1, got 0", None),
        ("x\n", Syntax, "line 3: interval count: fields must be integers", 3),
    ],
)
def test_interval_parse_fault_class_message_and_line(body, error, message, line):
    with pytest.raises(error) as err:
        parse_instance(INTERVALS + body)
    assert type(err.value) is error
    assert str(err.value) == message
    assert getattr(err.value, "line", None) == line


@pytest.mark.parametrize(
    "row",
    ["+1 -1 01 +2", "1 -1 1 2", "1\t-1   1\t\t2", "  1 -1_0 1_0 2  ", "1 -0010 00010 0_2"],
)
def test_interval_fields_take_every_spelling_int_accepts(row):
    fam = parse_instance(INTERVALS + "2\n0 5 5 1\n" + row + "\n").payload
    expected = [int(field) for field in row.split()[1:]]
    assert list(zip(fam.left, fam.right, fam.weight)) == [(5, 5, 1), tuple(expected)]
    assert fam == IntervalFamily.of([(5, 5, 1), expected])


SPLITS = "domw 1\nkind split\n"
AAB = "3\n0 A 1\n1 A 2\n2 B 1\n"  # lines 3-6; the edge count is on line 7
ABA = "3\n0 A 1\n1 B 1\n2 A 1\n"  # id -1 read from the end would land on A


@pytest.mark.parametrize(
    "body, error, message, line, cause",
    [
        # field counts
        ("2\n0 A\n", Syntax, "line 4: vertex: expected `id side w`", 4, None),
        ("2\n0 A 1 1\n", Syntax, "line 4: vertex: expected `id side w`", 4, None),
        (AAB + "1\n0 2 1\n", Syntax, "line 8: edge: expected 2 fields, got 3", 8, None),
        (AAB + "1\n0\n", Syntax, "line 8: edge: expected 2 fields, got 1", 8, None),
        # the side letter and the integer fields
        ("1\n0 a 1\n", Syntax, "line 4: vertex: side must be A or B, got 'a'", 4, None),
        ("1\n0 A x\n", Syntax, "line 4: vertex: fields must be integers", 4, None),
        ("1\n0 A 1.0\n", Syntax, "line 4: vertex: fields must be integers", 4, None),
        (AAB + "1\n0 x\n", Syntax, "line 8: edge: fields must be integers", 8, None),
        # the id must be the line's position in the block
        ("2\n0 A 1\n0 B 1\n", Semantic, "vertex id 0 out of order, expected 1", None, None),
        ("1\n-1 A 1\n", Semantic, "vertex id -1 out of order, expected 0", None, None),
        # the count lines
        ("x\n", Syntax, "line 3: vertex count: fields must be integers", 3, None),
        ("1 2\n", Syntax, "line 3: vertex count: expected 1 fields, got 2", 3, None),
        ("0\n", Semantic, "vertex count must be at least 1, got 0", None, None),
        (AAB + "x\n", Syntax, "line 7: edge count: fields must be integers", 7, None),
        (AAB + "-1\n", Semantic, "edge count must be at least 0, got -1", None, None),
        ("1\n0 A 1\n", Syntax, "line 5: missing edge count", 5, None),
        # an edge inside one side, and a repeat in either orientation
        (AAB + "1\n0 1\n", Semantic, "edge 0 1 must join the A side to the B side", None, None),
        (AAB + "1\n2 2\n", Semantic, "edge 2 2 must join the A side to the B side", None, None),
        (AAB + "2\n0 2\n2 0\n", Semantic, "duplicate edge 2 0", None, None),
        # an end out of range is named at its line, ahead of the sides and
        # of any later line; a negative end never indexes from the end, where
        # -1 would land on an A vertex
        (AAB + "1\n-1 2\n", Semantic, "edge (-1, 2) out of range", None, UnknownVertex),
        (ABA + "1\n-1 1\n", Semantic, "edge (-1, 1) out of range", None, UnknownVertex),
        (ABA + "1\n1 -1\n", Semantic, "edge (1, -1) out of range", None, UnknownVertex),
        (AAB + "1\n0 -1\n", Semantic, "edge (0, -1) out of range", None, UnknownVertex),
        (ABA + "1\n0 -1\n", Semantic, "edge (0, -1) out of range", None, UnknownVertex),
        (AAB + "1\n5 6\n", Semantic, "edge (5, 6) out of range", None, UnknownVertex),
        (AAB + "2\n0 5\n5 0\n", Semantic, "edge (0, 5) out of range", None, UnknownVertex),
        (AAB + "3\n0 5\n0 2\n2 0\n", Semantic, "edge (0, 5) out of range", None, UnknownVertex),
        (AAB + "2\n0 5\n1 7\n", Semantic, "edge (0, 5) out of range", None, UnknownVertex),
        (AAB + "2\n0 5\n0 x\n", Semantic, "edge (0, 5) out of range", None, UnknownVertex),
        # a weight below 1 is named at its vertex line, ahead of any edge
        ("3\n0 A 1\n1 A 0\n2 B 1\n1\n0 5\n", Semantic,
         "weight of vertex 1 must be a positive integer", None, ValueError),
        ("3\n0 A 1\n1 A 0\n2 B 1\n1\n0 1\n", Semantic,
         "weight of vertex 1 must be a positive integer", None, ValueError),
        ("3\n0 A 1\n1 A 0\n2 B 1\n1\n0 2\n", Semantic,
         "weight of vertex 1 must be a positive integer", None, ValueError),
        ("3\n0 A 1\n1 A 0\n2 B -3\n1\n0 2\nextra\n", Semantic,
         "weight of vertex 1 must be a positive integer", None, ValueError),
        # a block cut short after a comment, and a fault in the rows it has
        (AAB + "3\n0 2\n# a comment\n\n1 2\n", Syntax, "line 12: missing edge line", 12, None),
        (AAB + "3\n0 2\n# a comment\n1 x\n", Syntax, "line 10: edge: fields must be integers", 10, None),
    ],
)
def test_split_parse_fault_class_message_and_line(body, error, message, line, cause):
    with pytest.raises(error) as err:
        parse_instance(SPLITS + body)
    assert type(err.value) is error
    assert str(err.value) == message
    assert getattr(err.value, "line", None) == line
    assert (None if err.value.__cause__ is None else type(err.value.__cause__)) is cause


def test_split_vertex_lines_parse_exactly_when_well_formed():
    """Every line of 0..4 fields over ten tokens, as vertex 1 of a two-vertex
    file: it parses when it has an integer id, a side letter and an integer
    weight, the id is 1 and the weight at least 1, and is then read as
    written; a well-formed line with another id names it; any other raises."""
    tokens = ("1", "0", "+1", "1_0", "-1", "3", "A", "B", "a", "x")
    parsed = 0
    for k in range(5):
        for fields in product(tokens, repeat=k):
            text = f"{SPLITS}2\n0 A 1\n{' '.join(fields)}\n0\n"
            try:
                ident, side, w = int(fields[0]), fields[1], int(fields[2])
                well_formed = k == 3 and side in ("A", "B")
            except (IndexError, ValueError):
                well_formed = False
            if well_formed and ident == 1 and w >= 1:
                inst = parse_instance(text).payload
                assert inst.graph.weights == (1, w)
                assert inst.clique == ({0, 1} if side == "A" else {0})
                parsed += 1
                continue
            with pytest.raises((InstanceSyntaxError, InstanceSemanticError)) as err:
                parse_instance(text)
            if well_formed and ident != 1:
                assert str(err.value) == f"vertex id {ident} out of order, expected 1"
    assert parsed == 2 * 2 * 4  # ids 1 and +1, two sides, weights 1, +1, 3 and 1_0


_SPLIT_CANON = (
    "12\n" + "".join(f"{v} {'A' if v < 4 else 'B'} {1 + v % 5}\n" for v in range(12))
    + "5\n0 4\n1 10\n3 11\n2 5\n0 11\n"
)


@pytest.mark.parametrize(
    "spell",
    [lambda f: "+" + f, lambda f: "0" + f, lambda f: "_".join(f)],
    ids=["plus", "leading-zero", "underscore"],
)
@pytest.mark.parametrize("sep", [" ", "\t", "   ", " \t "])
def test_split_fields_take_every_spelling_int_accepts(spell, sep):
    """Every integer field of the vertex and edge lines respelled (ids 10 and
    11 become `1_0` and `1_1`), the fields joined by `sep`."""
    count, *rows = _SPLIT_CANON.splitlines()
    spelled = [
        sep.join(f if f in ("A", "B") else spell(f) for f in row.split()) if " " in row else row
        for row in rows
    ]
    text = "\n".join([count, *spelled]) + "\n"
    assert parse_instance(SPLITS + text) == parse_instance(SPLITS + _SPLIT_CANON)


def _split_by_the_reference_path(text: str) -> SplitInstance:
    """A split file read by splitting its lines and building the graph with
    `WeightedGraph.from_edges` and `validate_split`, the clique pairs first."""
    rows = [row.split() for row in text.splitlines()[2:] if row.strip() and row[0] != "#"]
    nv = int(rows[0][0])
    vertex_rows, edge_rows = rows[1 : 1 + nv], rows[2 + nv :]
    clique = frozenset(int(i) for i, side, _ in vertex_rows if side == "A")
    pairs = [(u, v) for u in sorted(clique) for v in sorted(clique) if u < v]
    cross = [(int(u), int(v)) for u, v in edge_rows]
    graph = WeightedGraph.from_edges([int(w) for _, _, w in vertex_rows], pairs + cross)
    return validate_split(graph, clique, frozenset(range(nv)) - clique)


def test_split_reader_matches_the_reference_path():
    rng = LCG(2024)
    for shape in range(1200):
        n_a = 1 if shape % 7 == 0 else rng.randint(1, 8)
        prob = (0, 100)[shape % 2] if shape % 5 == 0 else rng.randint(0, 100)
        inst = gen_split(shape, n_a, rng.randint(1, 10), prob, rng.randint(1, 5))
        text = write_instance(InstanceFile("split", inst))
        parsed = parse_instance(text).payload
        assert parsed == _split_by_the_reference_path(text) == inst
        # the unchecked build still passes every check of the constructor
        g = parsed.graph
        assert WeightedGraph(g.weights, g.adjacency) == g


@pytest.mark.parametrize(
    "body",
    [
        "2\n0 A 3\n1 B 2\n0\n",  # an isolated B vertex
        "4\n0 B 1\n1 A 2\n2 B 3\n3 A 1\n2\n2 3\n1 0\n",  # the sides interleaved
        "3\n0 A 1\n1 A 2\n2 A 1\n0\n",  # no B side
        "2\n0 B 1\n1 B 5\n0\n",  # no A side
        "1\n0 A 4\n0\n",
        "1\n0 B 4\n0\n",
    ],
)
def test_hand_written_split_files_match_the_reference_path(body):
    text = SPLITS + body
    parsed = parse_instance(text)
    assert parsed.payload == _split_by_the_reference_path(text)
    assert parse_instance(write_instance(parsed)) == parsed


def test_every_kind_counts_its_graph_vertices():
    instances = [
        InstanceFile("interval", gen_interval(1, 7, 12, 5)),
        InstanceFile("tree-edges", TreeEdgesInstance(*gen_tree(1, 9, 5))),
        InstanceFile("split", gen_split(1, 3, 5, 60, 5)),
        InstanceFile("subtree-intersection", SubtreeInstance(*gen_subtrees(1, 6, 4, 3))),
        InstanceFile("explicit", example_split_triangle().graph),
    ]
    assert sorted(inst.kind for inst in instances) == sorted(KINDS)
    for inst in instances:
        assert KINDS[inst.kind].vertex_count(inst.payload) == instance_graph(inst).n


def _outcome(read, text: str):
    """What a reader makes of a text: the instance, or the class, message,
    line and cause of its fault."""
    try:
        return read(text)
    except (InstanceSyntaxError, InstanceSemanticError) as exc:
        cause = None if exc.__cause__ is None else type(exc.__cause__)
        return type(exc), str(exc), getattr(exc, "line", None), cause


def _edit(rng, rows, block, edit):
    """Replace the fields of a random row of `block` with `edit(fields)`."""
    i = rng.choice(block)
    rows[i] = " ".join(edit(rows[i].split(" ")))


def _respell(rng, rows, spell, start=2):
    """Respell a random integer field of the rows from `start` on (after an
    instance file's header and kind line) with `spell`."""
    fields = [row.split(" ") for row in rows]
    i, j = rng.choice([(i, j) for i in range(start, len(rows)) for j, f in enumerate(fields[i]) if f.isdigit()])
    fields[i][j] = spell(fields[i][j])
    rows[i] = " ".join(fields[i])


def _swap(rng, rows, block):
    i, j = rng.sample(block, 2)
    rows[i], rows[j] = rows[j], rows[i]


def _cut_last_leaf(rng, rows, block):
    """Replace the edge to the last vertex, a leaf of a written random
    recursive tree, with a new edge between two other vertices."""
    nv = len(block) + 1
    edges = [set(map(int, rows[i].split()[:2])) for i in block]
    a, b = rng.choice([(a, b) for a in range(nv - 1) for b in range(a) if {a, b} not in edges])
    rows[block[-1]] = f"{a} {b} 0"


def _mutations(kind, rows):
    """Each mutation of a written file's rows (no line ends) that applies to
    its kind, by name; each takes a `random.Random` and edits the rows."""
    nv = int(rows[2])
    first = range(3, 3 + nv - (kind == "tree-edges"))  # the records; a split file's vertices
    second = range(first.stop + 1, len(rows)) if kind == "split" else range(0)  # split edges
    muts = {
        "crlf": lambda rng: rows.__setitem__(slice(None), [row + "\r" for row in rows]),
        "comment": lambda rng: rows.insert(rng.randrange(len(rows) + 1), "# a comment"),
        "blank": lambda rng: rows.insert(rng.randrange(len(rows) + 1), ""),
        "tab": lambda rng: _edit(rng, rows, range(2, len(rows)), lambda f: ["\t".join(f[:2]), *f[2:]]),
        "trailing space": lambda rng: _edit(rng, rows, range(len(rows)), lambda f: [*f, ""]),
        "007": lambda rng: _respell(rng, rows, lambda f: "00" + f),
        "+1": lambda rng: _respell(rng, rows, lambda f: "+" + f),
        "1_0": lambda rng: _respell(rng, rows, lambda f: f[:-1] + "_" + f[-1] if len(f) > 1 else "1_0"),
        "arabic digit": lambda rng: _respell(rng, rows, lambda f: f[:-1] + chr(0x660 + int(f[-1]))),
        "count off by one": lambda rng: rows.__setitem__(2, str(nv + rng.choice((-1, 1)))),
        # `int` refuses more than 4,300 digits, and so does JSON's reader
        "4,301 digits": lambda rng: _respell(rng, rows, lambda f: "1" + "0" * 4300),
    }
    if len(first) > 1:
        muts["records out of order"] = lambda rng: _swap(rng, rows, first)
    if kind == "interval":
        muts["weight 0"] = lambda rng: _edit(rng, rows, first, lambda f: [*f[:3], "0"])
        muts["x > y"] = lambda rng: _edit(rng, rows, first, lambda f: [f[0], str(int(f[2]) + 1), *f[2:]])
        muts["negated"] = lambda rng: _edit(rng, rows, first, lambda f: [f[0], "-" + f[2], "-" + f[1], f[3]])
        muts["-0"] = lambda rng: _edit(rng, rows, first, lambda f: [f[0], "-0", *f[2:]])
    if kind == "tree-edges":
        muts["weight 0"] = lambda rng: _edit(rng, rows, first, lambda f: [*f[:2], "1", "0"])
        muts["loop"] = lambda rng: _edit(rng, rows, first, lambda f: [f[1], *f[1:]])
        muts["repeated edge"] = lambda rng: rows.__setitem__(rng.choice(first), rows[rng.choice(first)])
        muts["new first end"] = lambda rng: _edit(rng, rows, first, lambda f: [str(rng.randrange(nv)), *f[1:]])
        muts["reversed edge"] = lambda rng: _edit(rng, rows, first, lambda f: [f[1], f[0], *f[2:]])
        if nv > 3:
            muts["disconnected"] = lambda rng: _cut_last_leaf(rng, rows, first)
    if kind == "split":
        side = [rows[i].split()[1] for i in first]
        muts["weight 0"] = lambda rng: _edit(rng, rows, first, lambda f: [*f[:2], "0"])
        muts["edge inside one side"] = lambda rng: _edit(
            rng, rows, second, lambda f: [f[0], str(rng.choice([v for v in range(nv) if side[v] == side[int(f[0])]]))]
        )
        muts["repeated edge"] = lambda rng: rows.__setitem__(rng.choice(second), rows[rng.choice(second)])
        muts["appended repeat"] = lambda rng: rows.append(rows[rng.choice(second)])
        muts["reversed edge"] = lambda rng: _edit(rng, rows, second, lambda f: f[::-1])
        muts["end out of range"] = lambda rng: _edit(rng, rows, second, lambda f: [f[0], str(nv + rng.randrange(3))])
    return muts


_WRITTEN = {
    "interval": lambda s: gen_interval(s, 1 + s % 12, 20, 5),
    "tree-edges": lambda s: TreeEdgesInstance(*gen_tree(s, 1 + s % 15, 5)),
    "split": lambda s: gen_split(s, 1 + s % 5, 1 + s % 6, 40, 5),
}


@pytest.mark.parametrize("kind", sorted(_WRITTEN))
def test_whole_text_readers_agree_with_the_line_reader(kind):
    """Written files, each mutated once by every mutation and twice more by
    two drawn at random: `parse_instance` returns the line reader's instance,
    or raises its fault with the same class, message, line and cause.  The
    whole-text reader takes every written file.  A host's equality ignores
    its parent table, so the table the tree reader builds from its own
    checks is compared with the public constructor's."""
    def same_parents(inst):
        host = inst.payload.host
        assert host._parent == HostTree(host.n, host.edges)._parent

    rng = random.Random(kind)
    parsed = faulty = 0
    for seed in range(60):
        text = write_instance(InstanceFile(kind, _WRITTEN[kind](seed)))
        nv, body = text.split("\n", 3)[2:]
        assert KINDS[kind].read(int(nv), body) == parse_instance(text).payload == _parse_lines(text).payload
        if kind == "tree-edges":
            same_parents(parse_instance(text))
        names = list(_mutations(kind, text.splitlines()))
        # a second mutation is one of the first ten, which take any rows
        for picked in [[name] for name in names] + [[rng.choice(names), rng.choice(names[:10])] for _ in range(2)]:
            rows = text.splitlines()
            mutate = _mutations(kind, rows)
            for name in picked:
                mutate[name](rng)
            mutant = "\n".join(rows) + "\n"
            expected = _outcome(_parse_lines, mutant)
            assert _outcome(parse_instance, mutant) == expected, (picked, mutant)
            if isinstance(expected, InstanceFile):
                if kind == "tree-edges":
                    same_parents(parse_instance(mutant))
                parsed += 1
            else:
                faulty += 1
    assert parsed > 300 and faulty > 300


@pytest.mark.parametrize(
    "args",
    [(seed, 9, 40, 30, 5) for seed in range(5)] + [(3, 18, 40, 50, 5), (5, 20, 40, 50, 5), (3, 24, 60, 50, 5)],
)
def test_written_split_files_take_the_whole_text_reader(args):
    """Split files at the benchmark's shape and at the three larger shapes
    that CI solves are read by the whole-text reader, into the line
    reader's instance: a reader fault cannot hide as a fall-back."""
    text = write_instance(InstanceFile("split", gen_split(*args)))
    nv, body = text.split("\n", 3)[2:]
    read = KINDS["split"].read(int(nv), body)
    assert read is not None
    assert read == _parse_lines(text).payload


def _result_mutations(rows):
    """Each mutation of a written result block's rows, by name, as in
    `_mutations`; the f and I ones apply when the block has an f line or
    an I id, and find their rows when they run."""
    def f_rows():
        return [i for i, row in enumerate(rows) if row.startswith("f ")]

    def i_row():
        return [next(i for i, row in enumerate(rows) if row.split()[0] == "I")]

    def repeat_f(rng):
        i = rng.choice(f_rows())
        rows.insert(i + 1, rows[i])

    muts = {
        "crlf": lambda rng: rows.__setitem__(slice(None), [row + "\r" for row in rows]),
        "comment": lambda rng: rows.insert(rng.randrange(len(rows) + 1), "# a comment"),
        "007": lambda rng: _respell(rng, rows, lambda f: "00" + f, start=1),
        "+1": lambda rng: _respell(rng, rows, lambda f: "+" + f, start=1),
        "swapped lines": lambda rng: _swap(rng, rows, range(len(rows))),
    }
    if f_rows():
        muts["repeated f id"] = repeat_f
    if "I" not in rows:
        muts["repeated I id"] = lambda rng: _edit(rng, rows, i_row(), lambda f: [*f, rng.choice(f[1:])])
    return muts


def test_the_result_reader_agrees_with_the_line_reader():
    """Written results of the three solver kinds, and an empty certificate,
    each mutated once by every mutation that applies and twice more by two
    drawn at random: `parse_result` returns the line reader's block, or
    raises its fault with the same class, message and line.  The one-pass
    reader takes every written block."""
    rng = random.Random("results")
    texts = [write_certificate(Certificate(DominationFunction(), frozenset(), 0))]
    for kind, make in sorted(_WRITTEN.items()):
        for seed in range(40):
            texts.append(KINDS[kind].write_result(KINDS[kind].solve(make(seed))))
    parsed = faulty = 0
    for text in texts:
        headers = sorted({CERT_HEADER, text.split("\n", 1)[0]})
        assert _read_result(text, headers) == parse_result(text, headers) == _parse_result_lines(text, headers)
        names = list(_result_mutations(text.splitlines()))
        # CRLF goes last, as a respelling looks for fields of digits alone
        pairs = [sorted(rng.sample(names, 2), key="crlf".__eq__) for _ in range(2)]
        for picked in [[name] for name in names] + pairs:
            rows = text.splitlines()
            mutate = _result_mutations(rows)
            for name in picked:
                mutate[name](rng)
            mutant = "\n".join(rows) + "\n"
            expected = _outcome(lambda t: _parse_result_lines(t, headers), mutant)
            assert _outcome(lambda t: parse_result(t, headers), mutant) == expected, (picked, mutant)
            if isinstance(expected, tuple) and isinstance(expected[1], Certificate):
                parsed += 1
            else:
                faulty += 1
    assert parsed > 200 and faulty > 200, (parsed, faulty)


@pytest.mark.parametrize(
    "write, message",
    [
        (lambda: write_certificate(Certificate(DominationFunction({True: 1}), frozenset({True}), 1)),
         "vertex True is not an integer"),
        (lambda: write_certificate(Certificate(DominationFunction({0: 1}), frozenset({0, 1.0}), 1)),
         "vertex 1.0 is not an integer"),
        (lambda: write_split_result(SplitResult(1, DominationFunction({0: 1}), frozenset({False}))),
         "vertex False is not an integer"),
    ],
    ids=["cert-ids", "cert-float-I", "split-I"],
)
def test_a_writer_refuses_what_its_reader_would_refuse(write, message):
    """A result block built through the library with an id that is no int is
    refused before anything is written: the writer would print `True` or
    `1.0`, which no reader takes."""
    with pytest.raises(ValueError) as err:
        write()
    assert str(err.value) == message


@pytest.mark.parametrize(
    "subtree, weight, error, message",
    [
        # a bool would be written as `True`, which no reader takes
        ({True}, 1, UnknownVertex, "subtree 0 uses vertex True outside the host tree"),
        ({0, 1}, 0, ValueError, "weight of vertex 0 must be a positive integer"),
        ({1}, True, ValueError, "weight of vertex 0 must be a positive integer"),
        ({1, 3}, 1, UnknownVertex, "subtree 0 uses vertex 3 outside the host tree"),
        (set(), 1, EmptySubtree, "subtree 0 is empty"),
        ({0, 2}, 1, DisconnectedSubtree, "subtree 0 is not connected in the host tree"),
    ],
    ids=["bool-member", "weight-0", "bool-weight", "outside-host", "empty", "disconnected"],
)
def test_the_subtree_constructor_refuses_what_the_reader_would_refuse(subtree, weight, error, message):
    """A subtree family built through the library is checked when it is
    built, as a file's is when it is read: nothing is left for the writer or
    the graph build to find."""
    with pytest.raises(error) as err:
        SubtreeInstance(HostTree(3, ((0, 1), (1, 2))), (frozenset(subtree),), (weight,))
    assert type(err.value) is error and str(err.value) == message


@pytest.mark.parametrize(
    "text, message",
    [
        ("domw 1\nkind interval\n{}\n0 1 2 1\n", "line 5: missing interval line"),
        ("domw 1\nkind tree-edges\n{}\n0 1 0\n", "line 5: missing edge line"),
        # the body's shape is a vertex line and an edge count, which the line
        # reader takes as a second vertex line
        ("domw 1\nkind split\n{}\n0 A 1\n0\n", "line 5: vertex: expected `id side w`"),
    ],
    ids=["interval", "tree-edges", "split"],
)
def test_a_count_far_above_the_body_costs_only_the_bytes(text, message):
    """A one-line body in the written shape under a count far above it: the
    whole-text reader refuses it before building anything of the count's size,
    and the line reader names the fault.  A list of 10^6 ints holds some 36 MB,
    so the largest count the head takes is tried only once 10^6 has passed."""
    for count in (10**6, 999_999_999):
        tracemalloc.start()
        try:
            with pytest.raises(InstanceSyntaxError) as err:
                parse_instance(text.format(count))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(err.value) == message
        assert peak < 100_000, count


@pytest.mark.parametrize(
    "body_shape, line",
    [(_INTERVAL_BODY, "{0} -{0} {0} 1\n"), (_TREE_BODY, "{0} {0} 1 9\n")],
    ids=["interval", "tree-edges"],
)
def test_the_body_shape_check_runs_in_constant_memory(body_shape, line):
    """The body regex is matched in chunks, so its traced peak on a
    10^5-line body stays below 2 MB; matched whole, it held 32 MB."""
    body = "".join(line.format(i) for i in range(10**5))
    tracemalloc.start()
    try:
        assert _match_lines(body_shape, body)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000
    # a faulty line in the first chunk or in the last, and a line longer
    # than a chunk, so that the first chunk holds no line end
    for faulty in ("x\n" + body, body + "x\n", "x" * 2**16 + "\n" + body):
        assert not _match_lines(body_shape, faulty)


def test_reading_a_subtree_file_checks_each_host_once(monkeypatch):
    """Reading a subtree-intersection file and building its graph runs the
    host check once: `_parent_columns` on the written host, and `_search`
    instead of its table when the host's edges are not in parent order."""
    host, subtrees, weights = gen_subtrees(3, 12, 6, 4)
    cases = []
    for edges, searches in ((host.edges, 0), (host.edges[::-1], 1)):
        inst = InstanceFile("subtree-intersection", SubtreeInstance(HostTree(host.n, edges), subtrees, weights))
        cases.append((write_instance(inst), instance_graph(inst), searches))
    calls = {}
    for name in ("_parent_columns", "_search"):
        def spy(*args, check=getattr(graph_core, name), name=name):
            calls[name] += 1
            return check(*args)

        monkeypatch.setattr(graph_core, name, spy)
    for text, graph, searches in cases:
        calls.update(_parent_columns=0, _search=0)
        assert instance_graph(parse_instance(text)) == graph
        assert calls == {"_parent_columns": 1, "_search": searches}
