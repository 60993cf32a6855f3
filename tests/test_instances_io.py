"""Tests for the instance file formats, generators, and the LCG."""

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
from domw.errors import (
    InstanceSemanticError,
    InstanceSyntaxError,
    ParameterOutOfRange,
    UnknownVertex,
)
from domw.instances_io import (
    KINDS,
    example_forked_star,
    example_nontu_intervals,
    example_nontu_star,
    example_split_triangle,
    example_three_intervals,
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


def test_generator_parameter_validation():
    with pytest.raises(ParameterOutOfRange):
        gen_interval(0, 0, 12, 5)
    with pytest.raises(ParameterOutOfRange):
        gen_split(0, 3, 4, 60, 0)


def test_gen_split_leaves_no_isolated_b_vertex():
    for seed in range(40):
        inst = gen_split(seed, 3, 4, 0, 5)
        for b in inst.independent:
            assert inst.graph.adjacency[b] & inst.clique


def test_example_instances_are_consistent():
    host, subtrees, weights = example_forked_star()
    assert host.n == 13 and len(subtrees) == len(weights) == 15
    fam = example_three_intervals()
    assert [(iv.left, iv.right, iv.weight) for iv in fam.intervals] == [
        (1, 2, 3),
        (2, 4, 1),
        (5, 6, 2),
    ]
    assert example_nontu_intervals().n == 4
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
    cert = Certificate(DominationFunction.zero(), frozenset(), 0)
    text = write_certificate(cert)
    assert parse_certificate(text) == cert


def test_certificate_parse_failures():
    with pytest.raises(InstanceSyntaxError):
        parse_certificate("nope\n")
    with pytest.raises(InstanceSyntaxError):
        parse_certificate("domw-cert 1\nf 0 1\nI 0\n")


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
SPLIT_AB = "domw 1\nkind split\n2\n0 A 1\n1 B 1\n"
Syntax, Semantic = InstanceSyntaxError, InstanceSemanticError


@pytest.mark.parametrize(
    "text, error, message, line",
    [
        # a member edge of weight 0 is caught by the selection check
        (TREE_KIND + "2\n0 1 1 0\n", Semantic, "edge (0, 1) must have positive weight", None),
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
        # an edge inside one side; an id out of range sits on the B side, and
        # a negative one must not index from the end
        (AAB + "1\n0 1\n", Semantic, "edge 0 1 must join the A side to the B side", None, None),
        (AAB + "1\n2 2\n", Semantic, "edge 2 2 must join the A side to the B side", None, None),
        (AAB + "1\n-1 2\n", Semantic, "edge -1 2 must join the A side to the B side", None, None),
        (ABA + "1\n-1 1\n", Semantic, "edge -1 1 must join the A side to the B side", None, None),
        (AAB + "1\n5 6\n", Semantic, "edge 5 6 must join the A side to the B side", None, None),
        # repeats, in either orientation, in range or not
        (AAB + "2\n0 2\n2 0\n", Semantic, "duplicate edge 2 0", None, None),
        (AAB + "2\n0 5\n5 0\n", Semantic, "duplicate edge 5 0", None, None),
        # after the block: the first edge out of range, then the first weight below 1
        (AAB + "3\n0 5\n0 2\n2 0\n", Semantic, "duplicate edge 2 0", None, None),
        (AAB + "1\n0 -1\n", Semantic, "edge (0, -1) out of range", None, UnknownVertex),
        (ABA + "1\n0 -1\n", Semantic, "edge (0, -1) out of range", None, UnknownVertex),
        (AAB + "2\n0 5\n1 7\n", Semantic, "edge (0, 5) out of range", None, UnknownVertex),
        ("3\n0 A 1\n1 A 0\n2 B 1\n1\n0 5\n", Semantic, "edge (0, 5) out of range", None, UnknownVertex),
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
