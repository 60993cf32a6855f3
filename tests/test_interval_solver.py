"""Tests for the two-pass interval greedy and its dispersed-set extraction."""

import hashlib
from itertools import combinations_with_replacement, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import domw.checkers
import domw.graph_core
import domw.interval_solver
import domw.tree_edge_solver
from domw import (
    LCG,
    Certificate,
    DominationFunction,
    Interval,
    IntervalFamily,
    WeightedGraph,
    backward_greedy,
    brute_gamma,
    brute_rho,
    extract_dispersed,
    forward_greedy,
    gen_interval,
    gen_tree,
    intersection_graph,
    is_w_dominating,
    order_by_right_endpoint,
    solve_interval,
    solve_tree,
    verify_certificate,
)
from domw.checkers import check_interval
from domw.instances_io import (
    InstanceFile,
    example_nontu_intervals,
    write_instance,
)
from domw.interval_solver import GreedyTrace

from .strategies import corrupted, interval_families, outcome, seeded_corruptions


def family(*triples) -> IntervalFamily:
    return IntervalFamily.of(triples)


def example_three_intervals() -> IntervalFamily:
    """Two touching intervals and one far away: [1,2] w3, [2,4] w1, [5,6] w2.

    Small enough to trace by hand: both greedy passes place 3 + 2 = 5, and
    {0, 2} is a dispersed set of the same weight.
    """
    return family((1, 2, 3), (2, 4, 1), (5, 6, 2))


def test_interval_validation():
    with pytest.raises(ValueError):
        Interval(5, 3, 1)
    with pytest.raises(ValueError):
        Interval(1, 3, 0)
    with pytest.raises(ValueError, match="integers"):
        Interval(1.5, 2, 1)


def test_family_constructor_checks_every_slot_as_interval_does():
    assert IntervalFamily((1, 4), (2, 6), (3, 1)) == family((1, 2, 3), (4, 6, 1))
    with pytest.raises(ValueError, match="^interval columns must have equal lengths$"):
        IntervalFamily((1, 4), (2,), (3, 1))
    for bad in [(9, 6, 1), (4, 6, 0), (4, 6, -2), (4.0, 6, 1), (4, "6", 1), (4, 6, None)]:
        with pytest.raises(ValueError) as expected:
            Interval(*bad)
        with pytest.raises(ValueError) as err:
            IntervalFamily(*zip((1, 2, 3), bad))
        assert type(err.value) is ValueError and str(err.value) == str(expected.value)
        with pytest.raises(ValueError) as err:
            family((1, 2, 3), bad)
        assert str(err.value) == str(expected.value)


def test_greedy_trace_rejects_columns_of_unequal_lengths():
    with pytest.raises(ValueError) as info:
        GreedyTrace((0, 1), (0,), (1, 1, 1))
    assert str(info.value) == "trace columns must have equal lengths"


def test_a_bool_endpoint_is_refused_as_it_is_for_interval():
    """A bool is no int: `0 True 2 1` is no line that the reader takes."""
    for build in (
        lambda: Interval(True, 2, 1),
        lambda: family((True, 2, True)),
        lambda: IntervalFamily((False,), (True,), (1,)),
        lambda: IntervalFamily.of([(1, 2, True)]),
    ):
        with pytest.raises(ValueError) as err:
            build()
        assert type(err.value) is ValueError and str(err.value) == "interval data must be integers"


@settings(max_examples=100, deadline=None)
@given(interval_families(max_n=9))
def test_family_equality_and_its_interval_view(fam: IntervalFamily):
    triples = list(zip(fam.left, fam.right, fam.weight))
    assert IntervalFamily.of(triples) == IntervalFamily.of(triples) == fam
    assert hash(IntervalFamily.of(triples)) == hash(fam)
    assert IntervalFamily.of((iv.left, iv.right, iv.weight) for iv in fam.intervals) == fam
    assert fam.intervals == tuple(Interval(*t) for t in triples)


def test_empty_family_solves_to_zero():
    cert = solve_interval(IntervalFamily.of([]))
    assert cert.value == 0
    assert cert.dispersed == frozenset()


def test_order_by_right_endpoint_breaks_ties_by_left_then_id():
    fam = family((1, 5, 1), (2, 5, 1), (1, 5, 1), (1, 2, 1))
    assert order_by_right_endpoint(fam) == (3, 0, 2, 1)


def assert_orders_are_the_tuple_orders(fam: IntervalFamily) -> None:
    ids = range(fam.n)
    by_right = tuple(i for _, _, i in sorted(zip(fam.right, fam.left, ids)))
    by_left = tuple(i for _, _, i in sorted(zip(fam.left, fam.right, ids)))
    assert fam._orders == (
        by_right,
        by_left,
        tuple(by_right.index(i) for i in ids),
        tuple(by_left.index(i) for i in ids),
    )


FAR = 10**12


@pytest.mark.parametrize(
    "triples",
    [
        [],
        [(4, 9, 2)],
        [(3, 5, 1)] * 5,
        [(-4, -1, 1), (-7, -1, 2), (-4, 2, 1), (-9, -7, 3), (-4, -1, 2), (0, 0, 1)],
        [(FAR - 3, FAR, 1), (FAR, FAR, 2), (FAR - 5, FAR - 1, 1), (FAR - 3, FAR, 2)],
        [(-FAR, -FAR + 2, 1), (-FAR - 4, -FAR, 2), (-FAR, -FAR, 1), (-FAR - 4, -FAR + 2, 3)],
        [(-FAR, FAR, 1), (-FAR, -FAR, 1), (FAR, FAR, 1), (0, FAR, 1), (-FAR, 0, 1), (-FAR, FAR, 2)],
    ],
    ids=["empty", "one", "identical", "negative", "near-plus-far", "near-minus-far", "both-far"],
)
def test_int_key_orders_are_the_tuple_orders(triples):
    """One int key per order sorts the ids exactly as the (right, left, id)
    and (left, right, id) tuples do, whatever the range of the ends."""
    assert_orders_are_the_tuple_orders(IntervalFamily.of(triples))


@given(
    st.lists(
        st.tuples(st.integers(-3, 3), st.integers(0, 3), st.integers(-FAR, FAR), st.integers(0, 2)),
        max_size=12,
    )
)
def test_int_key_orders_are_the_tuple_orders_on_wide_families(rows):
    """Ends clustered near a few far-apart offsets, with ties in both ends."""
    offsets = (-FAR, 0, FAR)
    triples = []
    for x, length, far, pick in rows:
        left = x + (offsets[pick] if far % 2 else far)
        triples.append((left, left + length, 1))
    assert_orders_are_the_tuple_orders(IntervalFamily.of(triples))


def test_intersection_graph_of_three_intervals():
    fam = example_three_intervals()
    g = intersection_graph(fam)
    assert g.weights == (3, 1, 2)
    assert [sorted(a) for a in g.adjacency] == [[1], [0], []]


def test_three_intervals_example_end_to_end():
    """The worked three-interval family: both passes, extraction, value 5."""
    fam = example_three_intervals()
    f, ftrace = forward_greedy(fam)
    g, gtrace = backward_greedy(fam)
    assert dict(f.items()) == {1: 3, 2: 2}
    assert dict(g.items()) == {0: 3, 2: 2}
    chosen, dec = extract_dispersed(fam, f, g, gtrace)
    assert chosen == frozenset({0, 2})
    assert dec.blocks == ((0, 1), (2,))
    assert dec.representatives == {0: 0, 1: 2}
    cert = solve_interval(fam)
    assert cert.value == 5
    assert verify_certificate(intersection_graph(fam), cert).ok


def test_four_interval_family_with_a_heavy_cover():
    # three unit points covered by one long interval: a single unit of mass
    # on the long interval dominates everything
    fam = example_nontu_intervals()
    cert = solve_interval(fam)
    assert cert.value == 1
    assert dict(cert.dominating.items()) == {3: 1}
    assert cert.dispersed == frozenset({2})
    assert verify_certificate(intersection_graph(fam), cert).ok


def test_right_endpoint_tie_goes_to_the_later_interval():
    # on a right-endpoint tie the forward pass must push mass onto the
    # interval that comes later in the enumeration, otherwise the prefix
    # minimality of f fails against h = {1: 4}
    fam = family((7, 9, 4), (9, 9, 1))
    f, _ = forward_greedy(fam)
    assert dict(f.items()) == {1: 4}


def test_single_interval():
    fam = family((2, 6, 7))
    cert = solve_interval(fam)
    assert cert.value == 7
    assert dict(cert.dominating.items()) == {0: 7}
    assert cert.dispersed == frozenset({0})


def test_disjoint_intervals_pay_separately():
    fam = family((1, 2, 3), (5, 6, 4), (9, 9, 2))
    cert = solve_interval(fam)
    assert cert.value == 9
    assert cert.dispersed == frozenset({0, 1, 2})


@settings(max_examples=150, deadline=None)
@given(interval_families())
def test_both_passes_dominate(fam: IntervalFamily):
    g = intersection_graph(fam)
    f, _ = forward_greedy(fam)
    b, _ = backward_greedy(fam)
    assert is_w_dominating(g, f)
    assert is_w_dominating(g, b)
    assert f.size == b.size


@settings(max_examples=150, deadline=None)
@given(interval_families())
def test_forward_trace_sources_strictly_increase(fam: IntervalFamily):
    order = order_by_right_endpoint(fam)
    position = {v: i for i, v in enumerate(order)}
    _, trace = forward_greedy(fam)
    positions = [position[source] for source, _, _ in trace.steps]
    assert positions == sorted(set(positions))
    assert all(amount > 0 for _, _, amount in trace.steps)


def replay_greedy_traces(fam: IntervalFamily) -> None:
    """Each pass settles, in its own order, every interval still short of its
    weight: it pushes exactly the residual onto the closed neighbor reaching
    furthest in the pass direction, and leaves no residual behind."""
    ivs = fam.intervals
    nbhd = [
        [j for j in range(fam.n) if max(ivs[i].left, ivs[j].left) <= min(ivs[i].right, ivs[j].right)]
        for i in range(fam.n)
    ]
    passes = (
        # forward: ascending right end; furthest right, ties to the later
        (forward_greedy, lambda i: (ivs[i].right, ivs[i].left, i), False, max),
        # backward: descending left end; furthest left, ties to the earlier
        (backward_greedy, lambda i: (ivs[i].left, ivs[i].right, i), True, min),
    )
    for greedy, key, reverse, furthest in passes:
        f, trace = greedy(fam)
        residual = [iv.weight for iv in ivs]
        mass: dict[int, int] = {}
        steps = iter(trace.steps)
        for v in sorted(range(fam.n), key=key, reverse=reverse):
            if residual[v] == 0:
                continue
            source, target, amount = next(steps)
            assert source == v
            assert amount == residual[v]
            assert target == furthest(nbhd[v], key=key)
            mass[target] = mass.get(target, 0) + amount
            for z in nbhd[target]:
                residual[z] = max(0, residual[z] - amount)
        assert next(steps, None) is None
        assert residual == [0] * fam.n
        assert dict(f.items()) == mass


@settings(max_examples=150, deadline=None)
@given(interval_families())
def test_greedy_traces_replay_from_the_definition(fam: IntervalFamily):
    replay_greedy_traces(fam)


def test_greedy_traces_replay_on_every_small_family():
    """All families of up to three intervals on 1..3 with weights 1..2, in
    every id order: repeated intervals and touching ends pin the id
    tie-breaks of both passes."""
    shapes = [(x, y, w) for x in range(1, 4) for y in range(x, 4) for w in (1, 2)]
    for n in (1, 2, 3):
        for triples in product(shapes, repeat=n):
            replay_greedy_traces(IntervalFamily.of(triples))


@settings(max_examples=100, deadline=None)
@given(interval_families(max_n=6))
def test_solver_matches_oracles_and_verifies(fam: IntervalFamily):
    g = intersection_graph(fam)
    cert = solve_interval(fam)
    assert verify_certificate(g, cert).ok
    assert cert.value == brute_gamma(g)[0] == brute_rho(g)[0]


@settings(max_examples=100, deadline=None)
@given(interval_families(max_n=6))
def test_blocks_partition_the_enumeration(fam: IntervalFamily):
    """Extraction cuts the forward order into consecutive blocks whose
    J-blocks each carry exactly the weight of their representative."""
    f, _ = forward_greedy(fam)
    g, gtrace = backward_greedy(fam)
    chosen, dec = extract_dispersed(fam, f, g, gtrace)
    order = order_by_right_endpoint(fam)
    flat = [v for block in dec.blocks for v in block]
    assert flat == list(order)
    assert set(dec.representatives) <= set(range(len(dec.blocks)))
    assert chosen == frozenset(dec.representatives.values())
    for i, block in enumerate(dec.blocks):
        if i not in dec.representatives:
            (lone,) = block
            assert f(lone) == 0 and g(lone) == 0
    for i, z in dec.representatives.items():
        wz = fam.weight[z]
        assert sum(map(f, dec.blocks[i])) == wz
        assert sum(map(g, dec.blocks[i])) == wz


class DominationCandidate:
    """A plain vertex labeling usable wherever a domination function is."""

    def __init__(self, values):
        self.values = {v: x for v, x in enumerate(values) if x}

    def __call__(self, v: int) -> int:
        return self.values.get(v, 0)

    @property
    def support(self):
        return frozenset(self.values)


@settings(max_examples=60, deadline=None)
@given(interval_families(max_n=4, max_coord=8, max_w=3))
def test_prefix_minimality_against_all_dominating_functions(fam: IntervalFamily):
    g = intersection_graph(fam)
    f, _ = forward_greedy(fam)
    b, _ = backward_greedy(fam)
    fwd = order_by_right_endpoint(fam)
    bwd = sorted(
        range(fam.n),
        key=lambda i: (fam.left[i], fam.right[i], i),
        reverse=True,
    )
    top = max(g.weights)
    for values in product(range(top + 1), repeat=fam.n):
        h = DominationCandidate(values)
        if not is_w_dominating(g, h):
            continue
        run_f = run_b = run_h_f = run_h_b = 0
        for vf, vb in zip(fwd, bwd):
            run_f += f(vf)
            run_h_f += h(vf)
            assert run_f <= run_h_f
            run_b += b(vb)
            run_h_b += h(vb)
            assert run_b <= run_h_b


def test_ten_thousand_short_intervals_solve_to_a_verified_certificate():
    """By weak duality a verified certificate proves both values optimal at
    any size, far above the oracles' 10-vertex cap."""
    rng = LCG(1)
    triples = []
    for _ in range(10_000):
        left = rng.randint(1, 20_000)
        triples.append((left, left + rng.randint(0, 6), rng.randint(1, 5)))
    fam = IntervalFamily.of(triples)
    cert = solve_interval(fam)
    assert verify_certificate(intersection_graph(fam), cert).ok


def test_no_graph_is_built_per_solve(monkeypatch):
    """Both paper solvers and the public extraction read every neighborhood
    off sorted endpoints or host vertices, so none builds a graph."""

    def refuse(*args, **kwargs):
        raise AssertionError("a solver built a graph")

    monkeypatch.setattr(domw.interval_solver, "intersection_graph", refuse)
    monkeypatch.setattr(domw.tree_edge_solver, "_intersection_graph", refuse)
    monkeypatch.setattr(domw.graph_core, "_intersection_graph", refuse)
    monkeypatch.setattr(WeightedGraph, "from_edges", refuse)
    monkeypatch.setattr(WeightedGraph, "_checked", refuse)
    monkeypatch.setattr(WeightedGraph, "__post_init__", refuse)
    fam = gen_interval(3, 300, 600, 5)
    cert = solve_interval(fam)
    f, _ = forward_greedy(fam)
    g, gtrace = backward_greedy(fam)
    assert extract_dispersed(fam, f, g, gtrace)[0] == cert.dispersed
    host, subset = gen_tree(3, 300, 5)
    assert solve_tree(host, subset).value > 0
    monkeypatch.undo()
    assert verify_certificate(intersection_graph(fam), cert).ok


@settings(max_examples=400, deadline=None)
@given(interval_families(), st.data())
def test_interval_checker_agrees_with_verify_certificate(fam: IntervalFamily, data):
    cert = data.draw(corrupted(solve_interval(fam), fam.weight))
    assert outcome(check_interval, fam, cert) == outcome(verify_certificate, intersection_graph(fam), cert)


def test_interval_checker_agrees_with_verify_certificate_on_every_small_case():
    """All families of up to three intervals on 1..3 with weights 1..2, and
    for each every set with f = w on it, and every set with the solver's f
    at value |f| and at the set's weight: touching endpoints included."""
    shapes = [(x, y, w) for x in range(1, 4) for y in range(x, 4) for w in (1, 2)]
    for n in (1, 2, 3):
        for triples in combinations_with_replacement(shapes, n):
            fam = IntervalFamily.of(triples)
            graph = intersection_graph(fam)
            solver_f = solve_interval(fam).dominating
            for k in range(1 << n):
                members = frozenset(v for v in range(n) if k >> v & 1)
                weight = sum(graph.weights[m] for m in members)
                cover = DominationFunction({m: graph.weights[m] for m in members})
                for cert in (
                    Certificate(cover, members, weight),
                    Certificate(solver_f, members, solver_f.size),
                    Certificate(solver_f, members, weight),
                ):
                    assert outcome(check_interval, fam, cert) == outcome(verify_certificate, graph, cert)


def short_intervals(seed: int, n: int) -> IntervalFamily:
    """n intervals of length 0..6 on 1..2n + 6, weights 1..5: each meets only
    a few others, so a solve has tens of witnesses with short gaps between them."""
    rng = LCG(seed)
    triples = []
    for _ in range(n):
        left = rng.randint(1, 2 * n)
        triples.append((left, left + rng.randint(0, 6), rng.randint(1, 5)))
    return IntervalFamily.of(triples)


@pytest.mark.parametrize(
    "make",
    [
        lambda seed: gen_interval(seed, 1 + seed % 9, 4 + seed % 17, 1 + seed % 4),
        lambda seed: gen_interval(seed, 30 + seed % 120, 600, 5),
        lambda seed: short_intervals(seed, 30 + 3 * seed),
    ],
    ids=["small", "dense", "sparse"],
)
def test_interval_checker_agrees_with_verify_certificate_on_seeded_corruptions(make):
    """440 certificates per kind of family: each of 40 seeded families' own
    and 10 broken copies, out-of-range and negative ids included; the reason,
    or the UnknownVertex raised, is the explicit graph's.  The dense families
    (30 to 149 intervals on 1..600) have small supports and long nested
    intervals, where one interval can meet two witnesses that it does not
    contain.  The sparse ones (30 to 147 short intervals) have 8 to 39
    witnesses.  For each kind, the member sets rejected as not dispersed
    include both faults: two members, consecutive by left end, that meet, and
    disjoint members with a non-member across the gap between two of them."""
    checked, kinds = 0, {"members meet": 0, "gap spanned": 0}
    for seed in range(40):
        fam = make(seed)
        graph = intersection_graph(fam)
        for cert in seeded_corruptions(solve_interval(fam), graph, seed):
            reason = outcome(check_interval, fam, cert)
            assert reason == outcome(verify_certificate, graph, cert)
            checked += 1
            if reason == "NotDispersed":
                members = sorted(cert.dispersed, key=lambda m: (fam.left[m], fam.right[m]))
                meet = any(fam.right[a] >= fam.left[b] for a, b in zip(members, members[1:]))
                kinds["members meet" if meet else "gap spanned"] += 1
    assert checked == 440
    assert min(kinds.values()) >= 1, kinds


def test_extraction_takes_the_smallest_passing_source_as_the_witness():
    """Twin intervals: a trace that also has the first twin push onto itself
    gives the block two sources that pass, and either order of the steps
    elects the smaller id."""
    fam = family((1, 2, 1), (1, 2, 1))
    f, _ = forward_greedy(fam)
    g, gtrace = backward_greedy(fam)
    assert extract_dispersed(fam, f, g, gtrace)[0] == frozenset({1})
    sources, targets, amounts = gtrace.sources, gtrace.targets, gtrace.amounts
    # the self-push (0, 0, 1) first, then last
    for trace in [
        GreedyTrace((0, *sources), (0, *targets), (1, *amounts)),
        GreedyTrace((*sources, 0), (*targets, 0), (*amounts, 1)),
    ]:
        chosen, dec = extract_dispersed(fam, f, g, trace)
        assert chosen == frozenset({0}) and dec.representatives == {0: 0}


@pytest.mark.parametrize(
    "g, steps, message",
    [
        ({}, None, "interval 1 carries forward mass but no backward mass"),
        (None, (), "no witness interval for 1"),
        # interval 2 ends inside the block of witness 0 but does not meet it
        ({0: 1, 2: 1}, ((0, 0),), "block of witness 0 does not pay for it exactly"),
    ],
    ids=["no-backward-mass", "no-witness", "block-pay"],
)
def test_extraction_guards_fire_on_a_tampered_g_or_trace(g, steps, message):
    """The forward function of [1, 2], [2, 5], [3, 4] with a backward function
    or trace (None: the greedy's own) that no greedy pass gives."""
    fam = family((1, 2, 1), (2, 5, 1), (3, 4, 1))
    f, _ = forward_greedy(fam)
    own_g, own_trace = backward_greedy(fam)
    g = own_g if g is None else DominationFunction(g)
    if steps is None:
        gtrace = own_trace
    else:
        gtrace = GreedyTrace(tuple(s for s, _ in steps), tuple(t for _, t in steps), (1,) * len(steps))
    with pytest.raises(domw.TheoremViolation, match=f"^{message}$"):
        extract_dispersed(fam, f, g, gtrace)


@pytest.mark.parametrize(
    "triples, by_right, by_left, message",
    [
        ([(1, 1, 2), (3, 3, 2)], (0, 1), (1, 0), "target 1 misses its source 0"),
        ([(1, 2, 2), (3, 4, 2), (2, 3, 1)], (2, 0, 1), (0, 1, 2), "target 0 ends before the previous target"),
        ([(1, 2, 1), (3, 4, 1), (5, 6, 1)], (0, 2, 1), (0, 1, 2), "target 1 misses its source 2"),
        ([(1, 5, 1), (2, 3, 2), (4, 6, 1)], (0, 1, 2), (0, 1, 2), "target 1 ends before the previous target"),
    ],
    ids=["misses-source", "ends-before-previous", "k_r-swapped-misses-source", "k_r-unsorted-ends-before"],
)
def test_greedy_guards_fire_on_planted_orders(triples, by_right, by_left, message):
    """The forward pass on two orders that no sort gives, planted in the family's cache;
    the same family with its own sorted orders solves."""
    fam = IntervalFamily.of(triples)
    pos_r, pos_l = [0] * fam.n, [0] * fam.n
    for k, (r, l) in enumerate(zip(by_right, by_left)):
        pos_r[r], pos_l[l] = k, k
    fam.__dict__["_orders"] = (by_right, by_left, tuple(pos_r), tuple(pos_l))
    with pytest.raises(domw.TheoremViolation) as info:
        forward_greedy(fam)
    assert str(info.value) == message
    untampered = IntervalFamily.of(triples)
    assert verify_certificate(intersection_graph(untampered), solve_interval(untampered)).ok


def test_solve_rejects_passes_that_disagree_on_the_value(monkeypatch):
    fam = family((1, 2, 1), (2, 5, 1), (3, 4, 1))
    g, gtrace = backward_greedy(fam)
    heavier = DominationFunction({**g.values, 0: g(0) + 1})
    monkeypatch.setattr(domw.interval_solver, "backward_greedy", lambda fam: (heavier, gtrace))
    with pytest.raises(domw.TheoremViolation) as info:
        solve_interval(fam)
    assert str(info.value) == "forward and backward greedy disagree on the value"


@pytest.mark.parametrize("stray", [3, -1])
def test_extraction_raises_on_mass_outside_the_family(stray):
    """Mass on an id the family lacks is never read as mass on one it has."""
    fam = family((1, 2, 1), (2, 4, 2), (6, 7, 1))
    f, _ = forward_greedy(fam)
    g, gtrace = backward_greedy(fam)
    assert extract_dispersed(fam, f, g, gtrace)[0] == frozenset({1, 2})
    for h in (f, g):
        bad = DominationFunction({**h.values, stray: 1})
        pair = (bad, g) if h is f else (f, bad)
        with pytest.raises(domw.TheoremViolation, match="witness weight does not match"):
            extract_dispersed(fam, *pair, gtrace)


def test_interval_checker_rejects_ids_outside_the_family():
    """An unknown id of f raises before domination is read, one of I only
    after it; as on the explicit graph."""
    fam = family((1, 2, 1), (4, 5, 1))
    both, first = DominationFunction({0: 1, 1: 1}), DominationFunction({0: 1})
    assert check_interval(fam, Certificate(both, frozenset({0, 1}), 2)).ok
    assert check_interval(fam, Certificate(first, frozenset({0, 2}), 1)).reason == "NotDominating"
    for f, members in [(both, {0, 2}), (both, {0, -1}), (DominationFunction({0: 1, 1: 1, 2: 1}), {0, 1})]:
        with pytest.raises(domw.UnknownVertex, match="out of range 0..1"):
            check_interval(fam, Certificate(f, frozenset(members), 2))


def test_each_family_sorts_its_two_orders_once(monkeypatch):
    """The passes and the extraction share the family's K_r and K_l orders,
    sorted on first use: two sorts of all n ids per family.  The self-check
    sorts nothing of length n: only f's support, by each end, and the
    witnesses, once, by left end.  Before a solve the family holds its three
    columns only; the cached orders leave its value alone."""
    calls = []

    def counting(module):
        def counting_sorted(items, *args, **kwargs):
            items = list(items)
            calls.append((module, len(items)))
            return sorted(items, *args, **kwargs)

        return counting_sorted

    fam = gen_interval(2, 60, 200, 5)
    fresh = gen_interval(2, 60, 200, 5)
    columns = {"left": fam.left, "right": fam.right, "weight": fam.weight}
    assert vars(fam) == columns
    assert all(type(column) is tuple and len(column) == 60 for column in columns.values())
    for module in (domw.interval_solver, domw.checkers):
        monkeypatch.setattr(module, "sorted", counting(module), raising=False)
    cert = solve_interval(fam)
    support, witnesses = len(cert.dominating.values), len(cert.dispersed)
    assert 60 not in (support, witnesses)
    checker_sorts = [(domw.checkers, size) for size in (support, support, witnesses)]
    assert calls == [(domw.interval_solver, 60)] * 2 + checker_sorts
    assert vars(fam) != columns
    calls.clear()
    f, _ = forward_greedy(fam)
    g, gtrace = backward_greedy(fam)
    extract_dispersed(fam, f, g, gtrace)
    assert len(calls) == 0
    assert check_interval(fam, cert).ok
    assert calls == checker_sorts
    monkeypatch.undo()
    assert fam == fresh and hash(fam) == hash(fresh) and repr(fam) == repr(fresh)
    assert write_instance(InstanceFile("interval", fam)) == write_instance(InstanceFile("interval", fresh))


def test_public_passes_build_no_graph(monkeypatch):
    """Both passes read the sorted endpoints only, so a dense family whose
    interval graph has about a million edges costs them nothing extra."""

    def refuse(*args, **kwargs):
        raise AssertionError("a greedy pass built a graph")

    monkeypatch.setattr(domw.interval_solver, "intersection_graph", refuse)
    monkeypatch.setattr(WeightedGraph, "from_edges", refuse)
    monkeypatch.setattr(WeightedGraph, "_checked", refuse)
    monkeypatch.setattr(domw.graph_core, "_intersection_graph", refuse)
    fam = gen_interval(1, 2000, 8000, 5)
    f, _ = forward_greedy(fam)
    g, _ = backward_greedy(fam)
    assert f.size == g.size


@settings(max_examples=150, deadline=None)
@given(interval_families())
def test_solve_matches_the_public_phases(fam: IntervalFamily):
    """The solve gives what the public phases give when composed.  The passes
    build their functions unchecked; each equals the checking constructor's."""
    cert = solve_interval(fam)
    f, _ = forward_greedy(fam)
    g, gtrace = backward_greedy(fam)
    dispersed, _ = extract_dispersed(fam, f, g, gtrace)
    assert f == DominationFunction(f.values) and g == DominationFunction(g.values)
    assert cert.dominating == f
    assert cert.dispersed == dispersed
    assert cert.value == f.size


def test_a_hundred_thousand_dense_intervals_solve():
    """Its interval graph would have billions of edges; the solve reads the
    endpoints only and checks its own certificate."""
    fam = gen_interval(1, 10**5, 4 * 10**5, 5)
    cert = solve_interval(fam)
    assert cert.value == sum(fam.weight[z] for z in cert.dispersed)


def test_a_thousand_dense_intervals_solve_to_a_verified_certificate():
    """About 241k edges but only a handful of greedy steps."""
    fam = gen_interval(1, 1000, 4000, 5)
    cert = solve_interval(fam)
    assert verify_certificate(intersection_graph(fam), cert).ok


def parity_families():
    """3,085 families: the empty one, every ordered family of up to three
    intervals on 1..3 with weights 1..2, and 1,200 seeded ones, among them
    short intervals shifted to negative coordinates and near 10^12."""
    yield IntervalFamily.of([])
    shapes = [(x, y, w) for x in range(1, 4) for y in range(x, 4) for w in (1, 2)]
    for n in (1, 2, 3):
        for triples in product(shapes, repeat=n):
            yield IntervalFamily.of(triples)
    for seed in range(400):
        yield gen_interval(seed, 1 + seed % 40, 10 + seed % 90, 1 + seed % 5)
    for seed in range(800):
        rng, n = LCG(seed), 1 + seed % 60
        shift = (0, -3 * n, -(10**12), 10**12 - 3 * n)[seed % 4]
        triples = []
        for _ in range(n):
            left = shift + rng.randint(1, 2 * n)
            triples.append((left, left + rng.randint(0, 6), rng.randint(1, 5)))
        yield IntervalFamily.of(triples)


def test_phases_match_their_pinned_digest():
    """Both greedy traces, the decomposition and the certificate, byte for
    byte, as the phases gave them before they were rewritten for speed."""
    digest = hashlib.sha256()
    count = 0
    for fam in parity_families():
        f, ftrace = forward_greedy(fam)
        g, gtrace = backward_greedy(fam)
        chosen, dec = extract_dispersed(fam, f, g, gtrace)
        cert = solve_interval(fam)
        record = (
            list(ftrace.steps),
            list(gtrace.steps),
            sorted(f.items()),
            sorted(g.items()),
            sorted(chosen),
            dec.blocks,
            sorted(dec.representatives),
            sorted(set(range(len(dec.blocks))) - set(dec.representatives)),
            sorted(dec.representatives.items()),
            sorted(cert.dominating.items()),
            sorted(cert.dispersed),
            cert.value,
        )
        digest.update(repr(record).encode("ascii") + b"\n")
        count += 1
    assert count == 3085
    assert digest.hexdigest() == "c8baaf48fbae138a774ac96286835750099dda772196cc7f0602d4ed9ff4d16e"
