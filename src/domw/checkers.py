"""Certificate checks for intervals and tree edges: what `verify_certificate` decides on the
explicit graph, in its order, with no graph built and no code shared with the solvers.
Neither marks closed neighborhoods as `is_dispersed` does.  The interval check sorts the
members once by left end, finds them pairwise disjoint by comparing neighbors in that order,
and then bisects once per interval; the tree check lets each member claim its two ends."""

from bisect import bisect_left, bisect_right
from contextlib import suppress
from itertools import accumulate, repeat
from math import inf
from operator import ge, sub
from typing import Any, Callable, Sequence

from .errors import EmptyEdgeSet, TheoremViolation, UnknownVertex
from .graph_core import NOT_DISPERSED, NOT_DOMINATING, VALUE_MISMATCH, Certificate, CertificateCheck, _check_ids


def _matched(cert: Certificate, dispersed_weight: int) -> CertificateCheck:
    ok = cert.dominating.size == cert.value == dispersed_weight
    return CertificateCheck(ok, None if ok else VALUE_MISMATCH)


def check_interval(fam: Any, cert: Certificate) -> CertificateCheck:
    """The check on the interval graph of a family's columns left, right and weight.

    f[N(z)] = f(left <= z.right) - f(right < z.left), read from f's support S
    sorted by each end.  No interval may meet two members: the members, sorted
    once by left end, must be pairwise disjoint, which holds when no two
    consecutive ones meet; then an interval meets two when the second last
    member to start by its right end ends at or after its left end, one
    bisect each.  Only S and the members are sorted, so the cost is
    O((n + s) log s), s being their sizes: 0.03 s on gen_interval(1, 10**5,
    4 * 10**5, 5), whose certificate has 2 nonzero values and 2 members
    (2-core x86 container)."""
    f, n, left, right, weight = cert.dominating.values, fam.n, fam.left, fam.right, fam.weight
    _check_ids(f, n)
    starts, ends = sorted(f, key=left.__getitem__), sorted(f, key=right.__getitem__)
    lefts, rights = list(map(left.__getitem__, starts)), list(map(right.__getitem__, ends))
    by_start = [0, *accumulate(map(f.__getitem__, starts))]
    by_end = [0, *accumulate(map(f.__getitem__, ends))]
    upto = map(by_start.__getitem__, map(bisect_right, repeat(lefts), right))
    before = map(by_end.__getitem__, map(bisect_left, repeat(rights), left))
    if not all(map(ge, map(sub, upto, before), weight)):
        return CertificateCheck(False, NOT_DOMINATING)
    _check_ids(cert.dispersed, n)
    members = sorted(cert.dispersed, key=left.__getitem__)
    member_lefts, member_rights = list(map(left.__getitem__, members)), list(map(right.__getitem__, members))
    if any(map(ge, member_rights, member_lefts[1:])):
        return CertificateCheck(False, NOT_DISPERSED)
    # the members are disjoint, so their rights ascend with their lefts: the
    # ones z meets are a tail of the b that start by z's right end, two or
    # more when the second last of those ends at or after z's left end, and
    # reach[b] is that end (-inf for b < 2)
    reach = [-inf, -inf, *member_rights[:-1]]
    if any(map(ge, map(reach.__getitem__, map(bisect_right, repeat(member_lefts), right)), left)):
        return CertificateCheck(False, NOT_DISPERSED)
    return _matched(cert, sum(weight[m] for m in cert.dispersed))


def check_tree_edges(subset: Sequence[tuple[int, int, int]], cert: Certificate) -> CertificateCheck:
    """The check on the line graph of selected (end, end, weight) tree edges;
    an empty selection has none and raises EmptyEdgeSet, as `edge_line_graph` does.

    f[N[e]] = S(x) + S(y) - f(e) for e = (x, y), with S(x) the mass at x.  Each
    member claims its two ends; two members are too close when a selected edge
    joins ends that they claim.  A vertex claimed twice keeps one claim, which
    leaves the other member itself with ends claimed by two members."""
    if not subset:
        raise EmptyEdgeSet("the selected edge set is empty")
    f = cert.dominating.values
    _check_ids(f, len(subset))
    at: dict[int, int] = {}  # S(x), read through .get
    held = at.get
    for e, fe in f.items():
        x, y, _ = subset[e]
        at[x] = held(x, 0) + fe
        at[y] = held(y, 0) + fe
    f_of = f.get
    for e, (x, y, w) in enumerate(subset):
        if held(x, 0) + held(y, 0) - f_of(e, 0) < w:
            return CertificateCheck(False, NOT_DOMINATING)
    _check_ids(cert.dispersed, len(subset))
    claim: dict[int, int] = {}
    for m in cert.dispersed:
        x, y, _ = subset[m]
        claim[x] = claim[y] = m
    claimed = claim.get
    for x, y, _ in subset:
        m = claimed(x)  # an unclaimed y reads as x's own claim
        if m is not None and claimed(y, m) != m:
            return CertificateCheck(False, NOT_DISPERSED)
    return _matched(cert, sum(subset[m][2] for m in cert.dispersed))


def self_check(checker: Callable[[Any, Certificate], CertificateCheck], inst: Any, cert: Certificate) -> Certificate:
    """`cert`, once `checker` accepts it; any other outcome, an unknown id included, is a broken theorem."""
    with suppress(UnknownVertex):
        if checker(inst, cert):
            return cert
    raise TheoremViolation("certificate failed re-verification")
