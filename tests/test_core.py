"""Counting and canonical-form tests for edges, matchings, and families."""

import itertools
import json
import math
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from ekr_matchings import core
from ekr_matchings.core import (
    Matching,
    MatchingFamily,
    Parameters,
    all_edges,
    chi,
    common_edges,
    enumerate_matchings,
    intersects,
    iter_indented,
    make_edge,
    phi,
    star_family,
)

from oracles import naive_matchings


def test_parameters_validation():
    Parameters(3, 2)
    Parameters(1, 1)
    with pytest.raises(ValueError, match=r"^n must be a positive integer, got 0$"):
        Parameters(0, 1)
    with pytest.raises(ValueError, match=r"^r must satisfy 1 <= r <= n, got r=0, n=3$"):
        Parameters(3, 0)
    with pytest.raises(ValueError, match=r"^r must satisfy 1 <= r <= n, got r=4, n=3$"):
        Parameters(3, 4)


def test_make_edge_canonicalizes():
    assert make_edge(5, 2) == (2, 5)
    assert make_edge(2, 5) == (2, 5)
    with pytest.raises(ValueError):
        make_edge(3, 3)
    with pytest.raises(ValueError):
        make_edge(0, 2)
    with pytest.raises(ValueError):
        make_edge(1, 7, vertex_count=6)


@given(st.integers(1, 50), st.integers(1, 50))
def test_make_edge_sorted_endpoints(u, v):
    if u == v:
        with pytest.raises(ValueError):
            make_edge(u, v)
    else:
        edge = make_edge(u, v)
        assert edge == (min(u, v), max(u, v))


@pytest.mark.parametrize("n", range(1, 6))
def test_all_edges_lex_order_and_count(n):
    edges = all_edges(n)
    assert len(edges) == math.comb(2 * n, 2)
    assert edges == sorted(edges)
    assert len(set(edges)) == len(edges)


def test_matching_rejects_bad_tuples():
    with pytest.raises(ValueError, match=r"^edge \(2, 1\) is not canonical$"):
        Matching(((2, 1),))
    with pytest.raises(ValueError, match=r"^edges are not pairwise disjoint at \(2, 3\)$"):
        Matching(((1, 2), (2, 3)))
    with pytest.raises(ValueError, match=r"^edges are not sorted$"):
        Matching(((3, 4), (1, 2)))


def test_matching_from_edges_normalizes():
    m = Matching.from_edges([(4, 3), (2, 1)])
    assert m.edges == ((1, 2), (3, 4))
    assert (1, 2) in m
    assert (1, 3) not in m
    assert len(m) == 2


def test_intersects_requires_shared_edge():
    a = Matching.from_edges([(1, 2), (3, 4)])
    b = Matching.from_edges([(1, 2), (5, 6)])
    c = Matching.from_edges([(1, 3), (2, 4)])
    assert intersects(a, b)
    assert not intersects(a, c)  # shared vertices only


@pytest.mark.parametrize("n", range(1, 5))
def test_enumeration_matches_naive(n):
    for r in range(1, n + 1):
        ours = {frozenset(m.edges) for m in enumerate_matchings(Parameters(n, r))}
        reference = set(naive_matchings(2 * n, r))
        assert ours == reference


def test_enumeration_is_sorted_and_unique():
    out = enumerate_matchings(Parameters(3, 2))
    assert out == sorted(out, key=lambda m: m.edges)
    assert len(set(out)) == len(out)


def test_chi_frozen_values():
    assert chi(Parameters(2, 2)) == 3
    assert chi(Parameters(3, 2)) == 45
    assert chi(Parameters(3, 3)) == 15
    assert chi(Parameters(4, 1)) == 28


def test_phi_frozen_values():
    assert phi(Parameters(3, 2)) == 6
    assert phi(Parameters(4, 2)) == 15
    assert phi(Parameters(4, 3)) == 45
    for n in range(1, 6):
        assert phi(Parameters(n, 1)) == 1


@pytest.mark.parametrize("n", range(1, 7))
def test_phi_chi_identity(n):
    # phi * C(2n, 2) = r * chi: pick a matching by choosing an edge last
    for r in range(1, n + 1):
        params = Parameters(n, r)
        assert phi(params) * math.comb(2 * n, 2) == r * chi(params)


@pytest.mark.parametrize("n,r", [(2, 1), (3, 1), (3, 2), (4, 2)])
def test_chi_equals_enumeration(n, r):
    params = Parameters(n, r)
    assert chi(params) == len(enumerate_matchings(params))


def test_star_family_size_and_membership():
    params = Parameters(3, 2)
    family = star_family(params, (1, 2))
    assert len(family) == phi(params)
    assert all((1, 2) in m for m in family)
    assert family.is_intersecting
    # every edge's star is the filtered enumeration
    for n in range(1, 5):
        for r in range(1, n + 1):
            params = Parameters(n, r)
            matchings = enumerate_matchings(params)
            for edge in all_edges(n):
                expected = [m for m in matchings if edge in m]
                assert list(star_family(params, edge)) == expected


def test_star_family_canonicalizes_edge():
    params = Parameters(3, 2)
    assert star_family(params, (2, 1)) == star_family(params, (1, 2))
    with pytest.raises(ValueError):
        star_family(params, (1, 9))


def test_family_dedup_and_size_checks():
    a = Matching.from_edges([(1, 2), (3, 4)])
    b = Matching.from_edges([(3, 4), (1, 2)])
    family = MatchingFamily([a, b])
    assert len(family) == 1
    assert family.r == 2
    with pytest.raises(ValueError):
        MatchingFamily([a, Matching.from_edges([(1, 2)])])
    with pytest.raises(ValueError):
        MatchingFamily([a], r=3)


def test_family_intersecting_detection():
    triangle = MatchingFamily(
        [
            Matching.from_edges([(1, 2), (3, 4)]),
            Matching.from_edges([(3, 4), (5, 6)]),
            Matching.from_edges([(1, 2), (5, 6)]),
        ]
    )
    assert triangle.is_intersecting
    broken = MatchingFamily(
        [
            Matching.from_edges([(1, 2), (3, 4)]),
            Matching.from_edges([(1, 3), (2, 4)]),
        ]
    )
    assert not broken.is_intersecting


@pytest.mark.parametrize(
    "members",
    [
        [],
        [Matching.from_edges([(1, 2), (3, 4)])],
        list(star_family(Parameters(4, 3), (2, 7))),
        # pairwise intersecting without a common edge: decided pair by pair
        [
            Matching.from_edges([(1, 2), (3, 4)]),
            Matching.from_edges([(3, 4), (5, 6)]),
            Matching.from_edges([(1, 2), (5, 6)]),
        ],
    ],
    ids=["empty", "one-member", "star", "triangle"],
)
def test_family_intersecting_matches_pairwise_check(members):
    family = MatchingFamily(members)
    pairwise = all(intersects(a, b) for a, b in itertools.combinations(family.members, 2))
    assert pairwise
    assert family.is_intersecting is True


@given(st.lists(st.sampled_from(all_edges(3)), min_size=1, max_size=3, unique=True))
def test_from_edges_idempotent(edges):
    support = {v for e in edges for v in e}
    if len(support) != 2 * len(edges):
        with pytest.raises(ValueError):
            Matching.from_edges(edges)
    else:
        m = Matching.from_edges(edges)
        assert Matching.from_edges(m.edges) == m
        assert m.edges == tuple(sorted(edges))


_matchings_42 = enumerate_matchings(Parameters(4, 2))
_families_42 = st.one_of(
    st.lists(st.sampled_from(_matchings_42), min_size=1, max_size=6),
    st.sampled_from(all_edges(4)).flatmap(  # members of one star: a common edge
        lambda e: st.lists(
            st.sampled_from([m for m in _matchings_42 if e in m.edges]), min_size=1, max_size=6
        )
    ),
)


@given(_families_42)
@example([Matching(((1, 2), (3, 4))), Matching(((1, 3), (2, 4)))])  # no common edge
def test_common_edges_are_the_key_intersection(members):
    common = common_edges(members)
    assert frozenset(common) == frozenset.intersection(*(frozenset(m.edges) for m in members))
    assert all(a < b for a, b in zip(common, common[1:]))


_special_floats = st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 1e300, -2.5])
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(10**60), max_value=10**60),
    st.floats(),
    _special_floats,
    st.text(),
)
# rows of ints, sometimes with a bool, a float or a nested list among them
_row_items = st.one_of(st.integers(min_value=-(10**40), max_value=10**40), st.booleans(), _special_floats)
_rows = st.one_of(
    st.lists(st.lists(st.integers(), max_size=4), max_size=6),
    st.lists(st.tuples(st.integers(), st.integers()), max_size=6),
    st.lists(st.lists(_row_items, max_size=3) | st.tuples(_row_items, _row_items), max_size=6),
)
_keys = st.one_of(st.text(), st.integers(), st.floats(), st.booleans(), st.none())
_json_trees = st.recursive(
    _scalars | _rows,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(_keys, children, max_size=5),
    ),
    max_leaves=40,
)


@settings(max_examples=200)
@given(_json_trees)
@example([[True, 1], [2, 3]])
@example([[1, 2], [3], [], (4, 5, 6)])
@example({"tab\t": ["quote\"", "back\\slash", "\u00e9t\u00e9 \u2713 \U0001f600", "\x00\x1f"]})
@example([[], ()])
@example({1: [[-(10**50), 10**50]], 2.5: {}, True: [], None: ()})
@example({"rows": [[1, 2], [3], [], (4, 5, 6), [7, 8], [9], (10, 11)]})
@example([[[1, 2], [3, 4]], [(5, 6)], [], [[7, 8], [9, 10], [11, 12]]])
@example([[1, 2], [[3, 4]], [5, 6], [7, [8]]])
def test_dumps_indented_matches_json(value):
    # the pieces of iter_indented, joined, are exactly json.dumps(value, indent=2)
    expected = json.dumps(value, indent=2)
    assert "".join(iter_indented(value)) == expected
    # three rows per block puts block boundaries inside the short row lists drawn here
    with mock.patch.object(core, "_BLOCK_ROWS", 3):
        assert "".join(iter_indented(value)) == expected


def test_dumps_indented_rejects_keys_json_rejects():
    with pytest.raises(TypeError):
        json.dumps({(1, 2): 0}, indent=2)
    with pytest.raises(TypeError):
        "".join(iter_indented({(1, 2): 0}))
