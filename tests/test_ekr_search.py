"""Exact maximum-family search, uniqueness enumeration, and the bridge."""

import math
import time

import pytest

from ekr_matchings import ekr_search
from ekr_matchings.core import (
    Matching,
    MatchingFamily,
    Parameters,
    enumerate_matchings,
    intersects,
    phi,
)
from ekr_matchings.ekr_search import (
    STATUS_BUDGET,
    STATUS_PROVEN,
    SearchBudget,
    _Counter,
    _enumerate_cliques_of_size,
    _expand,
    intersection_graph,
    is_star,
    kneser_complement_bridge,
    max_intersecting,
    verify_theorem,
)


@pytest.mark.parametrize(
    "n,r", [(n, r) for n in range(1, 6) for r in range(1, n + 1)]
)
def test_intersection_graph_is_regular(n, r):
    # S_{2n} acts transitively on r-matchings, so every row has one popcount
    rows = intersection_graph(enumerate_matchings(Parameters(n, r)))
    assert len({row.bit_count() for row in rows}) == 1


def test_intersection_graph_degrees():
    matchings = enumerate_matchings(Parameters(3, 2))
    adjacency = intersection_graph(matchings)
    assert len(adjacency) == 45
    # {a, b} meets 5 other matchings through a and 5 through b
    assert all(row.bit_count() == 10 for row in adjacency)
    for i, a in enumerate(matchings):
        for j, b in enumerate(matchings):
            expected = i != j and intersects(a, b)
            assert bool(adjacency[i] >> j & 1) == expected


@pytest.mark.parametrize("n,r", [(2, 1), (3, 1), (3, 2), (4, 1)])
def test_max_is_phi_small(n, r):
    params = Parameters(n, r)
    report = max_intersecting(params)
    assert report.status == STATUS_PROVEN
    assert report.max_size == phi(params)
    witness = report.witnesses[0]
    assert len(witness) == report.max_size
    assert witness.is_intersecting


@pytest.mark.parametrize(
    "n,r,bound_nodes,enum_nodes",
    [(3, 2, 2, 33), (4, 2, 1, 212), (4, 3, 2, 2993), (4, 4, 3, 433)],
)
def test_search_nodes_pinned(n, r, bound_nodes, enum_nodes):
    params = Parameters(n, r)
    assert max_intersecting(params).search_nodes == bound_nodes
    enumerated = max_intersecting(params, SearchBudget(enumerate_all_maximum=True))
    assert enumerated.search_nodes == enum_nodes


@pytest.mark.parametrize(
    "n,r", [(n, r) for n in range(1, 5) for r in range(1, n + 1)] + [(5, 2)]
)
def test_reduced_search_matches_unreduced(n, r):
    # the full-graph search, unseeded, is the oracle for the search inside N(v0)
    params = Parameters(n, r)
    matchings = enumerate_matchings(params)
    adjacency = intersection_graph(matchings)
    counter = _Counter(SearchBudget())
    best: list[list[int]] = [[]]
    _expand(adjacency, [], (1 << len(matchings)) - 1, best, counter)
    cliques = _enumerate_cliques_of_size(adjacency, len(best[0]), counter)
    expected = {frozenset(matchings[v].key for v in clique) for clique in cliques}

    report = max_intersecting(params, SearchBudget(enumerate_all_maximum=True))
    assert report.status == STATUS_PROVEN
    assert report.max_size == len(best[0])
    assert report.maximum_family_count == len(cliques)
    assert {frozenset(m.key for m in fam.members) for fam in report.witnesses} == expected


def test_non_star_maxima_are_reported(monkeypatch):
    # no instance has non-star maxima, so make the star test fail instead
    monkeypatch.setattr(ekr_search, "is_star", lambda family: None)
    params = Parameters(3, 2)
    report = max_intersecting(params, SearchBudget(enumerate_all_maximum=True))
    assert report.status == STATUS_PROVEN
    assert report.all_maximum_are_stars is False
    assert report.maximum_family_count == 15  # still the double count
    assert not report.uniqueness_confirmed
    # the witnesses are the maximum families through v0, one per edge of v0
    v0 = enumerate_matchings(params)[0]
    assert len(report.witnesses) == params.r
    assert all(v0 in fam.members and len(fam) == 6 for fam in report.witnesses)


def test_max_perfect_matchings_single():
    # r = n: distinct perfect matchings of K_4 never share an edge
    report = max_intersecting(Parameters(2, 2))
    assert report.max_size == 1 == phi(Parameters(2, 2))


def test_enumeration_n3_all_stars():
    report = verify_theorem(Parameters(3, 2))
    assert report.status == STATUS_PROVEN
    assert report.max_size == 6
    assert report.maximum_family_count == 15
    assert report.maximum_family_count == report.expected_maximum_count
    assert report.all_maximum_are_stars
    assert report.uniqueness_confirmed
    centers = {is_star(fam) for fam in report.witnesses}
    assert len(centers) == 15  # one star per edge of K_6
    assert None not in centers


def test_enumeration_trivial_r1():
    # 1-matchings intersect only when equal: maxima are the singletons
    report = verify_theorem(Parameters(3, 1))
    assert report.max_size == 1
    assert report.maximum_family_count == 15
    assert report.all_maximum_are_stars


def test_budget_exhaustion_reports_partial():
    # the bound search at (5,5) takes 19 nodes
    report = max_intersecting(Parameters(5, 5), SearchBudget(max_nodes=5))
    assert report.status == STATUS_BUDGET
    assert report.max_size >= phi(Parameters(5, 5))  # star seed incumbent
    assert report.witnesses[0].is_intersecting
    assert not report.proven


def test_deadline_binds_enumeration():
    # enumerating every maximum family at (6,3) takes tens of seconds
    start = time.monotonic()
    report = max_intersecting(
        Parameters(6, 3), SearchBudget(max_seconds=1.0, enumerate_all_maximum=True)
    )
    assert report.status == STATUS_BUDGET
    assert time.monotonic() - start < 1.5
    assert report.max_size == phi(Parameters(6, 3))


def test_deadline_binds_graph_build():
    # building the (6,4) intersection graph on 51 975 matchings takes about a second
    start = time.monotonic()
    report = max_intersecting(Parameters(6, 4), SearchBudget(max_seconds=0.5))
    assert report.status == STATUS_BUDGET
    assert time.monotonic() - start < 1.0
    assert report.max_size == phi(Parameters(6, 4))


def test_budget_validation():
    with pytest.raises(ValueError):
        SearchBudget(max_nodes=0)
    with pytest.raises(ValueError):
        SearchBudget(max_seconds=0)


def test_is_star():
    star = MatchingFamily(
        [
            Matching.from_edges([(1, 2), (3, 4)]),
            Matching.from_edges([(1, 2), (5, 6)]),
        ]
    )
    assert is_star(star) == (1, 2)
    triangle = MatchingFamily(
        [
            Matching.from_edges([(1, 2), (3, 4)]),
            Matching.from_edges([(3, 4), (5, 6)]),
            Matching.from_edges([(1, 2), (5, 6)]),
        ]
    )
    assert is_star(triangle) is None
    with pytest.raises(ValueError):
        is_star(MatchingFamily([]))


def test_verify_theorem_rejects_perfect_matchings():
    with pytest.raises(ValueError):
        verify_theorem(Parameters(3, 3))


def test_bridge_n3():
    report = kneser_complement_bridge(Parameters(3, 2))
    assert report.vertex_count == 15
    assert report.independent_set_count == report.chi_value == 45
    assert report.bijection_ok
    assert report.star_sizes_ok
    assert report.strictly_ekr
    assert report.passed


def test_bridge_r1():
    report = kneser_complement_bridge(Parameters(2, 1))
    assert report.independent_set_count == math.comb(4, 2)
    assert report.bijection_ok and report.star_sizes_ok
    assert report.passed


def test_bridge_budget_exhaustion():
    # the theorem at (3,2) takes 33 nodes, the bridge enumeration 61
    params = Parameters(3, 2)
    budget = SearchBudget(max_nodes=40, enumerate_all_maximum=True)
    assert verify_theorem(params, budget).proven
    report = kneser_complement_bridge(params, budget)
    assert report.theorem.status == STATUS_BUDGET
    assert not report.bijection_ok
    assert report.strictly_ekr is None
    assert not report.passed
