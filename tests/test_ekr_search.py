"""Exact maximum-family search, the non-star search, and their budgets."""

import itertools
import math
import sys
import time
import types

import pytest

from ekr_matchings import cli, ekr_search
from ekr_matchings.core import (
    Matching,
    MatchingFamily,
    Parameters,
    all_edges,
    chi,
    enumerate_matchings,
    first_matching,
    intersects,
    iter_matchings,
    phi,
    star_family,
)
from ekr_matchings.ekr_search import (
    STATUS_BUDGET,
    STATUS_PROVEN,
    SearchBudget,
    _Counter,
    _edge_masks,
    _first_level_orbits,
    _mask_table,
    _neighbours,
    _neighbourhood_size,
    _non_star_through_v0,
    _search,
    intersection_graph,
    is_star,
    max_intersecting,
)
from ekr_matchings.kneser import kneser_graph
from oracles import full_graph_search, naive_cliques_through, naive_matchings


def star_sets(params, centers):
    """The stars at the centres, each a frozenset of edge sets: the format of the oracles."""
    return {frozenset(frozenset(m.edges) for m in star_family(params, c)) for c in centers}


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


@pytest.mark.parametrize(
    "n,r", [(n, r) for n in range(1, 6) for r in range(1, n + 1)]
)
def test_mask_table_neighbourhoods_are_the_rows(n, r):
    # the search reads each neighbourhood from the vertex's edge masks; the rows are the reference
    params = Parameters(n, r)
    for matchings in (enumerate_matchings(params), list(iter_matchings(params, first_matching(r)))):
        table = _mask_table(matchings, _edge_masks(matchings))
        rows = intersection_graph(matchings)
        assert [_neighbours(table, v) for v in range(len(matchings))] == rows


@pytest.mark.parametrize("n,r", [(2, 1), (3, 1), (3, 2), (4, 1)])
def test_max_is_phi_small(n, r):
    params = Parameters(n, r)
    report = max_intersecting(params)
    assert report.status == STATUS_PROVEN
    assert report.max_size == phi(params)
    witness = report.witness
    assert len(witness) == report.max_size
    assert witness.is_intersecting


@pytest.mark.parametrize(
    "n,r,bound_nodes,enum_nodes",
    [(3, 2, 2, 5), (4, 2, 1, 4), (4, 3, 2, 12), (4, 4, 3, 20)],
)
def test_search_nodes_pinned(n, r, bound_nodes, enum_nodes):
    params = Parameters(n, r)
    assert max_intersecting(params).search_nodes == bound_nodes
    enumerated = max_intersecting(params, SearchBudget(enumerate_all_maximum=True))
    assert enumerated.search_nodes == enum_nodes


@pytest.mark.parametrize("n,r,nodes,colourings", [(4, 3, 12, 5), (5, 4, 478, 80)])
def test_count_prune_skips_colourings(n, r, nodes, colourings, monkeypatch):
    # a node whose stack and candidates together cannot beat the incumbent
    # returns before it colours, after it ticks, so the node counts hold
    calls = []
    color_order = ekr_search._color_order
    monkeypatch.setattr(ekr_search, "_color_order", lambda *args: calls.append(1) or color_order(*args))
    report = max_intersecting(Parameters(n, r), SearchBudget(enumerate_all_maximum=True))
    assert (report.search_nodes, len(calls)) == (nodes, colourings)


@pytest.mark.parametrize(
    "n,r", [(n, r) for n in range(1, 5) for r in range(1, n + 1)] + [(5, 2)]
)
def test_reduced_search_matches_unreduced(n, r):
    # the full-graph search, unseeded, is the oracle for the search inside N(v0);
    # every maximum clique contains exactly one least member, naive[i], and the
    # stars at the reported centres are exactly those cliques
    params = Parameters(n, r)
    matchings = enumerate_matchings(params)
    table = _mask_table(matchings, _edge_masks(matchings))
    best: list[list[int]] = [[]]
    _search(table, [], [], (1 << len(matchings)) - 1, 0, best, _Counter(SearchBudget()))
    naive = naive_matchings(2 * n, r)
    cliques = [
        frozenset(clique)
        for i in range(len(naive))
        for clique in naive_cliques_through(naive[i:], len(best[0]))
    ]

    report = max_intersecting(params, SearchBudget(enumerate_all_maximum=True))
    assert report.status == STATUS_PROVEN
    assert report.max_size == len(best[0])
    assert report.maximum_family_count == len(cliques) == len(set(cliques))
    assert star_sets(params, report.centers) == set(cliques)


@pytest.mark.parametrize("n,r", [(n, r) for n in range(1, 7) for r in range(1, n + 1)])
def test_closed_neighbourhood_enumeration(n, r):
    # N[v0] is the filtered enumeration, in its order, and inclusion-exclusion counts it
    params = Parameters(n, r)
    everything = enumerate_matchings(params)
    for meeting in (first_matching(r), everything[-1]):
        expected = [m for m in everything if not set(m.edges).isdisjoint(meeting.edges)]
        assert list(iter_matchings(params, meeting)) == expected
    assert len(list(iter_matchings(params, first_matching(r)))) == _neighbourhood_size(params)


@pytest.mark.parametrize("n,r", [(n, r) for n in range(1, 6) for r in range(1, n + 1)])
def test_search_on_closed_neighbourhood_matches_full_graph(n, r, capsys, monkeypatch):
    params = Parameters(n, r)
    flags = ([], ["--enumerate-max"])
    for enumerate_all, flag in zip((False, True), flags):
        budget = SearchBudget(enumerate_all_maximum=enumerate_all)
        assert max_intersecting(params, budget) == full_graph_search(params, budget)
    argv = ["ekr-search", "--n", str(n), "--r", str(r)]
    codes = [cli.main(argv + flag) for flag in flags]
    outputs = capsys.readouterr().out
    monkeypatch.setattr(cli, "max_intersecting", full_graph_search)
    assert [cli.main(argv + flag) for flag in flags] == codes
    assert capsys.readouterr().out == outputs


def test_non_star_maxima_are_reported(planted_non_star):
    # the planted instance's maximum families are the star at (1, 2) and a triangle
    params = Parameters(3, 2)
    report = max_intersecting(params, SearchBudget(enumerate_all_maximum=True))
    assert report.status == STATUS_PROVEN
    assert report.all_maximum_are_stars is False
    assert report.maximum_family_count is None  # nothing was counted
    # the witness is the non-star family through v0 that the search found
    v0 = enumerate_matchings(params)[0]
    assert report.centers is None
    assert v0 in report.witness and len(report.witness) == report.max_size == 3
    assert is_star(report.witness) is None


def _graph(params):
    # the graph the search runs on: the mask table of the closed neighbourhood N[v0]
    matchings = list(iter_matchings(params, first_matching(params.r)))
    return matchings, _mask_table(matchings, _edge_masks(matchings))


@pytest.mark.parametrize(
    "n,r", [(n, r) for n in range(1, 5) for r in range(1, n + 1)] + [(5, 2), (5, 3)]
)
def test_non_star_search_matches_oracle(n, r):
    # the oracle lists every maximum family through v0; all of them are stars,
    # and they are the stars at the reported centres that hold v0
    params = Parameters(n, r)
    report = max_intersecting(params, SearchBudget(enumerate_all_maximum=True))
    naive = naive_matchings(2 * n, r)
    v0 = enumerate_matchings(params)[0]
    assert naive[0] == frozenset(v0.edges)
    families = {frozenset(f) for f in naive_cliques_through(naive, report.max_size)}
    assert report.all_maximum_are_stars is all(frozenset.intersection(*f) for f in families)
    assert report.all_maximum_are_stars
    through_v0 = {star for star in star_sets(params, report.centers) if naive[0] in star}
    assert through_v0 == families


@pytest.mark.parametrize(
    "n,r,top", [(3, 2, 6), (4, 2, 15), (4, 3, 10), (4, 4, 15), (5, 2, 6), (5, 3, 3)]
)
def test_non_star_search_at_lowered_targets(n, r, top):
    params = Parameters(n, r)
    matchings, table = _graph(params)
    naive = naive_matchings(2 * n, r)
    for target in range(1, top + 1):
        expected = any(
            not frozenset.intersection(*f) for f in naive_cliques_through(naive, target)
        )
        found = _non_star_through_v0(matchings, 2 * n, table, target, _Counter(SearchBudget()))
        assert (found is not None) == expected, target
        if found is not None:
            family = MatchingFamily(matchings[v] for v in found)
            assert len(family) == target
            assert matchings[0] in family
            assert family.is_intersecting
            assert is_star(family) is None


@pytest.mark.parametrize("n,r,target", [(5, 3, 40), (5, 4, 100)])
def test_non_star_search_finds_large_lowered_targets(n, r, target):
    matchings, table = _graph(Parameters(n, r))
    found = _non_star_through_v0(matchings, 2 * n, table, target, _Counter(SearchBudget()))
    family = MatchingFamily(matchings[v] for v in found)
    assert len(family) == target and matchings[0] in family
    assert family.is_intersecting
    assert is_star(family) is None


@pytest.mark.parametrize("n,r", [(2, 1), (2, 2), (3, 2), (3, 3), (4, 2), (4, 3), (4, 4)])
def test_first_level_orbits_are_stabiliser_orbits(n, r):
    # the stabiliser of v0 and e1 = (1, 2), by brute force over S_{2n}
    matchings, table = _graph(Parameters(n, r))
    first = _neighbours(table, 0) & ~table[0][0]  # table[0][0] is the mask of (1, 2)
    orbits = _first_level_orbits(matchings, first, 2 * n, math.inf)
    covered = 0
    for rep, mask in orbits:
        assert mask & covered == 0
        assert mask & -mask == 1 << rep
        covered |= mask
    assert covered == first
    assert [rep for rep, _ in orbits] == sorted(rep for rep, _ in orbits)

    index_of = {frozenset(m.edges): i for i, m in enumerate(matchings)}
    v0 = matchings[0].edges
    stabiliser = []
    for images in itertools.permutations(range(1, 2 * n + 1)):
        g = dict(zip(range(1, 2 * n + 1), images))
        if {g[1], g[2]} == {1, 2} and {frozenset((g[u], g[v])) for u, v in v0} == {
            frozenset(e) for e in v0
        }:
            stabiliser.append(g)
    for rep, mask in orbits:
        image_mask = 0
        for g in stabiliser:
            key = frozenset(
                (min(g[u], g[v]), max(g[u], g[v])) for u, v in matchings[rep].edges
            )
            image_mask |= 1 << index_of[key]
        assert image_mask == mask


def test_non_star_search_nests_at_most_r_plus_one_levels(monkeypatch):
    # the loop reads edge_bits[v] only on a branch of a node with a common edge,
    # once v has joined the clique, so the longest clique seen there is the depth
    search = ekr_search._search
    deepest = 0

    def tracked(table, edge_bits, clique, *args):
        class Recording(list):
            def __getitem__(self, v):
                nonlocal deepest
                deepest = max(deepest, len(clique))
                return super().__getitem__(v)

        return search(table, Recording(edge_bits), clique, *args)

    monkeypatch.setattr(ekr_search, "_search", tracked)
    for n, r, target in [(3, 2, 3), (4, 3, 10), (4, 4, 7), (5, 4, None)]:
        deepest = 0
        if target is None:
            report = max_intersecting(Parameters(n, r), SearchBudget(enumerate_all_maximum=True))
            assert report.all_maximum_are_stars
        else:
            matchings, table = _graph(Parameters(n, r))
            counter = _Counter(SearchBudget())
            assert _non_star_through_v0(matchings, 2 * n, table, target, counter)
        assert 2 <= deepest <= r + 1
        if target == 3:
            assert deepest == r + 1  # the triangle {12 34, 34 56, 12 56} needs every level


def test_non_star_search_runs_deeper_than_the_recursion_limit():
    # the Hilton-Milner size at (5,4): the family found has far more members than frames allowed
    matchings, table = _graph(Parameters(5, 4))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(100)
    try:
        found = _non_star_through_v0(matchings, 10, table, 149, _Counter(SearchBudget()))
    finally:
        sys.setrecursionlimit(limit)
    family = MatchingFamily(matchings[v] for v in found)
    assert len(family) == 149 and matchings[0] in family
    assert family.is_intersecting
    assert is_star(family) is None


def test_max_perfect_matchings_single():
    # r = n: distinct perfect matchings of K_4 never share an edge
    report = max_intersecting(Parameters(2, 2))
    assert report.max_size == 1 == phi(Parameters(2, 2))


def test_enumeration_n3_all_stars():
    report = max_intersecting(Parameters(3, 2), SearchBudget(enumerate_all_maximum=True))
    assert report.status == STATUS_PROVEN
    assert report.max_size == 6
    assert report.maximum_family_count == math.comb(6, 2)  # one star per edge of K_6
    assert report.all_maximum_are_stars
    assert report.centers == tuple(all_edges(3))
    stars = {star_family(Parameters(3, 2), center) for center in report.centers}
    assert len(stars) == 15  # one star per edge of K_6
    assert all(len(star) == report.max_size for star in stars)


@pytest.mark.parametrize(
    "n,r,centers",
    [(1, 1, ((1, 2),)), (2, 2, ((1, 2), (1, 3), (1, 4))), (3, 3, tuple(all_edges(3)))],
)
def test_degenerate_star_centres(n, r, centers):
    # at r = n = 2 the star at an edge is the star at its complement; at n = 1 there is
    # one matching; at r = n = 3 every edge spans its own star of three perfect matchings
    # (test_reduced_search_matches_unreduced checks these stars against the oracle)
    params = Parameters(n, r)
    report = max_intersecting(params, SearchBudget(enumerate_all_maximum=True))
    assert report.proven and report.all_maximum_are_stars
    assert report.centers == centers
    assert len(star_sets(params, centers)) == len(centers)


def test_enumeration_trivial_r1():
    # 1-matchings intersect only when equal: maxima are the singletons
    report = max_intersecting(Parameters(3, 1), SearchBudget(enumerate_all_maximum=True))
    assert report.max_size == 1
    assert report.maximum_family_count == 15
    assert report.all_maximum_are_stars


def test_budget_exhaustion_reports_partial():
    # the bound search at (5,5) takes 19 nodes
    report = max_intersecting(Parameters(5, 5), SearchBudget(max_nodes=5))
    assert report.status == STATUS_BUDGET
    assert report.max_size >= phi(Parameters(5, 5))  # star seed incumbent
    assert report.witness.is_intersecting
    assert not report.proven


def test_deadline_binds_enumeration():
    # at (6,4) the graph and the bound take about 0.3 s, the non-star search about 2.5 s
    start = time.monotonic()
    report = max_intersecting(
        Parameters(6, 4), SearchBudget(max_seconds=1.0, enumerate_all_maximum=True)
    )
    assert report.status == STATUS_BUDGET
    assert time.monotonic() - start < 1.5
    assert report.max_size == phi(Parameters(6, 4))


def test_deadline_binds_graph_build():
    # at (7,4) listing N[v0] takes about 0.2 s and building the edge masks and mask table
    # of its 51 771 matchings about 0.2 s more, so the deadline passes during the build
    start = time.monotonic()
    report = max_intersecting(Parameters(7, 4), SearchBudget(max_seconds=0.3))
    assert report.status == STATUS_BUDGET
    assert time.monotonic() - start < 1.0
    assert report.max_size == phi(Parameters(7, 4))


@pytest.mark.parametrize("k", [0, 1, 11, 209, 210])
def test_deadline_binds_the_seed_star_listing(monkeypatch, k):
    # the clock jumps past the deadline as the (k+1)-th matching of N[v0] is listed; the
    # star at (1, 2) is its first phi(5, 3) = 210 members, and its listed part is the witness
    params = Parameters(5, 3)
    budget = SearchBudget(max_seconds=60.0)
    offset = [0.0]
    clock = time.monotonic
    monkeypatch.setattr(ekr_search, "time", types.SimpleNamespace(monotonic=lambda: clock() + offset[0]))
    listed = ekr_search.iter_matchings
    pulled = []

    def jumping(params, meeting=None):
        for matching in listed(params, meeting):
            if len(pulled) == k:
                offset[0] = 2 * budget.max_seconds
            pulled.append(matching)
            yield matching

    monkeypatch.setattr(ekr_search, "iter_matchings", jumping)
    report = max_intersecting(params, budget)
    assert len(pulled) == k + 1  # the deadline is checked once per matching
    assert report.status == STATUS_BUDGET
    assert list(report.witness) == pulled[:k]
    assert report.max_size == k and report.search_nodes == 0
    assert all((1, 2) in m for m in report.witness)


@pytest.mark.parametrize("k", [0, 1, 100])
def test_deadline_binds_the_edge_bits_pass(monkeypatch, k):
    # the clock jumps past the deadline as the non-star search's first pass over N[v0],
    # which gives each matching its common-edge bits, reads the (k+1)-th matching;
    # the pass stops there, and the non-star search takes no node
    params = Parameters(5, 3)
    budget = SearchBudget(max_seconds=60.0, enumerate_all_maximum=True)
    offset = [0.0]
    clock = time.monotonic
    monkeypatch.setattr(ekr_search, "time", types.SimpleNamespace(monotonic=lambda: clock() + offset[0]))
    read = []

    class Jumping(list):
        def __iter__(self):
            for matching in list.__iter__(self):
                if len(read) == k:
                    offset[0] = 2 * budget.max_seconds
                read.append(matching)
                yield matching

    search = ekr_search._non_star_through_v0
    monkeypatch.setattr(ekr_search, "_non_star_through_v0", lambda matchings, *args: search(Jumping(matchings), *args))
    report = max_intersecting(params, budget)
    assert len(read) == k + 1  # the deadline is checked once per matching
    assert report.status == STATUS_BUDGET
    assert report.search_nodes == max_intersecting(params).search_nodes
    assert report.max_size == phi(params) and is_star(report.witness) == (1, 2)
    assert report.centers is None and report.all_maximum_are_stars is None


def test_deadline_binds_witness_rechecks(monkeypatch):
    # the clock runs out once the non-star search has ended; nothing after it reads
    # the clock, so the report is proven, and only the best witness is re-checked
    now = [0.0]
    monkeypatch.setattr(ekr_search, "time", types.SimpleNamespace(monotonic=lambda: now[0]))
    search = ekr_search._non_star_through_v0

    def search_then_time_out(*args):
        result = search(*args)
        now[0] = math.inf
        return result

    rechecks = []

    def counted_family(members):
        rechecks.append(1)
        return MatchingFamily(members)

    monkeypatch.setattr(ekr_search, "_non_star_through_v0", search_then_time_out)
    monkeypatch.setattr(ekr_search, "MatchingFamily", counted_family)
    params = Parameters(4, 2)
    report = max_intersecting(params, SearchBudget(enumerate_all_maximum=True))
    assert report.status == STATUS_PROVEN
    assert report.maximum_family_count == 28
    assert report.all_maximum_are_stars
    assert report.witness == star_family(params, (1, 2))
    assert len(rechecks) == 1  # the best witness only


def test_uniqueness_needs_no_budget_after_the_non_star_search(monkeypatch):
    # 0.3 s of budget is left once the non-star search ends, less than listing all
    # 278 460 matchings of (9,3) takes; the maximum families need no such listing
    offset = [0.0]
    clock = time.monotonic
    monkeypatch.setattr(ekr_search, "time", types.SimpleNamespace(monotonic=lambda: clock() + offset[0]))
    search = ekr_search._non_star_through_v0

    def search_then_shorten(*args):
        result = search(*args)
        counter = args[-1]
        offset[0] = counter.deadline - 0.3 - clock()
        return result

    monkeypatch.setattr(ekr_search, "_non_star_through_v0", search_then_shorten)
    params = Parameters(9, 3)
    report = max_intersecting(params, SearchBudget(enumerate_all_maximum=True))
    assert report.status == STATUS_PROVEN
    assert report.all_maximum_are_stars
    assert report.maximum_family_count == 153 == len(set(report.centers))
    assert is_star(report.witness) == (1, 2) and len(report.witness) == phi(params)


def test_enumerate_max_lists_the_matchings_once(monkeypatch, capsys):
    # N[v0] is the only listing: the maximum families come from their centres
    calls = []
    listed = ekr_search.iter_matchings

    def counted(*args):
        calls.append(args)
        return listed(*args)

    monkeypatch.setattr(ekr_search, "iter_matchings", counted)
    assert cli.main(["ekr-search", "--n", "5", "--r", "3", "--enumerate-max"]) == cli.EXIT_PASS
    assert '"maximum_families": 45' in capsys.readouterr().out
    assert len(calls) == 1


def test_mask_table_checks_the_deadline():
    matchings = enumerate_matchings(Parameters(3, 2))
    masks = _edge_masks(matchings)
    with pytest.raises(ekr_search._BudgetExceeded):
        _mask_table(matchings, masks, time.monotonic() - 1.0)


def test_colouring_checks_the_deadline():
    # a large colouring reads the clock once per colour class, not only at the next node
    matchings = enumerate_matchings(Parameters(3, 2))
    table = _mask_table(matchings, _edge_masks(matchings))
    everyone = (1 << len(matchings)) - 1
    order, bounds = ekr_search._color_order(everyone, table, math.inf)
    assert sorted(order) == list(range(len(matchings))) and bounds[-1] > 1
    with pytest.raises(ekr_search._BudgetExceeded):
        ekr_search._color_order(everyone, table, time.monotonic() - 1.0)


def test_budget_validation():
    with pytest.raises(ValueError, match=r"^max_nodes must be positive, got 0$"):
        SearchBudget(max_nodes=0, max_seconds=0)
    with pytest.raises(ValueError, match=r"^max_seconds must be positive, got 0$"):
        SearchBudget(max_seconds=0)
    with pytest.raises(ValueError, match=r"^max_seconds must be positive, got -1\.5$"):
        SearchBudget(max_seconds=-1.5)
    # nan > 0 is false, and so is every deadline test against nan
    with pytest.raises(ValueError, match=r"^max_seconds must be positive, got nan$"):
        SearchBudget(max_seconds=math.nan)
    assert SearchBudget(max_seconds=math.inf).max_seconds == math.inf  # the node budget still binds


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


@pytest.mark.parametrize("n,r", [(2, 1), (3, 2), (4, 2), (4, 3), (5, 2)])
def test_bridge_matches_naive_clique_count(n, r):
    # the r-matchings of K_{2n} are the r-cliques of the Kneser graph K(2n, 2), whose
    # vertices are the edges of K_{2n}, adjacent when disjoint; each lies in phi of them
    params = Parameters(n, r)
    graph = kneser_graph(2 * n)
    naive = {
        frozenset(clique)
        for clique in itertools.combinations(graph.vertices, r)
        if all(graph.adjacent(a, b) for a, b in itertools.combinations(clique, 2))
    }
    matchings = enumerate_matchings(params)
    assert {frozenset(m.edges) for m in matchings} == naive
    assert len(matchings) == len(naive) == chi(params)
    assert all(sum(v in m.edges for m in matchings) == phi(params) for v in graph.vertices)
