"""Compatibility, traces, the closed-form count, and the double count."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from ekr_matchings.baranyai import (
    Permutation,
    cyclic_order,
    position_pairs,
    rotation_classes,
    sample_permutations,
)
from ekr_matchings.core import (
    Matching,
    MatchingFamily,
    Parameters,
    chi,
    common_edges,
    enumerate_matchings,
    first_matching,
    star_family,
)
from ekr_matchings import katona
from ekr_matchings.katona import (
    compatible_member_keys,
    member_windows,
    q_bruteforce,
    q_formula,
    star_placements,
    star_trace_sizes,
    verify_double_count,
)
from ekr_matchings.transposition_lab import center_map

from oracles import (
    frozenset_window_scan,
    full_sweep,
    naive_compatible,
    naive_q,
    naive_q_counts,
    naive_trace,
    trace,
)


def triangle_family():
    # pairwise intersecting without a common edge
    return MatchingFamily(
        [
            Matching.from_edges([(1, 2), (3, 4)]),
            Matching.from_edges([(3, 4), (5, 6)]),
            Matching.from_edges([(1, 2), (5, 6)]),
        ]
    )


def edge_sets(members):
    """Each member's edges as a frozenset: the order-free format of the oracles."""
    return {frozenset(m.edges) for m in members}


def order_windows(sigma, r):
    """The n(2n-1) runs of r consecutive edges of sigma's cyclic order, wrapping, as matchings."""
    order = cyclic_order(sigma)
    wrapped = order + order[: r - 1]
    return [Matching.from_edges(wrapped[start : start + r]) for start in range(len(order))]


def test_every_extracted_interval_is_compatible():
    for sigma in (Permutation.identity(8), Permutation((3, 7, 1, 5, 8, 2, 6, 4))):
        for r in (1, 2, 3):
            windows = MatchingFamily(order_windows(sigma, r))
            assert len(windows) == 4 * 7
            assert trace(windows, sigma).members == windows.members


def test_compatible_member_keys_matches_naive():
    params = Parameters(3, 2)
    family = MatchingFamily(enumerate_matchings(params))
    windows = member_windows(3, 2, family)
    for sigma in sample_permutations(6, 25, seed=11):
        found = edge_sets(map(windows.get, compatible_member_keys(sigma.images, 3, 2, windows)))
        assert found == set(naive_trace(edge_sets(family), sigma.images, 3))


def two_of_triangle(params):
    """The r-matchings holding two of 12, 34, 56: intersecting, with no common edge.

    At r = 2 this is triangle_family().
    """
    triangle = {(1, 2), (3, 4), (5, 6)}
    members = [m for m in enumerate_matchings(params) if len(triangle.intersection(m.edges)) >= 2]
    return MatchingFamily(members, r=params.r)


def test_two_of_triangle_is_a_non_star_intersecting_family():
    assert two_of_triangle(Parameters(3, 2)) == triangle_family()
    family = two_of_triangle(Parameters(4, 3))
    assert family.is_intersecting
    assert not frozenset.intersection(*edge_sets(family))


def trace_families(params):
    """A star, every r-matching, a non-star intersecting family (r >= 2), and the empty family."""
    n, r = params.n, params.r
    families = [
        star_family(params, (2, 2 * n)),
        MatchingFamily(enumerate_matchings(params)),
        MatchingFamily([], r=r),
    ]
    if r >= 2:
        families.append(two_of_triangle(params))
    return families


@pytest.mark.parametrize("n,r", [(n, r) for n in (2, 3, 4) for r in range(1, n)])
def test_window_reader_matches_oracles_on_every_rotation_class(n, r):
    families = trace_families(Parameters(n, r))
    everything = families[1]
    tables = [(family, member_windows(n, r, family)) for family in families]
    assert [len(windows) for _, windows in tables] == [len(family) for family in families]
    for count, images in enumerate(rotation_classes(2 * n)):
        # every window is an r-matching, so scanning every r-matching finds every
        # window, the r-1 that wrap past position n(2n-1) included
        every_window = frozenset_window_scan(images, n, r, edge_sets(everything))
        assert len(every_window) == n * (2 * n - 1)
        for family, windows in tables:
            found = edge_sets(map(windows.get, compatible_member_keys(images, n, r, windows)))
            assert found == every_window & edge_sets(family)
            if family is not everything or count % 97 == 0:
                assert found == set(naive_trace(edge_sets(family), images, n))


@pytest.mark.parametrize("n", [6, 7])
def test_window_reader_matches_oracles_on_sampled_permutations(n):
    sigmas = list(sample_permutations(2 * n, 6, seed=n))
    for r in (1, n - 1):
        seen = MatchingFamily(a for sigma in sigmas[:2] for a in order_windows(sigma, r))
        substar = MatchingFamily((m for m in seen if (1, 2) in m), r=r)
        assert len(substar) >= r
        for family in (seen, substar, MatchingFamily([], r=r)):
            windows = member_windows(n, r, family)
            for sigma in sigmas:
                hits = compatible_member_keys(sigma.images, n, r, windows)
                found = edge_sets(map(windows.get, hits))
                assert found == frozenset_window_scan(sigma.images, n, r, edge_sets(family))
                assert found == set(naive_trace(edge_sets(family), sigma.images, n))


def test_member_windows_rejects_foreign_members():
    with pytest.raises(ValueError):
        member_windows(3, 2, [Matching.from_edges([(1, 2)])])
    with pytest.raises(ValueError):
        member_windows(3, 2, [Matching.from_edges([(1, 2), (3, 8)])])


def test_q_formula_frozen_values():
    assert q_formula(Parameters(2, 1)).formula_value == 24
    assert q_formula(Parameters(3, 1)).formula_value == 720
    count = q_formula(Parameters(3, 2))
    assert count.formula_value == 240
    assert count.split == (80, 160)
    assert q_formula(Parameters(4, 1)).formula_value == math.factorial(8)


def test_q_formula_rejects_perfect_matchings():
    with pytest.raises(ValueError):
        q_formula(Parameters(3, 3))


def test_q_single_edge_is_everything():
    # every permutation's order contains every edge, so q = (2n)! at r=1
    for n in (2, 3, 4):
        assert q_formula(Parameters(n, 1)).formula_value == math.factorial(2 * n)


def test_global_double_count_identity():
    # summing q over all r-matchings counts (permutation, position) pairs
    for n in range(2, 7):
        for r in range(1, n):
            params = Parameters(n, r)
            total = chi(params) * q_formula(params).formula_value
            assert total == math.factorial(2 * n) * n * (2 * n - 1)


@pytest.mark.parametrize("n,r", [(2, 1), (3, 1), (3, 2), (4, 1), (4, 2), (4, 3)])
def test_interval_positions_hit_distinct_matchings(n, r):
    # the n(2n-1) r-intervals of a cyclic order are pairwise distinct as sets
    params = Parameters(n, r)
    family = MatchingFamily(enumerate_matchings(params))
    windows = member_windows(n, r, family)
    sigmas = [Permutation.identity(2 * n), *sample_permutations(2 * n, 5, seed=23)]
    for sigma in sigmas:
        assert trace(family, sigma, windows).size == n * (2 * n - 1)


def test_q_bruteforce_matches_naive_oracle():
    a = Matching.from_edges([(1, 2)])
    assert q_bruteforce(a, Parameters(2, 1)) == naive_q(a.edges, 2) == 24
    b = Matching.from_edges([(2, 5), (3, 6)])
    assert q_bruteforce(b, Parameters(3, 2)) == naive_q(b.edges, 3) == 240


@pytest.mark.parametrize("n", [2, 3, 4])
def test_q_bruteforce_matches_naive_sweep(n):
    # for each r, the first matching and one through vertex 2n, the root of the identity
    matchings = []
    for r in range(1, n):
        matchings.append(Matching.from_edges((2 * t + 1, 2 * t + 2) for t in range(r)))
        matchings.append(Matching.from_edges([(1, 2 * n), *((2 * t, 2 * t + 1) for t in range(1, r))]))
    expected = naive_q_counts([a.edges for a in matchings], n)
    assert [q_bruteforce(a, Parameters(n, len(a))) for a in matchings] == expected


@pytest.mark.parametrize("r", [3, 4])
def test_q_bruteforce_parallel_agrees_at_n5(r):
    params = Parameters(5, r)
    a = Matching.from_edges([(1, 10), *((2 * t, 2 * t + 1) for t in range(1, r))])
    assert q_bruteforce(a, params) == q_formula(params).formula_value


def test_q_bruteforce_exhaustive_over_matchings_n3():
    params = Parameters(3, 2)
    expected = q_formula(params).formula_value
    for a in enumerate_matchings(params):
        assert q_bruteforce(a, params) == expected


def test_q_bruteforce_guards():
    with pytest.raises(ValueError, match=r"^matching has 1 edges, expected r = 2$"):
        q_bruteforce(Matching.from_edges([(1, 2)]), Parameters(3, 2))
    with pytest.raises(ValueError, match=r"^compatibility needs r <= n-1, got r=3, n=3$"):
        q_bruteforce(first_matching(3), Parameters(3, 3))
    with pytest.raises(ValueError, match=r"^matching uses vertices outside 1\.\.6$"):
        q_bruteforce(Matching.from_edges([(1, 8)]), Parameters(3, 1))


def test_trace_star_worked_example():
    params = Parameters(4, 2)
    family = star_family(params, (7, 8))
    result = trace(family, Permutation.identity(8))
    assert result.size == 2
    assert result.saturated
    assert result.center == (7, 8)
    assert not result.katona_violation
    assert all((7, 8) in m for m in result.members)


def test_trace_full_family_has_no_violation_flag():
    # all 15 positions hit distinct matchings, but the family is not
    # intersecting, so the size bound does not apply
    params = Parameters(3, 2)
    family = MatchingFamily(enumerate_matchings(params))
    result = trace(family, Permutation.identity(6))
    assert result.size == 15
    assert not result.katona_violation
    assert result.center is None


def test_trace_members_are_compatible():
    params = Parameters(3, 2)
    family = star_family(params, (2, 4))
    windows = member_windows(params.n, params.r, family)
    for sigma in sample_permutations(6, 40, seed=5):
        result = trace(family, sigma, windows)
        assert result.size <= params.r  # Katona bound for intersecting families
        for member in result.members:
            assert naive_compatible(member.edges, sigma.images, params.n)
        if result.saturated:
            assert result.center is not None
            assert all(result.center in m for m in result.members)


@pytest.mark.parametrize("n,r", [(3, 2), (4, 2), (4, 3)])
def test_trace_center_matches_the_common_edge_rule(n, r):
    # the AND of the hit masks against the common edges of the traced members
    families = trace_families(Parameters(n, r))
    tables = [member_windows(n, r, family) for family in families]
    for images in rotation_classes(2 * n):
        sigma = Permutation(images)
        for family, windows in zip(families, tables):
            result = trace(family, sigma, windows)
            common = common_edges(result.members) if result.size == r else ()
            expected = common[0] if family.is_intersecting and len(common) == 1 else None
            assert result.center == expected


def test_trace_empty_family():
    result = trace(MatchingFamily([]), Permutation.identity(6))
    assert result.size == 0
    assert not result.saturated


def test_double_count_star_tight():
    params = Parameters(3, 2)
    report = verify_double_count(params, (1, 2))
    assert report.q_value == 240
    assert report.weighted_count == 1440
    assert report.bound == 2 * math.factorial(6) == 1440
    assert report.tight
    assert report.sweep_total == 1440
    assert report.sweep_max_trace == 2
    assert report.passed


def test_double_count_triangle_not_tight():
    # the closed form is a whole star's, so the triangle is swept in full
    params = Parameters(3, 2)
    full = full_sweep(triangle_family(), 3, 2)
    assert full.total == 3 * q_formula(params).formula_value == 720
    assert full.total < 2 * math.factorial(6)  # the bound holds and is not tight
    assert full.largest <= 2
    assert full.member_counts == (240,) * 3


def test_double_count_rejects_edges_outside_the_graph():
    # the edge is checked first, so a bad --edge is reported before r
    for params, edge, message in (
        (Parameters(3, 2), (1, 7), "out of range 1..6"),
        (Parameters(3, 2), (0, 2), "1-based"),
        (Parameters(3, 2), (4, 4), "loops"),
        (Parameters(3, 3), (1, 99), "out of range 1..6"),
        (Parameters(9, 7), (1, 99), "out of range 1..18"),
    ):
        with pytest.raises(ValueError, match=message):
            verify_double_count(params, edge)


def test_double_count_sweeps_past_ten_points():
    # the window scan takes n(2n-1) steps whatever the size of S_{2n}
    for n, r in ((7, 6), (9, 7)):
        report = verify_double_count(Parameters(n, r), (3, 2 * n))
        assert report.sweep_total == r * math.factorial(2 * n) == report.weighted_count
        assert report.sweep_max_trace == r
        assert report.passed


@settings(max_examples=15, deadline=None)
@given(st.sets(st.integers(0, 5), min_size=1, max_size=6))
def test_double_count_substars(indices):
    # arbitrary subfamilies of a star stay intersecting; the full sweep's totals
    # match q times the subfamily size exactly, and the whole star's total is
    # verify_double_count's
    params = Parameters(3, 2)
    star = star_family(params, (1, 2))
    family = MatchingFamily([star.members[i] for i in sorted(indices)])
    full = full_sweep(family, 3, 2)
    assert full.total == 240 * len(family)
    assert full.largest <= 2
    assert full.member_counts == (240,) * len(family)
    if family == star:
        report = verify_double_count(params, (1, 2))
        assert report.sweep_total == full.total
        assert report.passed


@pytest.mark.parametrize("n,r", [(3, 2), (4, 2)])
def test_position_quotient_matches_full_sweep(n, r):
    params = Parameters(n, r)
    matchings = [Matching.from_edges([(1, 2), (3, 4)]), Matching.from_edges([(2, 5), (3, 2 * n)])]
    assert [q_bruteforce(a, params) for a in matchings] == naive_q_counts([a.edges for a in matchings], n)
    star = star_family(params, (1, 2 * n))
    report = verify_double_count(params, (1, 2 * n))
    full = full_sweep(star, n, r)
    assert report.sweep_total == full.total
    assert report.sweep_max_trace == full.largest
    assert full.member_counts == (report.q_value,) * len(star)
    # no star, so only the full sweep reads it
    q = q_formula(params).formula_value
    triangle = full_sweep(triangle_family(), n, r)
    assert (triangle.total, triangle.member_counts) == (3 * q, (q,) * 3)
    assert triangle.largest <= r


# stars at (1, 2), (2, 2n-1) and (3, 2n): the last runs through the root vertex 2n
STAR_SWEEP_CASES = [
    (n, r, edge) for n in (2, 3, 4) for r in range(1, n) for edge in ((1, 2), (2, 2 * n - 1), (3, 2 * n))
]


@pytest.mark.parametrize(
    "n,r,edge", STAR_SWEEP_CASES, ids=[f"{n}-{r}-{a},{b}" for n, r, (a, b) in STAR_SWEEP_CASES]
)
def test_star_sweeps_match_full_sweep(n, r, edge):
    # the window scan's trace size at each position of the star's edge stands for all of S_{2n}
    params = Parameters(n, r)
    family = star_family(params, edge)
    full = full_sweep(family, n, r)
    report = verify_double_count(params, edge)
    assert report.sweep_total == full.total == report.weighted_count
    assert report.sweep_max_trace == full.largest == r
    assert full.member_counts == (report.q_value,) * len(family)
    assert report.passed
    result = center_map(params, edge)
    assert result.saturated == full.saturated == math.factorial(2 * n)
    assert result.violation_count == 0
    assert result.centers == full.centers == {edge}


@pytest.mark.parametrize("n", [2, 3, 4])
def test_star_trace_sizes_match_the_traces_at_each_placement(n):
    # at r = n some windows repeat a vertex, so the scan's sizes fall short of r;
    # at r <= n-1 none does
    for r in range(1, n + 1):
        params = Parameters(n, r)
        edge = (2, 2 * n - 1)
        family = star_family(params, edge)
        windows = member_windows(n, r, family)
        sizes = star_trace_sizes(n, r)
        traced = [len(compatible_member_keys(images, n, r, windows)) for images in star_placements(n, edge)]
        assert list(sizes) == traced
        assert (min(sizes) == r) == (r < n)
        if r == n:
            assert sum(sizes) * 2 * math.factorial(2 * n - 2) == full_sweep(family, n, r).total


def test_star_trace_sizes_drop_each_failing_window_from_the_positions_it_covers(monkeypatch):
    # the running count against the r cells summed at each position, for every
    # 1 <= r < n <= 12, under the real scan and under scans failing chosen starts
    real = katona.window_repeats
    for n in range(2, 13):
        total = n * (2 * n - 1)
        for r in range(1, n):
            for failing in (real(position_pairs(n), 2 * n, r, total), [1], [1, 3], [2, 5, 6], [total],
                            list(range(1, total + 1))):
                monkeypatch.setattr(katona, "window_repeats", lambda *args, failing=failing: failing)
                expected = tuple(
                    r - sum((p - k) % total + 1 in failing for k in range(r)) for p in range(total)
                )
                assert star_trace_sizes(n, r) == expected, (n, r, failing)


def not_whole_stars(params):
    """Families that are no whole star: none sweeps to a whole star's figures.

    The star at (1, 2) less one member, a non-star intersecting family, that
    star with one member swapped for a matching that avoids (1, 2), and the
    empty family.
    """
    star = star_family(params, (1, 2))
    avoiding = next(m for m in enumerate_matchings(params) if not {1, 2} & {v for e in m.edges for v in e})
    return {
        "star-less-one": MatchingFamily(star.members[1:], r=params.r),
        "two-of-triangle": two_of_triangle(params),
        "star-with-one-swapped": MatchingFamily([*star.members[1:], avoiding], r=params.r),
        "empty": MatchingFamily([], r=params.r),
    }


@pytest.mark.parametrize("n,r", [(3, 2), (4, 3)])
@pytest.mark.parametrize("kind", ["star-less-one", "two-of-triangle", "star-with-one-swapped", "empty"])
def test_star_sweeps_reject_anything_but_a_whole_star(n, r, kind):
    # the star sweeps take an edge, not a family, and give the whole star's
    # figures: any other family sweeps to another total, or leaves some
    # permutation without a saturated trace
    params = Parameters(n, r)
    family = not_whole_stars(params)[kind]
    if kind == "star-with-one-swapped":
        assert len(family) == len(star_family(params, (1, 2)))
    full = full_sweep(family, n, r)
    report = verify_double_count(params, (1, 2))
    result = center_map(params, (1, 2))
    assert (report.sweep_total, result.saturated) == (report.weighted_count, math.factorial(2 * n))
    assert (full.total, full.saturated) != (report.sweep_total, result.saturated)
