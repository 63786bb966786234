"""Swap identities and the center map."""

import itertools
import math

import pytest
from hypothesis import given, strategies as st

from ekr_matchings.baranyai import (
    Permutation,
    baranyai_edge,
    rooted_order,
    rotation_classes,
    sample_permutations,
)
from ekr_matchings.core import Parameters, star_family
from ekr_matchings import katona, transposition_lab
from ekr_matchings.katona import member_windows
from ekr_matchings.transposition_lab import (
    SWAP_IDENTITIES,
    center_map,
    composition_identity,
    reflect_swap,
    swap_identities,
    transpose_adjacent,
)

from oracles import full_sweep, trace


def permutations_of(two_n):
    return st.permutations(list(range(1, two_n + 1))).map(lambda p: Permutation(tuple(p)))


def test_transpose_adjacent_basic():
    assert transpose_adjacent(Permutation.identity(4), 1).images == (2, 1, 3, 4)
    sigma = Permutation((1, 2, 3, 4, 5, 6))
    assert transpose_adjacent(sigma, 1).images == (2, 1, 3, 4, 5, 6)
    assert transpose_adjacent(sigma, 5).images == (1, 2, 3, 4, 6, 5)
    with pytest.raises(ValueError):
        transpose_adjacent(sigma, 0)
    with pytest.raises(ValueError):
        transpose_adjacent(sigma, 6)


def test_reflect_swap_basic():
    # j=1 pairs position 1 with position 2n-1-j
    assert reflect_swap(Permutation.identity(8), 1).images == (6, 2, 3, 4, 5, 1, 7, 8)
    sigma = Permutation((1, 2, 3, 4, 5, 6))
    assert reflect_swap(sigma, 1).images == (4, 2, 3, 1, 5, 6)
    with pytest.raises(ValueError):
        reflect_swap(sigma, 0)
    with pytest.raises(ValueError):
        reflect_swap(sigma, 3)


@given(permutations_of(8), st.integers(1, 7))
def test_adjacent_swap_is_involution(sigma, j):
    assert transpose_adjacent(transpose_adjacent(sigma, j), j) == sigma


@given(permutations_of(8), st.integers(1, 3))
def test_reflect_swap_is_involution(sigma, j):
    assert reflect_swap(reflect_swap(sigma, j), j) == sigma


@given(permutations_of(8))
def test_boundary_swaps_coincide(sigma):
    n = 4
    assert transpose_adjacent(sigma, n - 1) == reflect_swap(sigma, n - 1)


def test_reflect_swap_preserves_last_part_exhaustive_n3():
    last = 5
    for images in itertools.permutations(range(1, 7)):
        sigma = Permutation(images)
        for j in (1, 2):
            swapped = reflect_swap(sigma, j)
            for k in range(3):
                assert baranyai_edge(swapped, last, k) == baranyai_edge(sigma, last, k)


def test_composition_identity_hand_checked():
    # n=4, j=5: T_5 applied to the identity swaps positions 5 and 6, and
    # the five-swap composition with j'=1 reproduces it
    sigma = Permutation.identity(8)
    assert transpose_adjacent(sigma, 5).images == (1, 2, 3, 4, 6, 5, 7, 8)
    assert composition_identity(sigma, 5)


def test_composition_identity_exhaustive_n4():
    for images in itertools.permutations(range(1, 9)):
        assert composition_identity(Permutation(images), 5)


def test_composition_identity_sampled_n5():
    for sigma in sample_permutations(10, 200, seed=23):
        for j in (6, 7):
            assert composition_identity(sigma, j)


def test_composition_identity_index_range():
    with pytest.raises(ValueError):
        composition_identity(Permutation.identity(8), 4)
    with pytest.raises(ValueError):
        composition_identity(Permutation.identity(8), 6)
    with pytest.raises(ValueError):
        # the valid range is empty below n=4
        composition_identity(Permutation.identity(6), 4)


def test_center_map_star_n3_constant():
    params = Parameters(3, 2)
    result = center_map(params, (1, 2))
    assert result.total == 720
    assert result.violation_count == 0
    assert result.is_constant
    assert result.constant_edge == (1, 2)


def test_center_map_other_edge():
    params = Parameters(3, 2)
    result = center_map(params, (5, 6))
    assert result.violation_count == 0
    assert result.constant_edge == (5, 6)


def test_center_map_star_n4_constant():
    params = Parameters(4, 2)
    result = center_map(params, (7, 8))
    assert result.total == 40320
    assert result.violation_count == 0
    assert result.constant_edge == (7, 8)


def test_adjacent_swaps_preserve_centers():
    # pairwise form of the center argument: sigma and T_j(sigma) agree
    params = Parameters(3, 2)
    family = star_family(params, (2, 4))
    windows = member_windows(params.n, params.r, family)
    for sigma in sample_permutations(6, 30, seed=59):
        base = trace(family, sigma, windows)
        assert base.saturated
        for j in range(1, 6):
            moved = trace(family, transpose_adjacent(sigma, j), windows)
            assert moved.saturated
            assert moved.center == base.center


def test_composition_identity_sampled_n6():
    for sigma in sample_permutations(12, 100, seed=67):
        for j in (7, 8, 9):
            assert composition_identity(sigma, j)


def test_center_map_rejects_edges_outside_the_graph():
    # the edge is checked first, so a bad --edge is reported before r
    for params, edge, message in (
        (Parameters(3, 2), (1, 7), "out of range 1..6"),
        (Parameters(3, 2), (0, 2), "1-based"),
        (Parameters(3, 2), (4, 4), "loops"),
        (Parameters(3, 3), (1, 99), "out of range 1..6"),
        (Parameters(7, 6), (1, 99), "out of range 1..14"),
    ):
        with pytest.raises(ValueError, match=message):
            center_map(params, edge)


def test_center_map_sweeps_past_ten_points():
    # the window scan takes n(2n-1) steps whatever the size of S_{2n}
    for n, r in ((7, 6), (9, 8)):
        result = center_map(Parameters(n, r), (3, 2 * n))
        assert result.saturated == result.total == math.factorial(2 * n)
        assert result.constant_edge == (3, 2 * n)


@pytest.mark.parametrize("n,r", [(3, 2), (4, 2)])
def test_center_map_quotient_matches_full_sweep(n, r):
    params = Parameters(n, r)
    family = star_family(params, (2, 2 * n - 1))
    full = full_sweep(family, n, r)
    result = center_map(params, (2, 2 * n - 1))
    assert result.saturated == full.saturated == math.factorial(2 * n)
    assert result.violation_count == 0
    assert result.centers == full.centers == {(2, 2 * n - 1)}


def test_center_map_counts_each_violating_class_in_full(monkeypatch):
    # with every window failing the scan, all 6! permutations fail and ten classes are kept
    monkeypatch.setattr(katona, "window_repeats", lambda pairs, *args: list(range(1, len(pairs) + 1)))
    params = Parameters(3, 2)
    result = center_map(params, (1, 2))
    assert result.saturated == 0
    assert result.violation_count == result.total == 720
    assert result.centers == frozenset()
    assert len(result.violations) == 10
    assert len({v.images for v in result.violations}) == 10
    assert all(v.reason == "unsaturated" and v.trace_size == 0 for v in result.violations)


def test_center_map_names_the_short_positions_in_order(monkeypatch):
    # windows 1 and 3 fail at (3,2): positions 0 to 3 lose one window each, the rest keep both
    monkeypatch.setattr(katona, "window_repeats", lambda *args: [1, 3])
    params = Parameters(3, 2)
    result = center_map(params, (1, 2))
    placements = list(katona.star_placements(3, (1, 2)))
    assert [(v.images, v.trace_size) for v in result.violations] == [(placements[p], 1) for p in range(4)]
    assert result.violation_count == 4 * 48
    assert result.saturated == 11 * 48
    assert result.centers == {(1, 2)}
    assert not result.is_constant


def test_swap_identities_order_and_restriction():
    sigma = Permutation((3, 1, 4, 8, 5, 2, 7, 6))
    outcomes = list(swap_identities(sigma))
    assert [name for name, _, _ in outcomes] == (
        ["adjacent_involution"] * 7
        + ["reflection_involution"] * 3
        + ["boundary_coincidence"]
        + ["last_part_preserved"] * 3
        + ["composition"]
    )
    assert {name for name, _, _ in outcomes} == set(SWAP_IDENTITIES)
    assert all(holds for _, _, holds in outcomes)
    assert list(swap_identities(sigma, 5)) == [
        ("adjacent_involution", 5, True),
        ("composition", 5, True),
    ]
    assert [name for name, _, _ in swap_identities(sigma, 3)] == [
        "adjacent_involution",
        "reflection_involution",
        "boundary_coincidence",
        "last_part_preserved",
    ]
    with pytest.raises(ValueError):
        list(swap_identities(Permutation.identity(2)))


def _swap_identities_on_permutations(sigma):
    """The swap suite written with the validated Permutation-level swaps only."""
    n = sigma.size // 2

    def composition(j):
        jp = 2 * n - 2 - j
        rhs = reflect_swap(reflect_swap(sigma, jp + 1), jp)
        rhs = reflect_swap(reflect_swap(transpose_adjacent(rhs, jp), jp + 1), jp)
        return transpose_adjacent(sigma, j) == rhs

    for j in range(1, 2 * n):
        yield "adjacent_involution", j, transpose_adjacent(transpose_adjacent(sigma, j), j) == sigma
    for j in range(1, n):
        yield "reflection_involution", j, reflect_swap(reflect_swap(sigma, j), j) == sigma
    yield "boundary_coincidence", n - 1, transpose_adjacent(sigma, n - 1) == reflect_swap(sigma, n - 1)
    last_part = rooted_order(sigma).parts[-1]
    for j in range(1, n):
        yield "last_part_preserved", j, rooted_order(reflect_swap(sigma, j)).parts[-1] == last_part
    for j in range(n + 1, 2 * n - 2):
        yield "composition", j, composition(j)


def test_swap_identities_match_permutation_level_swaps():
    sigmas = itertools.chain(
        map(Permutation, rotation_classes(8)), sample_permutations(12, 200, seed=12)
    )
    for sigma in sigmas:
        assert list(swap_identities(sigma)) == list(_swap_identities_on_permutations(sigma))


def test_swap_identities_do_not_depend_on_sigma():
    # lemma-identities evaluates the suite once, at the identity, for every sigma
    sigmas = itertools.chain(
        map(Permutation, rotation_classes(8)), sample_permutations(12, 200, seed=13)
    )
    expected = {size: list(swap_identities(Permutation.identity(size))) for size in (8, 12)}
    for sigma in sigmas:
        assert list(swap_identities(sigma)) == expected[sigma.size]


def test_swap_identities_report_a_failure(monkeypatch):
    monkeypatch.setattr(transposition_lab, "composition_identity", lambda sigma, j: False)
    outcomes = list(swap_identities(Permutation.identity(8)))
    assert [(name, j) for name, j, holds in outcomes if not holds] == [("composition", 5)]
