"""Rotational partition, cyclic order, positions, shifts, and goodness."""

import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from ekr_matchings.baranyai import (
    MAX_COUNTEREXAMPLES,
    GoodnessReport,
    Permutation,
    all_permutations,
    baranyai_edge,
    cyclic_order,
    half_order,
    position_pairs,
    rooted_order,
    rotation_classes,
    sample_permutations,
    shift,
    verify_goodness,
    window_repeats,
)
from ekr_matchings.cli import _first_failures
from ekr_matchings.core import all_edges, make_edge

from oracles import naive_cyclic_sequence, naive_goodness_failures, naive_position_pairs


def permutations_of(two_n):
    return st.permutations(list(range(1, two_n + 1))).map(lambda p: Permutation(tuple(p)))


def test_permutation_basics():
    sigma = Permutation((2, 3, 1))
    assert sigma(1) == 2 and sigma(3) == 1
    assert Permutation.identity(4).images == (1, 2, 3, 4)
    with pytest.raises(ValueError, match=r"^not a permutation of 1\.\.3: \(1, 1, 2\)$"):
        Permutation((1, 1, 2))
    with pytest.raises(ValueError):
        sigma(0)
    with pytest.raises(ValueError):
        sigma(4)


def test_half_order_rejects_odd():
    with pytest.raises(ValueError):
        half_order(Permutation((1, 2, 3)))
    assert half_order(Permutation.identity(8)) == 4


def test_rooted_order_identity_n2():
    order = rooted_order(Permutation.identity(4))
    assert order.root == 4
    assert order.parts == (
        ((2, 3), (1, 4)),
        ((1, 3), (2, 4)),
        ((1, 2), (3, 4)),
    )
    assert order.parts[(4 - 1) % 3] == order.parts[0]  # part 4 wraps to part 1 modulo 2n-1


def test_rooted_order_identity_n4_first_part():
    order = rooted_order(Permutation.identity(8))
    assert order.parts[0] == ((4, 5), (3, 6), (2, 7), (1, 8))


def test_baranyai_edge_worked_example():
    sigma = Permutation.identity(8)
    assert baranyai_edge(sigma, 3, 2) == (1, 5)
    assert baranyai_edge(sigma, 3, 0) == (3, 8)
    with pytest.raises(ValueError):
        baranyai_edge(sigma, 8, 1)
    with pytest.raises(ValueError):
        baranyai_edge(sigma, 1, 4)


@settings(max_examples=60)
@given(st.integers(2, 5).flatmap(lambda n: permutations_of(2 * n)))
def test_parts_form_a_one_factorization(sigma):
    n = half_order(sigma)
    order = rooted_order(sigma)
    assert len(order.parts) == 2 * n - 1
    seen = []
    for part in order.parts:
        support = [x for e in part for x in e]
        assert len(part) == n
        assert len(set(support)) == 2 * n  # each part is a perfect matching
        seen.extend(part)
    assert sorted(seen) == all_edges(n)  # parts partition the edge set


@settings(max_examples=40)
@given(st.integers(2, 5).flatmap(lambda n: permutations_of(2 * n)))
def test_cyclic_order_matches_definition(sigma):
    n = half_order(sigma)
    psi = cyclic_order(sigma)
    assert list(psi) == naive_cyclic_sequence(sigma.images, n)
    assert len(psi) == n * (2 * n - 1)


def test_cyclic_order_worked_position():
    # positions 10 and 12 of the identity order for n = 4, 13 and 14 for n = 3
    sequence = cyclic_order(Permutation.identity(8))
    assert sequence[9] == (1, 5)
    assert sequence[11] == (3, 8)  # spoke of part 3
    assert cyclic_order(Permutation.identity(6))[12:14] == ((2, 3), (1, 4))


def test_position_pairs_match_the_circle_formula():
    for n in range(1, 41):
        assert position_pairs(n) == naive_position_pairs(n)
    # every pair of distinct slots is the ends of exactly one position
    for n in range(1, 7):
        ends = sorted(tuple(sorted(pair)) for pair in position_pairs(n))
        assert ends == list(itertools.combinations(range(2 * n), 2))


def test_cyclic_order_and_rooted_order_agree_with_position_pairs():
    # cyclic_order reads the part formula on sigma's images, the sweeps read it on slots
    rng = random.Random(34)
    for n in range(1, 31):
        images = list(range(1, 2 * n + 1))
        rng.shuffle(images)
        sigma = Permutation(tuple(images))
        psi = cyclic_order(sigma)
        assert psi == tuple(make_edge(images[p], images[q]) for p, q in position_pairs(n))
        parts = rooted_order(sigma).parts
        assert tuple(itertools.chain.from_iterable(parts)) == psi
        if n <= 8:
            for i in range(1, 2 * n):
                assert [baranyai_edge(sigma, i, j) for j in range(n - 1, -1, -1)] == list(parts[i - 1])


@pytest.mark.parametrize("images", [(1,), (1, 2, 3), (2, 5, 1, 4, 3)])
def test_odd_sized_permutations_have_no_rotational_order(images):
    sigma = Permutation(images)
    with pytest.raises(ValueError, match="2n points"):
        cyclic_order(sigma)
    with pytest.raises(ValueError, match="2n points"):
        rooted_order(sigma)


def test_short_intervals_are_matchings_identity():
    for n in (3, 4, 5):
        sequence = cyclic_order(Permutation.identity(2 * n))
        wrapped = sequence + sequence[: n - 2]
        for start in range(len(sequence)):
            vertices = [x for edge in wrapped[start : start + n - 1] for x in edge]
            assert len(set(vertices)) == len(vertices)


def test_shift_relabels_parts():
    for images in ((1, 2, 3, 4, 5, 6), (3, 1, 4, 2, 6, 5)):
        pi = Permutation(images)
        n = half_order(pi)
        base = rooted_order(pi)
        for c in range(1, 2 * n):
            shifted = rooted_order(shift(pi, c))
            for i in range(1, 2 * n):
                assert shifted.parts[i - 1] == base.parts[(i + c - 1) % (2 * n - 1)]


def test_shift_rotates_cyclic_order():
    pi = Permutation((4, 1, 6, 3, 2, 5, 8, 7))
    n = half_order(pi)
    base = cyclic_order(pi)
    for c in range(1, 2 * n):
        rotated = cyclic_order(shift(pi, c))
        assert rotated == base[c * n :] + base[: c * n]


def test_shift_full_turn_is_identity_map():
    pi = Permutation((2, 4, 6, 1, 3, 5))
    assert shift(pi, 5) == pi
    with pytest.raises(ValueError):
        shift(pi, 0)
    with pytest.raises(ValueError):
        shift(pi, 6)


def test_verify_goodness_exhaustive_n3():
    report = verify_goodness(3)
    assert report == GoodnessReport(n=3, r=2, intervals_checked=15, failing=())
    assert report.passed
    # the one scan decides the claim for every sigma, as the oracle finds sigma by sigma
    assert not any(naive_goodness_failures(sigma.images, 3, 2) for sigma in all_permutations(6))


def test_verify_goodness_sampled_n5():
    report = verify_goodness(5)
    assert report.passed
    assert report.r == 4
    assert not any(naive_goodness_failures(sigma.images, 5, 4) for sigma in sample_permutations(10, 50, seed=7))


def test_goodness_fails_for_full_part_length():
    # length-n windows straddling part boundaries are not matchings
    report = verify_goodness(3, r=3)
    assert not report.passed
    assert 2 in report.failing
    assert list(report.failing) == naive_goodness_failures(Permutation.identity(6).images, 3, 3)


@pytest.mark.parametrize("n", range(1, 7))
def test_verify_goodness_matches_window_oracle(n):
    # the one-pass scan against every window rebuilt from the definition, at
    # the identity and at sampled sigmas, where the failing starts are the same
    total = n * (2 * n - 1)
    sigmas = [Permutation.identity(2 * n), *sample_permutations(2 * n, 50, seed=n)]
    for r in sorted({1, n - 1, n, n + 1, 2 * n, total} & set(range(1, total + 1))):
        failing = naive_goodness_failures(sigmas[0].images, n, r)
        assert verify_goodness(n, r=r) == GoodnessReport(
            n=n, r=r, intervals_checked=total, failing=tuple(failing[:MAX_COUNTEREXAMPLES])
        )
        for sigma in sigmas[1:]:
            assert naive_goodness_failures(sigma.images, n, r) == failing


@pytest.mark.parametrize("count", [0, 1, 7, 1000])
@pytest.mark.parametrize("n", range(2, 6))
def test_verify_goodness_cap_matches_window_oracle(n, count):
    # the failing starts are found once for all sigmas; naming them at each
    # sigma in turn must still cut the oracle's sigma-by-sigma list at the
    # same entry, over sweeps of no permutation, one, a few and many
    assert MAX_COUNTEREXAMPLES == 20
    for r in (n - 1, n, n + 1, 2 * n):
        failures = (
            (sigma.images, start)
            for sigma in sample_permutations(2 * n, count, seed=100 + n)
            for start in naive_goodness_failures(sigma.images, n, r)
        )
        sigmas = (sigma.images for sigma in sample_permutations(2 * n, count, seed=100 + n))
        named = _first_failures(sigmas, verify_goodness(n, r=r).failing, MAX_COUNTEREXAMPLES)
        assert named == list(itertools.islice(failures, MAX_COUNTEREXAMPLES))


@pytest.mark.parametrize("seed", range(4))
def test_window_repeats_matches_every_window(seed):
    # arbitrary cyclic pair sequences, where ends come back at any distance
    rng = random.Random(seed)
    labels = 3 + seed
    pairs = [tuple(rng.sample(range(labels), 2)) for _ in range(5 + 3 * seed)]
    total = len(pairs)
    for width in range(1, total + 1):
        failing = [
            start + 1
            for start in range(total)
            if len({x for t in range(width) for x in pairs[(start + t) % total]}) < 2 * width
        ]
        assert window_repeats(pairs, labels, width, total + 1) == failing
        for cap in (0, 1, 3):
            found = window_repeats(pairs, labels, width, cap)
            assert found == failing[: len(found)]
            assert found == failing or len(found) >= cap


def test_sample_permutations_deterministic():
    assert list(sample_permutations(8, 5, seed=3)) == list(sample_permutations(8, 5, seed=3))
    assert list(sample_permutations(8, 5, seed=3)) != list(sample_permutations(8, 5, seed=4))
    # samples are drawn as they are read, and a prefix does not depend on the count
    assert list(itertools.islice(sample_permutations(8, 10**12, seed=3), 5)) == list(sample_permutations(8, 5, seed=3))


@pytest.mark.parametrize("two_n", [2, 4, 6, 8])
def test_rotation_classes_partition_the_symmetric_group(two_n):
    classes = list(rotation_classes(two_n))
    assert len(classes) == len(set(classes)) == math.factorial(two_n) // (two_n - 1)
    orbits = set()
    for images in classes:
        sigma = Permutation(images)
        assert images[0] == min(images[:-1])
        orbit = {shift(sigma, c).images for c in range(1, two_n)}
        assert len(orbit) == two_n - 1
        assert orbits.isdisjoint(orbit)
        orbits |= orbit
    assert orbits == set(itertools.permutations(range(1, two_n + 1)))
