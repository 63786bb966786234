"""Kneser graphs on 2-subsets and Hamiltonian-power certificates."""

import itertools
import json
import math
import random

import pytest

from ekr_matchings import cli
from ekr_matchings.baranyai import (
    Permutation,
    cyclic_order,
    sample_permutations,
    verify_goodness,
)
from ekr_matchings.kneser import (
    HamPowerCertificate,
    certificate_from_json,
    ham_power_certificate,
    kneser_graph,
    verify_ham_power,
)

from oracles import naive_goodness_failures, naive_power_valid, rows_ham_power


def test_kneser_graph_small_sizes():
    g4 = kneser_graph(4)
    assert len(g4.vertices) == 6
    assert sum(row.bit_count() for row in g4.adjacency) // 2 == 3  # three disjoint pairs
    g5 = kneser_graph(5)
    assert len(g5.vertices) == 10
    assert sum(row.bit_count() for row in g5.adjacency) // 2 == 15  # the Petersen graph
    assert all(row.bit_count() == 3 for row in g5.adjacency)
    g6 = kneser_graph(6)
    assert len(g6.vertices) == 15
    assert all(row.bit_count() == math.comb(4, 2) for row in g6.adjacency)


def test_kneser_adjacency_is_disjointness():
    graph = kneser_graph(6)
    for a, b in itertools.combinations(graph.vertices, 2):
        assert graph.adjacent(a, b) == (not set(a) & set(b))


def test_kneser_graph_rejects_tiny():
    with pytest.raises(ValueError):
        kneser_graph(1)


def test_certificate_matches_cyclic_order():
    certificate = ham_power_certificate(4)
    assert certificate.m == 8
    assert certificate.k == 2
    assert certificate.order == cyclic_order(Permutation.identity(8))


def test_certificate_needs_n_at_least_3():
    with pytest.raises(ValueError):
        ham_power_certificate(2)


@pytest.mark.parametrize("n,k", [(3, 1), (4, 1), (4, 2), (5, 1), (5, 2), (5, 3)])
def test_power_verifies_up_to_n_minus_2(n, k):
    base = ham_power_certificate(n)
    certificate = HamPowerCertificate(m=base.m, k=k, order=base.order)
    assert verify_ham_power(2 * n, certificate)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_power_fails_at_n_minus_1(n):
    base = ham_power_certificate(n)
    certificate = HamPowerCertificate(m=base.m, k=n - 1, order=base.order)
    assert not verify_ham_power(2 * n, certificate)


def test_random_permutations_also_certify():
    for n in (3, 4):
        for sigma in sample_permutations(2 * n, 10, seed=41):
            certificate = ham_power_certificate(n, sigma)
            assert verify_ham_power(2 * n, certificate)


def _test_orders(n, rng):
    """The cyclic order, and shuffled and two-entry-exchanged copies of it."""
    base = ham_power_certificate(n).order
    orders = [base]
    for _ in range(4):
        orders.append(tuple(rng.sample(base, len(base))))
        a, b = sorted(rng.sample(range(len(base)), 2))
        orders.append(base[:a] + (base[b],) + base[a + 1 : b] + (base[a],) + base[b + 1 :])
    return orders


def test_verifier_agrees_with_naive_check():
    for n in (3, 4):
        base = ham_power_certificate(n)
        for k in range(1, n):
            certificate = HamPowerCertificate(m=base.m, k=k, order=base.order)
            assert verify_ham_power(2 * n, certificate) == naive_power_valid(
                k, certificate.order
            )
    # shuffled orders, mostly invalid, and the cyclic order with two entries
    # exchanged, which can fail deep into the pass, at every claimed power;
    # the adjacency rows of K(2n, 2) give the same verdicts
    rng = random.Random(11)
    for n in (3, 4, 5):
        graph = kneser_graph(2 * n)
        for order in _test_orders(n, rng):
            for k in range(1, len(order) + 1):
                certificate = HamPowerCertificate(m=2 * n, k=k, order=order)
                valid = verify_ham_power(2 * n, certificate)
                assert valid == naive_power_valid(k, order)
                assert valid == rows_ham_power(graph, certificate)


def test_verdict_does_not_depend_on_where_the_cycle_is_cut():
    # every rotation moves some position pair across the end of the order,
    # where the scan wraps around
    rng = random.Random(11)
    for n in (3, 4, 5):
        for order in _test_orders(n, rng):
            for k in range(1, len(order) + 1):
                verdicts = {
                    verify_ham_power(2 * n, HamPowerCertificate(m=2 * n, k=k, order=order[s:] + order[:s]))
                    for s in range(len(order))
                }
                assert verdicts == {naive_power_valid(k, order)}


def test_power_k_equivalent_to_interval_matchings():
    # Power k holds on the cyclic edge order exactly when every window of
    # k+1 consecutive edges is a matching.
    for n in (3, 4):
        base = ham_power_certificate(n)
        for k in range(1, n):
            certificate = HamPowerCertificate(m=base.m, k=k, order=base.order)
            windows_ok = not naive_goodness_failures(range(1, 2 * n + 1), n, k + 1)
            assert verify_ham_power(2 * n, certificate) == windows_ok


@pytest.mark.parametrize("n", range(1, 7))
def test_power_claims_are_goodness_checks(n):
    # the two faces of the window lemma: the k-th power of the cyclic order
    # holds exactly when every window of min(k, total - 1) + 1 edges is a matching
    total = n * (2 * n - 1)
    for sigma in [Permutation.identity(2 * n), *sample_permutations(2 * n, 3, seed=70 + n)]:
        order = cyclic_order(sigma)
        for k in range(1, total + 1):
            power = verify_ham_power(2 * n, HamPowerCertificate(2 * n, k, order))
            goodness = verify_goodness(n, r=min(k, total - 1) + 1)
            assert power == goodness.passed


def test_verifier_rejects_malformed():
    good = ham_power_certificate(4)
    with pytest.raises(ValueError):
        verify_ham_power(6, good)
    with pytest.raises(ValueError):
        verify_ham_power(8, HamPowerCertificate(m=8, k=0, order=good.order))
    truncated = HamPowerCertificate(m=8, k=2, order=good.order[:-1])
    with pytest.raises(ValueError):
        verify_ham_power(8, truncated)
    doubled = HamPowerCertificate(m=8, k=2, order=good.order[:-1] + (good.order[0],))
    with pytest.raises(ValueError):
        verify_ham_power(8, doubled)
    with pytest.raises(ValueError, match="m must be at least 2"):
        verify_ham_power(1, HamPowerCertificate(m=1, k=1, order=()))


CYCLIC_8 = ham_power_certificate(4).order


def _with_entry(entry):
    return CYCLIC_8[:5] + (entry,) + CYCLIC_8[6:]


@pytest.mark.parametrize(
    "order",
    [
        pytest.param(_with_entry((7, 2)), id="reversed"),
        pytest.param(_with_entry((0, 1)), id="below-range"),
        pytest.param(_with_entry((3, 9)), id="above-range"),
        pytest.param(_with_entry((3, 3)), id="loop"),
        pytest.param(_with_entry((1, 2, 3)), id="triple"),
        pytest.param(_with_entry((1.0, 2.0)), id="floats"),
        pytest.param(tuple(list(pair) for pair in CYCLIC_8), id="lists"),
        pytest.param(_with_entry(CYCLIC_8[9]), id="duplicate-and-missing"),
        pytest.param(tuple((True, 8) if pair == (1, 8) else pair for pair in CYCLIC_8), id="bool-end"),
    ],
)
def test_verifier_rejects_orders_that_are_not_each_pair_once(order):
    assert len(order) == math.comb(8, 2)
    for k in (1, 2, 3):
        with pytest.raises(ValueError, match="every vertex exactly once"):
            verify_ham_power(8, HamPowerCertificate(m=8, k=k, order=order))


def test_verifier_degenerate_sizes():
    # m = 2: one pair, so every claimed power clamps to distance 0 and holds
    for k in (1, 2, 5):
        certificate = HamPowerCertificate(m=2, k=k, order=((1, 2),))
        assert verify_ham_power(2, certificate)
        assert rows_ham_power(kneser_graph(2), certificate)
        assert naive_power_valid(k, certificate.order)
    # m = 3: the three pairs meet pairwise, so no power k >= 1 holds
    graph = kneser_graph(3)
    for order in itertools.permutations(graph.vertices):
        for k in (1, 2, 3, 10):
            certificate = HamPowerCertificate(m=3, k=k, order=order)
            assert not verify_ham_power(3, certificate)
            assert not rows_ham_power(graph, certificate)
            assert not naive_power_valid(k, order)


def written_certificate(tmp_path, argv):
    """The text of the certificate file that the kneser-cert subcommand writes."""
    path = tmp_path / "cert.json"
    assert cli.main(["kneser-cert", *argv, "--out", str(path)]) == cli.EXIT_PASS
    text = path.read_text(encoding="utf-8")
    with path.open(encoding="utf-8") as handle:
        assert text == json.dumps(json.load(handle), indent=2) + "\n"
    return text


def test_json_roundtrip(tmp_path):
    text = written_certificate(tmp_path, ["--n", "4"])
    assert certificate_from_json(text) == ham_power_certificate(4)
    payload = json.loads(text)
    assert set(payload) == {"m", "k", "order"}
    assert payload["order"][0] == [4, 5]


@pytest.mark.parametrize("seed", range(3))
def test_json_roundtrip_of_shuffled_orders(tmp_path, seed):
    sigma = next(sample_permutations(12, 1, seed))
    text = written_certificate(tmp_path, ["--n", "6", "--sigma", ",".join(map(str, sigma.images))])
    assert certificate_from_json(text) == ham_power_certificate(6, sigma)


def test_json_parse_rejects_malformed():
    with pytest.raises(ValueError):
        certificate_from_json("not json")
    with pytest.raises(ValueError):
        certificate_from_json(json.dumps([1, 2]))
    with pytest.raises(ValueError):
        certificate_from_json(json.dumps({"m": 8, "k": 2}))
    with pytest.raises(ValueError):
        certificate_from_json(json.dumps({"m": 8, "k": 2, "order": [[1, 1]]}))
    with pytest.raises(ValueError):
        certificate_from_json(json.dumps({"m": 8, "k": 2, "order": [[2, 1]]}))
    with pytest.raises(ValueError):
        certificate_from_json(json.dumps({"m": 8, "k": "2", "order": []}))


def test_json_parse_rejects_bools_and_reports_the_first_bad_entry():
    # isinstance(True, int) holds, but JSON true is not a vertex label or a size
    certificate = ham_power_certificate(4)
    order = [[True if x == 1 else x for x in pair] for pair in certificate.order]
    for payload, message in (
        ({"m": certificate.m, "k": certificate.k, "order": order}, r"order entries must be integer pairs, got \[True, 8\]"),
        ({"m": certificate.m, "k": True, "order": certificate.order}, "certificate fields have the wrong types"),
        ({"m": True, "k": certificate.k, "order": certificate.order}, "certificate fields have the wrong types"),
    ):
        with pytest.raises(ValueError, match=f"^{message}$"):
            certificate_from_json(json.dumps(payload))
    with pytest.raises(ValueError, match=r"^order entry \[2, 1\] is not a canonical 2-subset of 1\.\.8$"):
        certificate_from_json(json.dumps({"m": 8, "k": 2, "order": [[1, 2], [2, 1], [1]]}))
    for item in ([1], [1, 2.0], [1, "2"], [1, 2, 3], 5, None, [[1], 2], {"a": 1}):
        text = json.dumps({"m": 8, "k": 2, "order": [[1, 2], item, [2, 1]]})
        with pytest.raises(ValueError, match=r"^order entries must be integer pairs, got "):
            certificate_from_json(text)
