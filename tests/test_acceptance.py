"""Acceptance gate: ten numbered criteria, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see every verdict line.
Each criterion recomputes its claim from scratch (enumeration, exhaustive
permutation sweeps, or seeded samples) and compares against the closed
forms with exact integer equality.
"""

import itertools
import math
import random
import time

from ekr_matchings.baranyai import (
    all_permutations,
    rooted_order,
    sample_permutations,
    shift,
    verify_goodness,
)
from ekr_matchings.core import (
    Parameters,
    chi,
    enumerate_matchings,
    phi,
    star_family,
)
from ekr_matchings.ekr_search import (
    STATUS_PROVEN,
    SearchBudget,
    max_intersecting,
)
from ekr_matchings.katona import member_windows, q_bruteforce, q_formula, verify_double_count
from ekr_matchings.kneser import (
    HamPowerCertificate,
    ham_power_certificate,
    kneser_graph,
    verify_ham_power,
)
from ekr_matchings.transposition_lab import center_map, swap_identities

from oracles import full_sweep, naive_goodness_failures, trace


def _verdict(number, label, problems, elapsed, limit=None, note=""):
    timed_out = limit is not None and elapsed > limit
    passed = not problems and not timed_out
    line = f"criterion {number:2d} [{label}]: {'PASS' if passed else 'FAIL'} ({elapsed:.2f}s)"
    if note:
        line += f" {note}"
    print(line)
    assert not problems, f"criterion {number}: {problems[:5]}"
    if limit is not None:
        assert elapsed <= limit, f"criterion {number}: {elapsed:.2f}s over {limit}s limit"


def test_criterion_01_counting_formulas():
    start = time.perf_counter()
    problems = []
    for n in range(1, 6):
        for r in range(1, n + 1):
            params = Parameters(n, r)
            matchings = enumerate_matchings(params)
            if chi(params) != len(matchings):
                problems.append(f"chi({n},{r}) != enumeration")
            star_count = sum(1 for m in matchings if (1, 2) in m.edges)
            if phi(params) != star_count:
                problems.append(f"phi({n},{r}) != star filter")
    _verdict(1, "counting formulas", problems, time.perf_counter() - start, limit=10.0)


def test_criterion_02_q_oracle_equality():
    start = time.perf_counter()
    problems = []
    for n, r in ((2, 1), (3, 1), (3, 2)):
        params = Parameters(n, r)
        expected = q_formula(params).formula_value
        for a in enumerate_matchings(params):
            if q_bruteforce(a, params) != expected:
                problems.append(f"q mismatch at ({n},{r}) for {a.edges}")
    rng = random.Random(97)
    for r in (1, 2, 3):
        params = Parameters(4, r)
        expected = q_formula(params).formula_value
        pool = enumerate_matchings(params)
        for a in rng.sample(pool, 20):
            if q_bruteforce(a, params) != expected:
                problems.append(f"q mismatch at (4,{r}) for {a.edges}")
    _verdict(2, "compatibility count oracle", problems, time.perf_counter() - start, limit=60.0)


def test_criterion_03_interval_goodness():
    start = time.perf_counter()
    problems = []
    # the window scan decides the claim for every sigma at once; the oracle
    # re-checks it sigma by sigma, over all of S_6 and on seeded samples
    if not verify_goodness(3).passed:
        problems.append("n=3 window scan failed")
    if any(naive_goodness_failures(sigma.images, 3, 2) for sigma in all_permutations(6)):
        problems.append("exhaustive n=3 sweep failed")
    for n in range(4, 9):
        report = verify_goodness(n)
        if not report.passed:
            problems.append(f"counterexample at n={n}: {report.failing[:1]}")
        for sigma in sample_permutations(2 * n, 1000, seed=1729 + n):
            if naive_goodness_failures(sigma.images, n, n - 1):
                problems.append(f"oracle counterexample at n={n}: {sigma.images}")
    _verdict(3, "interval goodness", problems, time.perf_counter() - start)


def test_criterion_04_shift_relabeling_and_trace():
    start = time.perf_counter()
    problems = []

    def check(pi, c, family, windows):
        shifted = shift(pi, c)
        base_order = rooted_order(pi)
        new_order = rooted_order(shifted)
        n = pi.size // 2
        for i in range(1, 2 * n):
            if new_order.parts[i - 1] != base_order.parts[(i + c - 1) % (2 * n - 1)]:
                return f"part mismatch images={pi.images} c={c} i={i}"
        if trace(family, shifted, windows).members != trace(family, pi, windows).members:
            return f"trace mismatch images={pi.images} c={c}"
        return None

    family3 = star_family(Parameters(3, 2), (1, 2))
    windows3 = member_windows(3, 2, family3)
    for pi in all_permutations(6):
        for c in range(1, 6):
            problem = check(pi, c, family3, windows3)
            if problem:
                problems.append(problem)
    for n in (4, 5):
        family = star_family(Parameters(n, 2), (1, 2))
        windows = member_windows(n, 2, family)
        rng = random.Random(211 + n)
        for pi in sample_permutations(2 * n, 1000, seed=211 + n):
            problem = check(pi, rng.randint(1, 2 * n - 1), family, windows)
            if problem:
                problems.append(problem)
    _verdict(4, "shift relabeling and trace", problems, time.perf_counter() - start)


def test_criterion_05_maximum_and_uniqueness():
    start = time.perf_counter()
    problems = []
    for n, r in ((2, 1), (3, 1), (3, 2), (4, 1), (4, 2)):
        params = Parameters(n, r)
        report = max_intersecting(params)
        if report.status != STATUS_PROVEN:
            problems.append(f"({n},{r}) search not proven")
        elif report.max_size != phi(params):
            problems.append(f"({n},{r}) max {report.max_size} != phi {phi(params)}")

    t0 = time.perf_counter()
    small = max_intersecting(Parameters(3, 2), SearchBudget(enumerate_all_maximum=True))
    small_elapsed = time.perf_counter() - t0
    if small.maximum_family_count != 15 or not small.all_maximum_are_stars:
        problems.append(
            f"(3,2) enumeration gave {small.maximum_family_count} families"
        )
    if small_elapsed > 1.0:
        problems.append(f"(3,2) enumeration took {small_elapsed:.2f}s > 1s")

    note = ""
    big = max_intersecting(
        Parameters(4, 2),
        SearchBudget(max_seconds=300.0, enumerate_all_maximum=True),
    )
    if big.status == STATUS_PROVEN:
        if big.maximum_family_count != 28 or not big.all_maximum_are_stars:
            problems.append(
                f"(4,2) enumeration gave {big.maximum_family_count} families, "
                f"all_stars={big.all_maximum_are_stars}"
            )
    else:
        note = "(4,2) enumeration hit its budget; bound still proven"
    _verdict(5, "maximum size and uniqueness", problems, time.perf_counter() - start, note=note)


def test_criterion_06_double_count_tight():
    start = time.perf_counter()
    problems = []
    params = Parameters(3, 2)
    report = verify_double_count(params, (1, 2))
    if report.weighted_count != 1440 or report.bound != 1440 or not report.tight:
        problems.append(
            f"tightness failed: {report.weighted_count} vs {report.bound}"
        )
    if report.sweep_total != report.weighted_count:
        problems.append(
            f"sweep total {report.sweep_total} != q*|family| {report.weighted_count}"
        )
    # each member's compatible permutations, counted at every permutation of S_6
    member_counts = full_sweep(star_family(params, (1, 2)), 3, 2).member_counts
    if member_counts != (240,) * 6:
        problems.append(f"per-member counts {member_counts}")
    if report.sweep_max_trace != 2:
        problems.append(f"max trace {report.sweep_max_trace} != r")
    _verdict(6, "double count tightness", problems, time.perf_counter() - start)


def test_criterion_07_swap_identity_suite():
    start = time.perf_counter()
    problems = []

    def check_suite(sigma):
        return [f"{name} j={j} failed at {sigma.images}" for name, j, holds in swap_identities(sigma) if not holds]

    for sigma in all_permutations(8):
        problems.extend(check_suite(sigma))
        if problems:
            break
    for n in (5, 6):
        for sigma in sample_permutations(2 * n, 200, seed=307 + n):
            problems.extend(check_suite(sigma))
    _verdict(7, "swap identity suite", problems, time.perf_counter() - start, limit=30.0)


def test_criterion_08_center_constancy():
    start = time.perf_counter()
    problems = []
    for n, edge in ((3, (1, 2)), (4, (1, 2))):
        params = Parameters(n, 2)
        result = center_map(params, edge)
        if result.violation_count:
            problems.append(f"n={n}: {result.violation_count} unsaturated permutations")
        elif result.constant_edge != edge:
            problems.append(f"n={n}: center {result.constant_edge} != {edge}")
        elif result.total != math.factorial(2 * n):
            problems.append(f"n={n}: swept {result.total} permutations")
    elapsed = time.perf_counter() - start
    _verdict(8, "center constancy", problems, elapsed, limit=120.0)


def test_criterion_09_hamiltonian_powers():
    start = time.perf_counter()
    problems = []
    for n, k in ((3, 1), (4, 1), (4, 2), (5, 1), (5, 2), (5, 3)):
        base = ham_power_certificate(n)
        certificate = HamPowerCertificate(m=base.m, k=k, order=base.order)
        if not verify_ham_power(2 * n, certificate):
            problems.append(f"power k={k} rejected at n={n}")
    for n in (3, 4, 5):
        base = ham_power_certificate(n)
        certificate = HamPowerCertificate(m=base.m, k=n - 1, order=base.order)
        if verify_ham_power(2 * n, certificate):
            problems.append(f"power k=n-1 wrongly accepted at n={n}")
    _verdict(9, "hamiltonian powers", problems, time.perf_counter() - start, limit=5.0)


def test_criterion_10_kneser_bridge():
    # independent r-sets of the complement of K(2n, 2) are r-cliques of K(2n, 2), pairwise
    # disjoint edges of K_{2n}: the r-matchings; the theorem is then the strict EKR
    # property of the complement graph, whose stars are the phi cliques through a vertex
    start = time.perf_counter()
    problems = []
    for n in (3, 4):
        params = Parameters(n, 2)
        graph = kneser_graph(2 * n)
        matchings = enumerate_matchings(params)
        if not all(graph.adjacent(a, b) for m in matchings for a, b in itertools.combinations(m.edges, 2)):
            problems.append(f"n={n}: a matching is not a clique of K(2n, 2)")
        if len({m.edges for m in matchings}) != len(matchings) or len(matchings) != chi(params):
            problems.append(f"n={n}: cliques are not chi distinct matchings")
        if any(sum(v in m.edges for m in matchings) != phi(params) for v in graph.vertices):
            problems.append(f"n={n}: vertex star sizes differ from phi")
        report = max_intersecting(params, SearchBudget(max_seconds=300.0, enumerate_all_maximum=True))
        if report.status != STATUS_PROVEN:
            problems.append(f"n={n}: search not proven")
        elif report.max_size != phi(params) or not report.all_maximum_are_stars:
            problems.append(f"n={n}: strict EKR property falsified")
    _verdict(10, "kneser complement bridge", problems, time.perf_counter() - start)
