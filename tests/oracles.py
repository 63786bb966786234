"""Slow reference implementations used to freeze expected values.

Everything here recomputes results straight from definitions with
itertools and sets, sharing no logic with the package internals, except
three routines.  full_graph_search runs the package's own graph builder
and search routines on the graph of every matching, so that it pins
exactly what narrowing the graph to N[v0] may change; it files the stars
by index itself.  naive_rows, which builds the graph from pairwise tests
of edge sets, is the reference for that builder.  trace reads one family
at one permutation through the
package's window scan, so that tests can check the scan's hits, centres
and the Katona bound member by member.  full_sweep reads one family through the same scan at
every permutation of S_{2n}, with no symmetry quotient, so that tests
can check the star sweeps, which read trace sizes off one window scan;
it finds common edges with sets.  The real implementations must agree with these on every instance
small enough to sweep.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from ekr_matchings.baranyai import Permutation, half_order
from ekr_matchings.core import Edge, Matching, MatchingFamily, Parameters, enumerate_matchings, phi
from ekr_matchings.ekr_search import (
    STATUS_PROVEN,
    EkrReport,
    SearchBudget,
    _Counter,
    _mask_table,
    _neighbours,
    _non_star_through_v0,
    _search,
)
from ekr_matchings.katona import compatible_member_keys, member_windows, trace_center


def naive_edges(two_n: int) -> list[tuple[int, int]]:
    return list(itertools.combinations(range(1, two_n + 1), 2))


def naive_matchings(two_n: int, r: int) -> list[frozenset[tuple[int, int]]]:
    """All r-matchings by filtering r-subsets of edges for disjointness."""
    out = []
    for combo in itertools.combinations(naive_edges(two_n), r):
        support = {v for e in combo for v in e}
        if len(support) == 2 * r:
            out.append(frozenset(combo))
    return out


def naive_rows(matchings: Sequence[Matching]) -> list[int]:
    """Bitset adjacency rows of the intersection graph, from pairwise tests of edge sets."""
    edge_sets = [frozenset(m.edges) for m in matchings]
    return [
        sum(1 << j for j, b in enumerate(edge_sets) if j != i and a & b)
        for i, a in enumerate(edge_sets)
    ]


def naive_cyclic_sequence(images: Sequence[int], n: int) -> list[tuple[int, int]]:
    """The full edge order, written out one rotation at a time."""
    m = 2 * n - 1

    def wrap(a: int) -> int:
        return (a - 1) % m + 1

    def at(p: int) -> int:
        return images[p - 1]

    seq: list[tuple[int, int]] = []
    for i in range(1, m + 1):
        for j in range(n - 1, 0, -1):
            u = at(wrap(i + j))
            v = at(wrap(i - j + m))
            seq.append((min(u, v), max(u, v)))
        u, v = at(wrap(i)), images[2 * n - 1]
        seq.append((min(u, v), max(u, v)))
    return seq


def naive_position_pairs(n: int) -> tuple[tuple[int, int], ...]:
    """The 0-based image-slot pairs of every cyclic position, from the baranyai module's formula.

    Part i is the chords {sigma(i+j), sigma(i-j+2n-1)} for j = n-1 down to
    1, positions reduced into 1..2n-1, then the spoke {sigma(i), sigma(2n)}.
    """
    m = 2 * n - 1
    pairs: list[tuple[int, int]] = []
    for i in range(1, m + 1):
        for j in range(n - 1, 0, -1):
            pairs.append(((i + j - 1) % m, (i - j + 2 * n - 2) % m))  # position p in 1..m is slot p - 1
        pairs.append((i - 1, 2 * n - 1))
    return tuple(pairs)


def naive_occurs(target: set[tuple[int, int]], seq: Sequence[tuple[int, int]]) -> bool:
    """Window scan from the definition: does the edge set occur as an interval of seq."""
    total = len(seq)
    width = len(target)
    for start in range(total):
        if seq[start] not in target:
            continue
        window = {seq[(start + t) % total] for t in range(width)}
        if window == target:
            return True
    return False


def naive_compatible(
    edges: Iterable[tuple[int, int]], images: Sequence[int], n: int
) -> bool:
    """Does the edge set occur as an interval of the cyclic order for images."""
    return naive_occurs(set(edges), naive_cyclic_sequence(images, n))


def naive_q_counts(targets: Sequence[Iterable[tuple[int, int]]], n: int) -> list[int]:
    """Compatible permutations of each target, from one scan of all of S_{2n}."""
    sets = [set(edges) for edges in targets]
    counts = [0] * len(sets)
    for images in itertools.permutations(range(1, 2 * n + 1)):
        seq = naive_cyclic_sequence(images, n)
        for i, target in enumerate(sets):
            if naive_occurs(target, seq):
                counts[i] += 1
    return counts


def naive_q(edges: Iterable[tuple[int, int]], n: int) -> int:
    """Count compatible permutations by scanning all of S_{2n}."""
    return naive_q_counts([tuple(edges)], n)[0]


@dataclass(frozen=True)
class TraceResult:
    """Members of a family occurring as intervals of one cyclic order.

    center is the common edge of the members, reported only when the
    source family is intersecting and the trace is saturated (size == r).
    katona_violation marks outcomes that would falsify the cycle bound:
    an intersecting family tracing to more than r members, or a saturated
    trace without a single common edge.
    """

    members: tuple[Matching, ...]
    r: int
    center: Edge | None
    katona_violation: bool

    @property
    def size(self) -> int:
        return len(self.members)

    @property
    def saturated(self) -> bool:
        return self.r > 0 and self.size == self.r


def trace(
    family: MatchingFamily, sigma: Permutation, windows: dict[int, Matching] | None = None
) -> TraceResult:
    """The members of family compatible with sigma, in canonical order.

    `windows` is member_windows(n, r, family), for a caller that traces one
    family at many permutations and builds the table once.
    """
    n = half_order(sigma)
    if len(family) == 0:
        return TraceResult(members=(), r=family.r or 0, center=None, katona_violation=False)
    r = family.r
    if not 1 <= r <= n - 1:
        raise ValueError(f"family members must have size in 1..{n - 1}, got {r}")
    if windows is None:
        windows = member_windows(n, r, family)
    found = compatible_member_keys(sigma.images, n, r, windows)
    members = tuple(member for mask, member in windows.items() if mask in found)
    intersecting = family.is_intersecting
    center = trace_center(n, found) if intersecting and len(found) == r else None
    violation = intersecting and center is None and len(found) >= r
    return TraceResult(members=members, r=r, center=center, katona_violation=violation)


def naive_trace(
    family: Iterable[frozenset[tuple[int, int]]], images: Sequence[int], n: int
) -> list[frozenset[tuple[int, int]]]:
    seq = naive_cyclic_sequence(images, n)
    return [member for member in family if naive_occurs(set(member), seq)]


def frozenset_window_scan(
    images: Sequence[int], n: int, r: int, member_keys: frozenset[frozenset[tuple[int, int]]]
) -> set[frozenset[tuple[int, int]]]:
    """Member keys among the n(2n-1) windows, one frozenset built per window."""
    seq = naive_cyclic_sequence(images, n)
    extended = seq + seq[: r - 1]
    windows = (frozenset(extended[start : start + r]) for start in range(len(seq)))
    return {key for key in windows if key in member_keys}


@dataclass(frozen=True)
class FullSweep:
    """Trace counts of one family over every permutation of S_{2n}.

    total sums the trace sizes, largest is the largest trace, member_counts
    holds each member's compatible permutations in family order, saturated
    counts the traces of size r with exactly one common edge, and centers
    holds those common edges.
    """

    total: int
    largest: int
    member_counts: tuple[int, ...]
    saturated: int
    centers: frozenset[Edge]


def full_sweep(family: MatchingFamily, n: int, r: int) -> FullSweep:
    """Trace family at each of the (2n)! permutations, one at a time."""
    windows = member_windows(n, r, family)
    edge_sets = {mask: frozenset(member.edges) for mask, member in windows.items()}
    per_member = dict.fromkeys(windows, 0)
    total = largest = saturated = 0
    centers: set[Edge] = set()
    for images in itertools.permutations(range(1, 2 * n + 1)):
        found = compatible_member_keys(images, n, r, windows)
        total += len(found)
        largest = max(largest, len(found))
        for mask in found:
            per_member[mask] += 1
        if len(found) == r:
            common = frozenset.intersection(*(edge_sets[mask] for mask in found))
            if len(common) == 1:
                saturated += 1
                centers |= common
    return FullSweep(total, largest, tuple(per_member.values()), saturated, frozenset(centers))


def naive_power_valid(
    k: int, order: Sequence[tuple[int, int]]
) -> bool:
    """Check the cyclic-power property with plain set intersections."""
    total = len(order)
    for idx in range(total):
        for d in range(1, min(k, total - 1) + 1):
            if set(order[idx]) & set(order[(idx + d) % total]):
                return False
    return True


def rows_ham_power(graph, certificate) -> bool:
    """The adjacency-row verifier of K(m, 2): every position against the next k.

    One pass keeps the bitmask of the next k positions and tests it against
    each vertex's row.  It reads a KneserGraph and expects a certificate
    that lists every vertex of the graph once.
    """
    index = graph.index
    sequence = [index[v] for v in certificate.order]
    total = len(sequence)
    depth = min(certificate.k, total - 1)
    ahead = 0
    for d in range(1, depth + 1):
        ahead |= 1 << sequence[d]
    for i in range(total):
        if graph.adjacency[sequence[i]] & ahead != ahead:
            return False
        ahead ^= 1 << sequence[(i + 1) % total]
        ahead ^= 1 << sequence[(i + depth + 1) % total]
    return True


def naive_goodness_failures(images: Sequence[int], n: int, r: int) -> list[int]:
    """1-based starts of the length-r windows of the cyclic order that are not matchings."""
    seq = naive_cyclic_sequence(images, n)
    total = len(seq)
    failures = []
    for start in range(total):
        vertices = [x for t in range(r) for x in seq[(start + t) % total]]
        if len(set(vertices)) != len(vertices):
            failures.append(start + 1)
    return failures


def naive_cliques_through(
    matchings: Sequence[frozenset[tuple[int, int]]], size: int
) -> Iterator[tuple[frozenset[tuple[int, int]], ...]]:
    """Every intersecting family of `size` matchings containing matchings[0], each once.

    The families are built on bitsets over the matchings that share an edge
    with matchings[0]; a branch stops when a greedy colouring of its
    candidates, which bounds any family among them, has too few colours.
    """
    v0 = matchings[0]
    near = [m for m in matchings[1:] if m & v0]
    rows = [
        sum(1 << j for j, b in enumerate(near) if j != i and a & b)
        for i, a in enumerate(near)
    ]

    def colours(candidates: int) -> int:
        count = 0
        while candidates:
            count += 1
            group = candidates
            while group:
                bit = group & -group
                candidates ^= bit
                group = (group ^ bit) & ~rows[bit.bit_length() - 1]
        return count

    stack = [v0]

    def extend(candidates: int, need: int) -> Iterator[tuple[frozenset[tuple[int, int]], ...]]:
        if need == 0:
            yield tuple(stack)
            return
        if candidates.bit_count() < need or colours(candidates) < need:
            return
        while candidates:
            bit = candidates & -candidates
            i = bit.bit_length() - 1
            candidates ^= bit
            stack.append(near[i])
            yield from extend(candidates & rows[i], need - 1)
            stack.pop()

    yield from extend((1 << len(near)) - 1, size - 1)


def full_graph_search(params: Parameters, budget: SearchBudget | None = None) -> EkrReport:
    """max_intersecting on the intersection graph of all chi matchings.

    The same searches from the same seed, on the mask table of all chi
    matchings instead of the |N[v0]| that meet v0: the bound search inside
    N(v0), then, if the budget asks, the non-star search through v0.  If
    that finds nothing, the centres come from filing every matching into
    the star of each of its edges: the least edge of each distinct star of
    the optimum size.  The budget must be large enough for both searches
    to finish.
    """
    budget = budget or SearchBudget()
    counter = _Counter(budget)
    matchings = enumerate_matchings(params)
    stars: dict[tuple[int, int], list[int]] = {}  # the indices through each edge
    for idx, matching in enumerate(matchings):
        for edge in matching.edges:
            stars.setdefault(edge, []).append(idx)
    table = _mask_table(matchings)
    best = [stars[(1, 2)]]
    _search(table, [0], _neighbours(table, 0), (), best, counter)

    def family(indices: Sequence[int]) -> MatchingFamily:
        return MatchingFamily(matchings[v] for v in indices)

    max_size = len(best[0])
    witness = family(best[0])
    centers = all_stars = None
    if budget.enumerate_all_maximum:
        two_n = 2 * params.n
        non_star = _non_star_through_v0(matchings, two_n, table, max_size, counter)
        all_stars = non_star is None
        if all_stars:
            least: dict[tuple[int, ...], tuple[int, int]] = {}
            for edge in sorted(stars):
                if len(stars[edge]) == max_size:
                    least.setdefault(tuple(stars[edge]), edge)
            centers = tuple(least.values())  # first filed from the least edge, so in order
        else:
            witness = family(non_star)
    return EkrReport(
        n=params.n,
        r=params.r,
        max_size=max_size,
        phi_value=phi(params),
        status=STATUS_PROVEN,
        witness=witness,
        centers=centers,
        all_maximum_are_stars=all_stars,
        search_nodes=counter.nodes,
    )
