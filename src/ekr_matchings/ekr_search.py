"""Exact maximum intersecting families of r-matchings.

The r-matchings of K_{2n} form an intersection graph (vertices are
matchings, edges join pairs sharing an edge of K_{2n}); an intersecting
family is a clique.  The search is a branch-and-bound maximum-clique
solver over bitset adjacency rows: greedy coloring gives the upper bound
at every node and a star provides the initial incumbent.

S_{2n} acts transitively on the r-matchings and preserves intersection,
so every maximum clique has an image through the first matching v0.  The
search therefore only looks inside N(v0): the optimum is 1 + omega(N(v0)).
A second pass can enumerate the c0 maximum cliques through v0; double
counting the pairs (maximum clique, member) gives the number of maximum
families, M = c0 * chi / omega.  Stars go to stars under S_{2n}, so every
maximum family is a star exactly when the c0 cliques through v0 are, and
then the maximum families are the stars themselves; this is how star
uniqueness gets checked.  Budgets (node count and wall clock, checked at
every node against one deadline for all phases) are first-class: blowing
one yields status "budget_exhausted" with the best witness found so far,
never a silently weaker answer.
"""

from __future__ import annotations

import math
import time
from collections import defaultdict
from dataclasses import dataclass, replace
from typing import Sequence

from .core import (
    Edge,
    Matching,
    MatchingFamily,
    Parameters,
    chi,
    enumerate_matchings,
    phi,
)
from .kneser import KneserGraph, kneser_graph

__all__ = [
    "SearchBudget",
    "EkrReport",
    "BridgeReport",
    "intersection_graph",
    "max_intersecting",
    "is_star",
    "verify_theorem",
    "kneser_complement_bridge",
]

STATUS_PROVEN = "proven"
STATUS_BUDGET = "budget_exhausted"


@dataclass(frozen=True)
class SearchBudget:
    """Resource limits for the clique search."""

    max_nodes: int = 50_000_000
    max_seconds: float = 600.0
    enumerate_all_maximum: bool = False

    def __post_init__(self) -> None:
        if self.max_nodes < 1:
            raise ValueError(f"max_nodes must be positive, got {self.max_nodes}")
        if self.max_seconds <= 0:
            raise ValueError(f"max_seconds must be positive, got {self.max_seconds}")


class _BudgetExceeded(Exception):
    pass


class _Counter:
    """Node counter that checks the node limit and the deadline at every node."""

    __slots__ = ("nodes", "max_nodes", "deadline")

    def __init__(self, budget: SearchBudget):
        self.nodes = 0
        self.max_nodes = budget.max_nodes
        self.deadline = time.monotonic() + budget.max_seconds

    def tick(self) -> None:
        self.nodes += 1
        if self.nodes > self.max_nodes or time.monotonic() > self.deadline:
            raise _BudgetExceeded


@dataclass(frozen=True)
class EkrReport:
    """Search outcome for one (n, r) instance."""

    n: int
    r: int
    max_size: int
    phi_value: int
    status: str
    witnesses: tuple[MatchingFamily, ...]
    maximum_family_count: int | None = None
    all_maximum_are_stars: bool | None = None
    search_nodes: int = 0

    @property
    def proven(self) -> bool:
        return self.status == STATUS_PROVEN

    @property
    def bound_confirmed(self) -> bool:
        """The search optimum equals the star size phi(n, r)."""
        return self.proven and self.max_size == self.phi_value

    @property
    def expected_maximum_count(self) -> int:
        """One maximum family per edge of K_{2n} when stars are the only ones."""
        return math.comb(2 * self.n, 2)

    @property
    def uniqueness_confirmed(self) -> bool | None:
        if self.maximum_family_count is None:
            return None
        return (
            bool(self.all_maximum_are_stars)
            and self.maximum_family_count == self.expected_maximum_count
        )


def _stars(matchings: Sequence[Matching]) -> dict[Edge, list[int]]:
    """The ascending indices of the matchings through each edge of K_{2n}."""
    buckets: dict[Edge, list[int]] = defaultdict(list)
    for idx, matching in enumerate(matchings):
        for edge in matching.edges:
            buckets[edge].append(idx)
    return buckets


def intersection_graph(matchings: Sequence[Matching], deadline: float = math.inf) -> list[int]:
    """Bitset adjacency rows: i and j are adjacent iff the matchings share an edge.

    The build checks time.monotonic() against the deadline once per star.
    """
    rows = [0] * len(matchings)
    for indices in _stars(matchings).values():
        if time.monotonic() > deadline:
            raise _BudgetExceeded
        mask = 0
        for i in indices:
            mask |= 1 << i
        for i in indices:
            rows[i] |= mask
    for i in range(len(rows)):
        rows[i] &= ~(1 << i)
    return rows


def _color_order(candidates: int, adjacency: list[int]) -> tuple[list[int], list[int]]:
    """Greedy coloring of the candidate set; vertices come back sorted by color."""
    order: list[int] = []
    bounds: list[int] = []
    uncolored = candidates
    color = 0
    while uncolored:
        color += 1
        group = uncolored
        while group:
            bit = group & -group
            v = bit.bit_length() - 1
            order.append(v)
            bounds.append(color)
            uncolored ^= bit
            group = (group ^ bit) & ~adjacency[v]
    return order, bounds


def _expand(
    adjacency: list[int],
    stack: list[int],
    candidates: int,
    best: list[list[int]],
    counter: _Counter,
) -> None:
    counter.tick()
    order, bounds = _color_order(candidates, adjacency)
    for t in range(len(order) - 1, -1, -1):
        if len(stack) + bounds[t] <= len(best[0]):
            return
        v = order[t]
        stack.append(v)
        narrowed = candidates & adjacency[v]
        if narrowed:
            _expand(adjacency, stack, narrowed, best, counter)
        elif len(stack) > len(best[0]):
            best[0] = stack.copy()
        stack.pop()
        candidates &= ~(1 << v)


def _enumerate_cliques_of_size(
    adjacency: list[int],
    size: int,
    counter: _Counter,
    through: int | None = None,
) -> list[tuple[int, ...]]:
    """All cliques with exactly `size` vertices, each found once.

    Members after the first come in ascending order.  With `through`, only
    the cliques containing that vertex are listed, and it comes first.
    """
    found: list[tuple[int, ...]] = []
    stack: list[int] = []
    vertex_count = len(adjacency)
    above = [~((1 << (v + 1)) - 1) for v in range(vertex_count)]

    def recurse(candidates: int) -> None:
        counter.tick()
        if len(stack) == size:
            found.append(tuple(stack))
            return
        if len(stack) + candidates.bit_count() < size:
            return
        _, bounds = _color_order(candidates, adjacency)
        if len(stack) + bounds[-1] < size:
            return
        remaining = candidates
        while remaining:
            bit = remaining & -remaining
            v = bit.bit_length() - 1
            remaining ^= bit
            stack.append(v)
            recurse(candidates & adjacency[v] & above[v])
            stack.pop()

    if through is None:
        recurse((1 << vertex_count) - 1)
    else:
        stack.append(through)
        recurse(adjacency[through])
    return found


def max_intersecting(params: Parameters, budget: SearchBudget | None = None) -> EkrReport:
    """Exact maximum intersecting family of r-matchings of K_{2n}.

    S_{2n} acts transitively on the matchings, so some maximum family
    contains v0 = matchings[0]; the branch and bound proves optimality
    inside N(v0) only, with the star at the edge (1, 2), which contains v0,
    as the incumbent.  When the budget asks for it, the c0 maximum families
    through v0 are enumerated and the maximum families counted by double
    counting the pairs (family, member): M = c0 * chi / omega.  If the c0
    families are all stars, every maximum family is a star, and the report
    lists the distinct stars of the optimum size, which must number M;
    otherwise it lists the families through v0, with all_maximum_are_stars
    False.  Every reported witness is re-verified intersecting.
    """
    if budget is None:
        budget = SearchBudget()
    counter = _Counter(budget)
    matchings = enumerate_matchings(params)
    phi_value = phi(params)
    stars = _stars(matchings)

    v0 = 0
    seed = stars[(1, 2)]
    if len(seed) != phi_value:
        raise ArithmeticError("star seed size does not match phi")
    best = [seed]
    status = STATUS_PROVEN
    try:
        adjacency = intersection_graph(matchings, counter.deadline)
        _expand(adjacency, [v0], adjacency[v0], best, counter)
    except _BudgetExceeded:
        status = STATUS_BUDGET

    def to_family(indices: Sequence[int]) -> MatchingFamily:
        family = MatchingFamily(matchings[v] for v in indices)
        if not family.is_intersecting:
            raise ArithmeticError("witness family is not intersecting")
        return family

    best_family = to_family(best[0])
    max_size = len(best_family)
    if max_size < phi_value:
        raise ArithmeticError("maximum smaller than the star lower bound")

    witnesses: tuple[MatchingFamily, ...] = (best_family,)
    maximum_family_count: int | None = None
    all_stars: bool | None = None
    if budget.enumerate_all_maximum and status == STATUS_PROVEN:
        try:
            through_v0 = _enumerate_cliques_of_size(adjacency, max_size, counter, through=v0)
        except _BudgetExceeded:
            status = STATUS_BUDGET
        else:
            maximum_family_count, remainder = divmod(len(through_v0) * len(matchings), max_size)
            if remainder:
                raise ArithmeticError("maximum families through v0 do not double count")
            families = [to_family(c) for c in through_v0]
            all_stars = all(is_star(fam) is not None for fam in families)
            if all_stars:
                # S_{2n} maps stars to stars, so no maximum family elsewhere is a non-star
                distinct = {tuple(indices) for indices in stars.values() if len(indices) == max_size}
                families = [to_family(indices) for indices in distinct]
                if len(families) != maximum_family_count:
                    raise ArithmeticError("star count differs from the double count")
            witnesses = tuple(
                sorted(families, key=lambda fam: tuple(m.edges for m in fam.members))
            )

    return EkrReport(
        n=params.n,
        r=params.r,
        max_size=max_size,
        phi_value=phi_value,
        status=status,
        witnesses=witnesses,
        maximum_family_count=maximum_family_count,
        all_maximum_are_stars=all_stars,
        search_nodes=counter.nodes,
    )


def is_star(family: MatchingFamily) -> Edge | None:
    """The common edge of all members, or None if no edge is shared.

    For a maximum intersecting family with r < n the common edge is unique;
    in degenerate cases with several shared edges the lexicographically
    least is returned.
    """
    if len(family) == 0:
        raise ValueError("empty family")
    common = frozenset.intersection(*(m.key for m in family.members))
    return min(common) if common else None


def verify_theorem(params: Parameters, budget: SearchBudget | None = None) -> EkrReport:
    """Check that stars are the unique maximum intersecting families.

    Requires r <= n-1.  Runs the exact search (enumerating all maximum
    families unless the caller's budget says otherwise) and returns the
    report; bound_confirmed and uniqueness_confirmed summarize the claims.
    """
    if params.r > params.n - 1:
        raise ValueError(f"the uniqueness statement needs r <= n-1, got r={params.r}, n={params.n}")
    if budget is None:
        budget = SearchBudget(enumerate_all_maximum=True)
    return max_intersecting(params, budget)


@dataclass(frozen=True)
class BridgeReport:
    """Restatement of the maximum-family result on the Kneser graph side."""

    n: int
    r: int
    vertex_count: int
    independent_set_count: int
    chi_value: int
    phi_value: int
    bijection_ok: bool
    star_sizes_ok: bool
    theorem: EkrReport

    @property
    def strictly_ekr(self) -> bool | None:
        """Stars attain the maximum and nothing else does, on the complement graph."""
        uniqueness = self.theorem.uniqueness_confirmed
        if not self.theorem.proven or uniqueness is None:
            return None
        return self.theorem.bound_confirmed and uniqueness

    @property
    def passed(self) -> bool:
        return bool(self.bijection_ok and self.star_sizes_ok and self.strictly_ekr)


def kneser_complement_bridge(
    params: Parameters, budget: SearchBudget | None = None
) -> BridgeReport:
    """Check the dictionary between r-matchings and the complement of K(2n, 2).

    Independent r-sets of the complement Kneser graph are r-cliques of
    K(2n, 2), which are exactly the r-matchings of K_{2n}: the enumeration
    must be in bijection with the matching enumeration, every vertex star
    must have phi(n, r) sets, and the maximum-family theorem then reads as
    the strict EKR property of the complement graph.  The clique enumeration
    runs under the caller's budget; if it runs out, the dictionary checks
    fail and theorem.status is "budget_exhausted".
    """
    if params.r > params.n - 1:
        raise ValueError(f"the bridge needs r <= n-1, got r={params.r}, n={params.n}")
    theorem = verify_theorem(params, budget)
    graph: KneserGraph = kneser_graph(2 * params.n)
    adjacency = list(graph.adjacency)
    counter = _Counter(budget or SearchBudget())
    try:
        cliques = _enumerate_cliques_of_size(adjacency, params.r, counter)
    except _BudgetExceeded:
        cliques = []
        theorem = replace(theorem, status=STATUS_BUDGET)

    matchings = enumerate_matchings(params)
    expected_keys = {m.key for m in matchings}
    clique_keys = {frozenset(graph.vertices[v] for v in clique) for clique in cliques}
    bijection_ok = clique_keys == expected_keys and len(cliques) == len(matchings)

    phi_value = phi(params)
    per_vertex = [0] * len(graph.vertices)
    for clique in cliques:
        for v in clique:
            per_vertex[v] += 1
    star_sizes_ok = all(count == phi_value for count in per_vertex)

    return BridgeReport(
        n=params.n,
        r=params.r,
        vertex_count=len(graph.vertices),
        independent_set_count=len(cliques),
        chi_value=chi(params),
        phi_value=phi_value,
        bijection_ok=bijection_ok,
        star_sizes_ok=star_sizes_ok,
        theorem=theorem,
    )
