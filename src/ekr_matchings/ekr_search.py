"""Exact maximum intersecting families of r-matchings.

The r-matchings of K_{2n} form an intersection graph (vertices are
matchings, edges join pairs sharing an edge of K_{2n}); an intersecting
family is a clique.  The search is a branch-and-bound maximum-clique
solver over bitsets: greedy coloring gives the upper bound at every node
and a star provides the initial incumbent.  It is one loop over an
explicit stack (_search), so no clique is too large for Python's stack.

S_{2n} acts transitively on the r-matchings and preserves intersection,
so every maximum clique has an image through the first matching
v0 = {(1, 2), (3, 4), ..., (2r-1, 2r)}.  The search therefore only looks
inside N(v0): the optimum is omega = 1 + omega(N(v0)).  The graph is
built on the closed neighbourhood N[v0] alone, the matchings that share
an edge with v0, enumerated directly and counted against inclusion-
exclusion over the edges of v0.  The graph is kept as its edge masks (the
matchings through each edge of K_{2n}) and, per matching, the masks of its
r edges; a neighbourhood is their union less the matching's own bit.  At
(8,4) the masks take 2.5 MiB, where adjacency rows would take 3.5 GiB.  Star
uniqueness asks one more question: is there a clique of size omega
through v0 whose members share no edge?  The same loop, started from v0
with its r edges common, looks for one and stops at the first it finds.
While the family S built so far has a common edge e, the clique needs a
member avoiding e, so it branches on that member; each such level loses
a common edge, so there are at most r + 1 of them, and the color bound
cuts them short, because non-star intersecting families are much smaller
than stars (Hilton and Milner).  At the first level it branches on one
member per orbit of the stabiliser of v0 and its least edge.  If there
is no such clique, stars go to stars under S_{2n}, so every maximum family
is a star, and the maximum families are the distinct stars of size omega.
Their centres follow in closed form (_star_centers), so no matching
outside N[v0] is ever listed.  Budgets (node count, and one deadline for
all phases checked at every node, every color class, and every matching
as N[v0] is listed, indexed and split into orbits) are first-class:
blowing one yields status "budget_exhausted" with the best witness found
so far, never a silently weaker answer.
"""

from __future__ import annotations

import itertools
import math
import sys
import time
from functools import reduce
from operator import or_
from typing import Iterable, Iterator, NamedTuple, Sequence, TypeVar

from .core import (
    Edge,
    Matching,
    MatchingFamily,
    Parameters,
    _Frozen,
    all_edges,
    common_edges,
    first_matching,
    iter_matchings,
    matching_count,
    phi,
)
# looked up only by the benchmark tracer, see ENTRY_POINTS in bench/spans.py
from .core import enumerate_matchings  # noqa: F401

__all__ = [
    "SearchBudget",
    "EkrReport",
    "intersection_graph",
    "max_intersecting",
    "is_star",
]

STATUS_PROVEN = "proven"
STATUS_BUDGET = "budget_exhausted"
DEFAULT_MAX_NODES = 50_000_000
DEFAULT_MAX_SECONDS = 600.0


class SearchBudget(_Frozen):
    """Resource limits for the clique search.

    max_seconds may be inf, since the node limit still binds, but not nan,
    which no deadline would ever pass.
    """

    __slots__ = ("max_nodes", "max_seconds", "enumerate_all_maximum")
    max_nodes: int
    max_seconds: float
    enumerate_all_maximum: bool

    def __init__(
        self,
        max_nodes: int = DEFAULT_MAX_NODES,
        max_seconds: float = DEFAULT_MAX_SECONDS,
        enumerate_all_maximum: bool = False,
    ) -> None:
        if max_nodes < 1:
            raise ValueError(f"max_nodes must be positive, got {max_nodes}")
        if not max_seconds > 0:
            raise ValueError(f"max_seconds must be positive, got {max_seconds}")
        object.__setattr__(self, "max_nodes", max_nodes)
        object.__setattr__(self, "max_seconds", max_seconds)
        object.__setattr__(self, "enumerate_all_maximum", enumerate_all_maximum)


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


class EkrReport(NamedTuple):
    """Search outcome for one (n, r) instance.

    witness is the best family found, or the non-star maximum family when
    the search for one succeeded.  centers lists the least edge of each
    distinct maximum family, in order, once every maximum family is proven
    a star; it is None otherwise.
    """

    n: int
    r: int
    max_size: int
    phi_value: int
    status: str
    witness: MatchingFamily
    centers: tuple[Edge, ...] | None = None
    all_maximum_are_stars: bool | None = None
    search_nodes: int = 0

    @property
    def proven(self) -> bool:
        return self.status == STATUS_PROVEN

    @property
    def maximum_family_count(self) -> int | None:
        return None if self.centers is None else len(self.centers)


T = TypeVar("T")


def _clocked(items: Iterable[T], deadline: float) -> Iterator[T]:
    """The items as they come, with the deadline checked once per item."""
    for item in items:
        if time.monotonic() > deadline:
            raise _BudgetExceeded
        yield item


def _neighbourhood_size(params: Parameters) -> int:
    """|N[v0]|, by inclusion-exclusion over the r edges of v0.

    The matchings through j given edges of v0 are the (r-j)-matchings of
    the other 2n-2j vertices, counted by core.matching_count.
    """
    n, r = params.n, params.r
    return sum(
        (-1) ** (j + 1) * math.comb(r, j) * matching_count(2 * n - 2 * j, r - j)
        for j in range(1, r + 1)
    )


def _star_centers(params: Parameters) -> tuple[Edge, ...]:
    """The least edge of each distinct star of r-matchings of K_{2n}, in order.

    Edges e < f span the same star exactly when every matching through e
    also holds f.  That happens only at r = n = 2, where the one matching
    through e also holds the complementary edge, so the stars there are
    those at (1, 2), (1, 3) and (1, 4).  For r <= n - 1, and for r = n >= 3,
    some matching through e avoids f, and every edge spans its own star.
    """
    if params.n == params.r == 2:
        return ((1, 2), (1, 3), (1, 4))
    return tuple(all_edges(params.n))


def _edge_masks(matchings: Sequence[Matching], deadline: float = math.inf) -> dict[Edge, int]:
    """The bitmask of the matchings through each edge; the deadline is checked once per matching."""
    masks: dict[Edge, int] = {}
    for i, matching in enumerate(_clocked(matchings, deadline)):
        bit = 1 << i
        for edge in matching.edges:
            masks[edge] = masks.get(edge, 0) | bit
    return masks


def intersection_graph(matchings: Sequence[Matching]) -> list[int]:
    """Bitset adjacency rows: i and j are adjacent iff the matchings share an edge.

    Row i is the union of the masks of the edges of matching i, less bit i.
    The search reads neighbourhoods from _mask_table instead and builds no
    rows; the rows are the tests' reference for them.
    """
    masks = _edge_masks(matchings)
    rows: list[int] = []
    for i, matching in enumerate(matchings):
        row = 0
        for edge in matching.edges:
            row |= masks[edge]
        rows.append(row ^ (1 << i))
    return rows


def _mask_table(
    matchings: Sequence[Matching], masks: dict[Edge, int], deadline: float = math.inf
) -> list[tuple[int, ...]]:
    """The masks of each matching's edges, in edge order; the deadline is checked once per matching."""
    return [tuple(map(masks.__getitem__, m.edges)) for m in _clocked(matchings, deadline)]


def _members(mask: int) -> Iterator[int]:
    """The indices of the set bits of `mask`, in ascending order."""
    while mask:
        bit = mask & -mask
        yield bit.bit_length() - 1
        mask ^= bit


def _neighbours(table: list[tuple[int, ...]], v: int) -> int:
    """The neighbourhood of vertex v: the union of the masks of its edges, less bit v."""
    return reduce(or_, table[v]) ^ 1 << v


def _color_order(
    candidates: int, table: list[tuple[int, ...]], deadline: float
) -> tuple[list[int], list[int]]:
    """Greedy coloring of the candidate set; vertices come back sorted by color.

    The deadline is checked once per color class.
    """
    order: list[int] = []
    bounds: list[int] = []
    uncolored = candidates
    color = 0
    while uncolored:
        if time.monotonic() > deadline:
            raise _BudgetExceeded
        color += 1
        group = uncolored
        while group:
            bit = group & -group
            v = bit.bit_length() - 1
            order.append(v)
            bounds.append(color)
            uncolored ^= bit
            group ^= group & reduce(or_, table[v])  # v leaves too: each of its masks holds v
    return order, bounds


def _search(
    table: list[tuple[int, ...]],
    edge_bits: Sequence[int],
    clique: list[int],
    candidates: int,
    common: int,
    best: list[Sequence[int]],
    counter: _Counter,
    branches: Iterable[tuple[int, int]] | None = None,
) -> None:
    """Branch and bound for a clique larger than best[0] that extends `clique`.

    Every candidate is adjacent to every member of `clique`, whose members
    share exactly the edges in the bitmask `common` (bit j for the j-th
    edge of vertex 0, edge_bits[v] for those of v).  One loop runs over a
    stack of open frames: a node's clique length, candidates, common edges
    and pending branches.  Each node ticks the counter, stops if its clique
    and candidates cannot beat best[0], or, while an edge is common, if its
    clique already does, and colours its candidates once.  With no common
    edge it branches from the highest colour down, up to the first colour
    bound that cannot beat best[0].  While an edge e is common, a clique
    with no common edge has a member avoiding e: if the top colour can beat
    best[0], the node branches on each candidate avoiding the least common
    edge, or at the root on the (candidate, mask to drop after its branch)
    pairs of `branches`, and drops it after its branch.  A branch that makes
    the clique larger than best[0] with no common edge is recorded; a search
    whose root has a common edge stops at its first record.
    """
    stop = common != 0
    frames: list[list] = []
    while True:
        counter.tick()
        size = len(clique)
        if size + candidates.bit_count() > len(best[0]) and not (common and size > len(best[0])):
            order, bounds = _color_order(candidates, table, counter.deadline)
            if not common:
                branches = zip(reversed(order), reversed(bounds), itertools.repeat(0))
            else:
                if branches is None:
                    e = (common & -common).bit_length() - 1
                    branches = ((w, 0) for w in _members(candidates ^ (candidates & table[0][e])))
                top = zip(branches, itertools.repeat(bounds[-1]))  # read now: later nodes rebind `bounds`
                branches = ((w, bound, dropped) for (w, dropped), bound in top)
            frames.append([size, candidates, common, branches])
        branches = None
        while frames:
            size, candidates, common, pending = frame = frames[-1]
            branch = next(pending, None)
            if branch is None or size + branch[1] <= len(best[0]):
                frames.pop()
                continue
            v, _, dropped = branch
            candidates ^= 1 << v  # first, so that the union of v's masks needs no clear of bit v
            narrowed = candidates & reduce(or_, table[v])
            if dropped:
                candidates ^= candidates & dropped
            frame[1] = candidates
            del clique[size:]
            clique.append(v)
            descend = narrowed or common  # every branch of a node with a common edge is a node
            if common:
                common &= edge_bits[v]
            if not common and len(clique) > len(best[0]):
                best[0] = clique.copy()
                if stop:
                    return
            if descend:
                candidates = narrowed
                break
        else:
            return


def _first_level_orbits(
    matchings: Sequence[Matching], candidates: int, two_n: int, deadline: float
) -> list[tuple[int, int]]:
    """The orbits of Stab(v0, e1) on `candidates`, as (least member, member mask).

    v0 = matchings[0] = {(1, 2), (3, 4), ..., (2r-1, 2r)} and e1 = (1, 2).
    The stabiliser is generated by swapping the two ends of an edge of v0,
    swapping two consecutive edges of v0 other than e1, and swapping two
    consecutive vertices outside v0; `candidates` must be closed under it.
    Orbits come in ascending order of their least member.  The deadline is
    checked once per member.
    """
    r = len(matchings[0])
    identity = list(range(two_n + 1))

    def swap(*pairs: tuple[int, int]) -> list[int]:
        images = identity.copy()
        for a, b in pairs:
            images[a], images[b] = b, a
        return images

    generators = (
        [swap((2 * i - 1, 2 * i)) for i in range(1, r + 1)]
        + [swap((2 * i - 1, 2 * i + 1), (2 * i, 2 * i + 2)) for i in range(2, r)]
        + [swap((x, x + 1)) for x in range(2 * r + 1, two_n)]
    )
    members = list(_members(candidates))
    index_of = {matchings[w].edges: w for w in members}
    orbits: list[tuple[int, int]] = []
    seen: set[int] = set()
    for w in members:
        if w in seen:
            continue
        orbit = {w}
        frontier = [w]  # grows while it is read: a breadth-first walk of the orbit
        for member in _clocked(frontier, deadline):
            edges = matchings[member].edges
            for g in generators:
                image = index_of[
                    tuple(sorted((g[u], g[v]) if g[u] < g[v] else (g[v], g[u]) for u, v in edges))
                ]
                if image not in orbit:
                    orbit.add(image)
                    frontier.append(image)
        seen |= orbit
        orbits.append((w, sum(1 << x for x in orbit)))
    return orbits


def _non_star_through_v0(
    matchings: Sequence[Matching],
    two_n: int,
    table: list[tuple[int, ...]],
    size: int,
    counter: _Counter,
) -> list[int] | None:
    """An intersecting family of `size` matchings with v0 = matchings[0] and no common edge.

    Only edges of v0 can be common, so bit j of a common-edge mask stands
    for the j-th edge of v0, and e1 = (1, 2) is bit 0.  A non-star family
    through v0 has a member avoiding e1; at the first level the search
    branches on one member per orbit of Stab(v0, e1) and drops the whole
    orbit after its branch.  This is orbital branching: if i is the least
    orbit holding a member of the family that avoids e1, an element of the
    stabiliser moves that member to the orbit's representative, and the
    image family, still through v0, meets no earlier orbit.
    """
    own = matchings[0].edges
    edge_bits = [
        sum(1 << j for j, e in enumerate(own) if e in m.edges) for m in _clocked(matchings, counter.deadline)
    ]
    near = _neighbours(table, 0)
    orbits = _first_level_orbits(matchings, near ^ (near & table[0][0]), two_n, counter.deadline)
    best = [[0] * (size - 1)]  # sentinel: any family of `size` members beats it
    _search(table, edge_bits, [0], near, edge_bits[0], best, counter, orbits)
    return best[0] if len(best[0]) == size else None


def max_intersecting(params: Parameters, budget: SearchBudget | None = None) -> EkrReport:
    """Exact maximum intersecting family of r-matchings of K_{2n}.

    S_{2n} acts transitively on the matchings, so some maximum family
    contains v0 = {(1, 2), ..., (2r-1, 2r)}; the branch and bound proves
    optimality inside N(v0) only, with the star at the edge (1, 2), which
    contains v0, as the incumbent.  Only the closed neighbourhood N[v0] is
    enumerated and indexed, in lexicographic order, so v0 is index 0 and
    the star at (1, 2) is its first phi members; the searches read each
    neighbourhood from the masks of the matching's edges, so no row of
    |N[v0]| bits is built.  When the budget asks for every maximum family, a
    second search looks for a maximum family through v0 with no common
    edge.  If there is none, S_{2n} maps stars to stars, so every maximum
    family is a star of size phi: the report gives their centres from
    _star_centers and the star at (1, 2), the incumbent, as the witness.
    If there is one, the report gives it as the witness, with
    all_maximum_are_stars False and no centres.  Either witness is
    re-verified intersecting.  N[v0] is listed in one pass that reads the
    clock once per matching; the clock is read for the last time by the
    second search.  If the deadline passes before the star at (1, 2) is
    fully listed, the report is budget_exhausted and its witness is the
    listed part of that star; if it passes later, the report is
    budget_exhausted with the best witness found, and no centres.  A seed
    star too large to index, phi > sys.maxsize, is a ValueError.
    """
    if budget is None:
        budget = SearchBudget()
    counter = _Counter(budget)
    phi_value = phi(params)
    if phi_value > sys.maxsize:
        raise ValueError(f"the seed star cannot be listed: phi({params.n}, {params.r}) > {sys.maxsize}")
    matchings: list[Matching] = []
    # the star at (1, 2) is the first phi members of N[v0] in lexicographic order
    best: list[Sequence[int]] = [range(phi_value)]
    status = STATUS_PROVEN
    try:
        matchings.extend(_clocked(iter_matchings(params, first_matching(params.r)), counter.deadline))
        if len(matchings) != _neighbourhood_size(params):
            raise ArithmeticError("closed neighbourhood of v0 does not match inclusion-exclusion")
        masks = _edge_masks(matchings, counter.deadline)
        if masks[(1, 2)] != (1 << phi_value) - 1:
            raise ArithmeticError("star seed size does not match phi")
        table = _mask_table(matchings, masks, counter.deadline)
        _search(table, [], [0], _neighbours(table, 0), 0, best, counter)
    except _BudgetExceeded:
        status = STATUS_BUDGET

    def to_family(indices: Sequence[int]) -> MatchingFamily:
        family = MatchingFamily(matchings[v] for v in indices)
        if not family.is_intersecting:
            raise ArithmeticError("witness family is not intersecting")
        return family

    # a listing cut short by the deadline leaves the listed part of the star as the witness
    witness = to_family(best[0][: len(matchings)])
    max_size = len(witness)
    if status == STATUS_PROVEN and max_size < phi_value:
        raise ArithmeticError("maximum smaller than the star lower bound")

    centers: tuple[Edge, ...] | None = None
    all_stars: bool | None = None
    if budget.enumerate_all_maximum and status == STATUS_PROVEN:
        try:
            non_star = _non_star_through_v0(matchings, 2 * params.n, table, max_size, counter)
        except _BudgetExceeded:
            status = STATUS_BUDGET
        else:
            all_stars = non_star is None
            if all_stars:
                # a family larger than a star has no common edge, so the search would have found it
                if max_size != phi_value:
                    raise ArithmeticError("no non-star maximum family, yet the maximum is not phi")
                centers = _star_centers(params)
            else:
                witness = to_family(non_star)
                if len(witness) != max_size or is_star(witness) is not None:
                    raise ArithmeticError("non-star witness is a star or has the wrong size")

    return EkrReport(
        n=params.n,
        r=params.r,
        max_size=max_size,
        phi_value=phi_value,
        status=status,
        witness=witness,
        centers=centers,
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
    common = common_edges(family.members)
    return common[0] if common else None
