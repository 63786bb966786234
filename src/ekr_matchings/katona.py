"""Compatibility of matchings with cyclic edge orders, and the exact
permutation counts behind the cycle-method double-counting bound.

An r-matching A is compatible with a permutation sigma when A occurs as a
run of r consecutive edges in the cyclic order for sigma.  Because every
edge occurs exactly once in the cyclic order, A occupies a fixed set of r
positions and is compatible iff those positions are consecutive, so each
matching matches at most one interval.  The position of an edge depends
only on the slots sigma gives its two ends (baranyai.position_pairs), so
the q oracle (q_bruteforce below) decides compatibility from the slots of
A's vertices alone: A's positions form a bitmask, and A is compatible
exactly when that mask is one of the n(2n-1) window masks.

A trace, the set of members of a family compatible with sigma, is read the
other way round, with masks over edges instead of positions.  Bit k stands
for edge k of core.all_edges, member_windows maps each member's edge mask to
the member, and the trace is the set of sigma's n(2n-1) windows, each the OR
of r consecutive edge bits, found among those masks (compatible_member_keys).
The centre of a saturated trace is the one bit its masks share (trace_center).
A whole star with edge e needs no trace at all.  Its members are the
r-matchings through e, so its trace at sigma is the set of windows that
cover e's position and repeat no vertex.  A window repeats a vertex at the
same starts for every sigma, so one baranyai.window_repeats scan of
position_pairs gives the trace size at each position (star_trace_sizes),
and each position stands for the 2(2n-2)! permutations that put e there.
For r <= n-1 no window repeats a vertex, so every trace holds the r
windows through e's position, and for r >= 2 the first and the last of
them, [p-r+1, p] and [p, p+r-1], share only e: every trace is saturated
with the one centre e.

The number of compatible permutations is the same for every r-matching:

    q = n(2n-1) * r! * 2^r * (2n-2r)!

split as q1 = (n-r)(2n-1) r! 2^r (2n-2r)! for permutations placing the
matching strictly inside one part and q2 = r(2n-1) r! 2^r (2n-2r)! for
those where it straddles a spoke.  Summing compatibility two ways gives
q * |F| <= r * (2n)! for every intersecting family F, which is the bound
the rest of the package is built around.

The exhaustive oracle q_bruteforce checks q without walking S_{2n}.  It
visits the injective placements of A's 2r vertices on the 2n slots, one
per shift orbit, so (2n)!/((2n-1)(2n-2r)!) of them.  Each placement stands
for the (2n-2r)! permutations that fill the other slots, and each orbit
for its 2n-1 rotations, so q is (2n-1)(2n-2r)! times the number of
compatible placements visited.
"""

from __future__ import annotations

import itertools
import math
import operator
from functools import lru_cache, reduce
from typing import Iterable, Iterator, NamedTuple

from .core import Edge, Matching, Parameters, _Frozen, all_edges, make_edge, phi
from .baranyai import position_pairs, window_repeats

__all__ = [
    "CompatibilityCount",
    "DoubleCountReport",
    "q_formula",
    "q_bruteforce",
    "verify_double_count",
    "member_windows",
    "compatible_member_keys",
    "trace_center",
    "star_trace_sizes",
    "star_placements",
]


def _window_position_masks(n: int, r: int) -> frozenset[int]:
    """The position mask of each length-r window of the cyclic order.

    Bit k of a mask stands for 0-based cyclic position k, so a set of r
    positions is a run exactly when its mask is in this set.
    """
    total = n * (2 * n - 1)
    run = (1 << r) - 1
    full = (1 << total) - 1
    return frozenset(((run << start) | (run >> (total - start))) & full for start in range(total))


@lru_cache(maxsize=None)
def _edge_bits(n: int) -> tuple[tuple[int, ...], ...]:
    """One bit per edge of K_{2n}: entry [u][v] == [v][u] is the bit of {u, v}.

    Row and column 0 and the diagonal hold 0.  An edge set is then the OR of
    its bits, whatever the order of its edges.  Shared by every caller; bit
    k is edge k of all_edges(n).
    """
    rows = [[0] * (2 * n + 1) for _ in range(2 * n + 1)]
    for k, (u, v) in enumerate(all_edges(n)):
        rows[u][v] = rows[v][u] = 1 << k
    return tuple(map(tuple, rows))


@lru_cache(maxsize=None)
def _bit_edges(n: int) -> dict[int, Edge]:
    """Each single-bit edge mask of K_{2n} mapped to its edge; cached, so never mutated."""
    return {1 << k: edge for k, edge in enumerate(all_edges(n))}


def member_windows(n: int, r: int, members: Iterable[Matching]) -> dict[int, Matching]:
    """Each member's edge mask mapped to the member: the table compatible_member_keys reads.

    Built once per sweep, with one entry per member, in the order given.
    """
    bits = _edge_bits(n)
    windows: dict[int, Matching] = {}
    for member in members:
        if len(member) != r:
            raise ValueError(f"member has {len(member)} edges, expected r = {r}")
        mask = 0
        for u, v in member.edges:
            if v > 2 * n:
                raise ValueError(f"member uses vertices outside 1..{2 * n}")
            mask |= bits[u][v]
        windows[mask] = member
    return windows


def trace_center(n: int, masks: Iterable[int]) -> Edge | None:
    """The one edge that every mask of a nonempty set holds, or None if none or several are."""
    return _bit_edges(n).get(reduce(operator.and_, masks))


def star_trace_sizes(n: int, r: int) -> tuple[int, ...]:
    """The trace size of a whole star at each cyclic position of its edge, in position order.

    Entry p counts the length-r windows that cover position p and repeat no
    vertex: the star's members compatible with any permutation that puts
    the star's edge at p.  The failing windows come from one
    baranyai.window_repeats scan of position_pairs(n), which holds for
    every sigma at once.
    """
    total = n * (2 * n - 1)
    fails = [0] * total
    for start in window_repeats(position_pairs(n), 2 * n, r, total):
        fails[start - 1] = 1
    # the windows covering p start at p-r+1..p, so one running count of the
    # failing ones gains fails[p] and loses fails[p-r] at each step
    failing = sum(fails[total - r:])
    sizes = []
    for p in range(total):
        failing += fails[p] - fails[p - r]
        sizes.append(r - failing)
    return tuple(sizes)


def star_placements(n: int, edge: Edge) -> Iterator[tuple[int, ...]]:
    """One raw image tuple per cyclic position of edge, in position order.

    The tuple for position (p, q) of position_pairs(n) puts edge's ends on
    slots p and q and the other vertices on the other slots in ascending
    order.  Relabelling by the 2(2n-2)! permutations that fix the set edge
    turns it into every permutation with edge at that position, so the
    n(2n-1) tuples stand for all of S_{2n}.
    """
    a, b = edge
    rest = [v for v in range(1, 2 * n + 1) if v != a and v != b]
    for p, q in position_pairs(n):
        others = iter(rest)
        yield tuple(a if s == p else b if s == q else next(others) for s in range(2 * n))


@lru_cache(maxsize=None)
def _window_ends(n: int, r: int) -> tuple[operator.itemgetter, operator.itemgetter]:
    """Readers of the two end slots of each cyclic position, then of the first r-1 again."""
    pairs = position_pairs(n)
    wrapped = pairs + pairs[: r - 1]
    return operator.itemgetter(*(p for p, _ in wrapped)), operator.itemgetter(*(q for _, q in wrapped))


def compatible_member_keys(
    images: tuple[int, ...],
    n: int,
    r: int,
    windows: dict[int, Matching],
) -> set[int]:
    """Edge masks of the members occurring as length-r windows of the cyclic order for images.

    The trace of any family at one permutation; images is a raw
    permutation tuple and windows comes from member_windows(n, r, ...).
    The edge at each position, plus r-1 wrapped positions, becomes its bit;
    r shifted copies of that list ORed together are the n(2n-1) window
    masks, and the hits are those that are keys of windows.
    """
    first, second = _window_ends(n, r)
    rows = _edge_bits(n)
    bits = list(map(operator.getitem, first(list(map(rows.__getitem__, images))), second(images)))
    masks = bits
    for offset in range(1, r):
        masks = map(operator.or_, masks, bits[offset:])
    return windows.keys() & masks


class CompatibilityCount(_Frozen):
    """The closed-form compatible-permutation count and its two-part split."""

    __slots__ = ("formula_value", "split")
    formula_value: int
    split: tuple[int, int]

    def __init__(self, formula_value: int, split: tuple[int, int]) -> None:
        if sum(split) != formula_value:
            raise ValueError("split parts must sum to the formula value")
        object.__setattr__(self, "formula_value", formula_value)
        object.__setattr__(self, "split", split)


def q_formula(params: Parameters) -> CompatibilityCount:
    """Permutations compatible with any fixed r-matching, in closed form.

    The value does not depend on which r-matching is chosen.  The split
    separates permutations whose matching interval lies strictly inside
    one part from those where it straddles a spoke edge.
    """
    n, r = params.n, params.r
    if r > n - 1:
        raise ValueError(f"compatibility needs r <= n-1, got r={r}, n={n}")
    base = math.factorial(r) * 2**r * math.factorial(2 * n - 2 * r)
    interior = (n - r) * (2 * n - 1) * base
    straddling = r * (2 * n - 1) * base
    return CompatibilityCount(formula_value=interior + straddling, split=(interior, straddling))


def q_bruteforce(a: Matching, params: Parameters) -> int:
    """Count compatible permutations for a, exhaustively, without listing S_{2n}.

    It visits (2n)!/((2n-1)(2n-2r)!) placements, so callers bound 2n
    (the CLI's --limit-perms).  Whether a is a run of sigma's cyclic
    order depends only on the slots sigma gives a's 2r vertices, and each
    of those injective placements is shared by the (2n-2r)! permutations
    that fill the other slots.  Shifting the 2n-1 corners rotates the
    cyclic order by whole parts, so the verdict is constant on each shift
    orbit of placements, and every orbit has 2n-1 members because a
    placement puts a vertex on a corner.  So q = (2n-1) * (2n-2r)! times
    the number of compatible orbit representatives.  Each slot pair of
    position_pairs(n) gets the bit of its position, so a representative's
    positions are the OR of its r pairs' bits, tested against the window
    masks.
    """
    n = params.n
    two_n = 2 * n
    if len(a) != params.r:
        raise ValueError(f"matching has {len(a)} edges, expected r = {params.r}")
    if params.r > n - 1:
        raise ValueError(f"compatibility needs r <= n-1, got r={params.r}, n={n}")
    if any(v > two_n for _, v in a.edges):
        raise ValueError(f"matching uses vertices outside 1..{two_n}")
    bits = [[0] * two_n for _ in range(two_n)]
    for k, (p, q) in enumerate(position_pairs(n)):
        bits[p][q] = bits[q][p] = 1 << k
    windows = _window_position_masks(n, params.r)
    pairs = range(0, 2 * params.r - 2, 2)
    # one placement per shift orbit: a corner u1 is rotated to slot 0, and
    # u1 on the root slot leaves v1 a corner, rotated to slot 0; the other
    # 2r-2 vertices take every injective placement on the remaining slots
    root = two_n - 1
    compatible = 0
    for first in [(0, s) for s in range(1, root + 1)] + [(root, 0)]:
        base = bits[first[0]][first[1]]
        free = [s for s in range(two_n) if s not in first]
        for slots in itertools.permutations(free, 2 * params.r - 2):
            mask = base
            for t in pairs:
                mask |= bits[slots[t]][slots[t + 1]]
            if mask in windows:
                compatible += 1
    return (two_n - 1) * math.factorial(two_n - 2 * params.r) * compatible


class DoubleCountReport(NamedTuple):
    """Outcome of checking q * |F| <= r * (2n)! and the sweep identity."""

    n: int
    r: int
    family_size: int
    q_value: int
    weighted_count: int
    bound: int
    sweep_total: int
    sweep_max_trace: int

    @property
    def bound_holds(self) -> bool:
        return self.weighted_count <= self.bound

    @property
    def tight(self) -> bool:
        return self.weighted_count == self.bound

    @property
    def sweep_matches(self) -> bool:
        """Whether the exhaustive sum of trace sizes equals q * |F|."""
        return self.sweep_total == self.weighted_count

    @property
    def katona_bound_ok(self) -> bool:
        return self.sweep_max_trace <= self.r

    @property
    def passed(self) -> bool:
        return self.bound_holds and self.sweep_matches and self.katona_bound_ok


def verify_double_count(params: Parameters, edge: Edge) -> DoubleCountReport:
    """Check the double-counting inequality for the star at edge, and sweep S_{2n}.

    Compares q * phi against r * (2n)!.  The sweep's sum of trace sizes
    must equal q * phi, and no trace may hold more than r members.  edge
    must be an edge of K_{2n}, else ValueError.

    The sweep reads the trace size at each cyclic position of the edge
    (star_trace_sizes) and weights it 2(2n-2)!, the number of permutations
    that put the edge at that position, so it costs n(2n-1) steps at any n.
    With no window repeating a vertex, every trace holds r members, so the
    sum is r * (2n)!.  The permutations fixing the set edge map the star
    onto itself and are transitive on it, so each member lies in sum / phi
    traces, and that equals the closed-form q exactly when the sum equals
    q * phi.
    """
    n, r = params.n, params.r
    make_edge(edge[0], edge[1], 2 * n)
    q = q_formula(params).formula_value
    size = phi(params)
    sizes = star_trace_sizes(n, r)
    return DoubleCountReport(
        n=n,
        r=r,
        family_size=size,
        q_value=q,
        weighted_count=q * size,
        bound=r * math.factorial(2 * n),
        sweep_total=sum(sizes) * 2 * math.factorial(2 * n - 2),
        sweep_max_trace=max(sizes),
    )
