"""Position swaps on permutations and the exchange identities that pin a
maximum intersecting family to a single common edge.

Two families of swaps act on the polygon positions of a permutation:
adjacent swaps T_j exchange positions j and j+1 (1 <= j <= 2n-1), and
reflection swaps R_j exchange positions j and 2n-1-j (1 <= j <= n-1).
Both are involutions, they coincide at j = n-1, and reflection swaps
preserve the last part of the rotational partition edge by edge.  For
n+1 <= j <= 2n-3 the adjacent swap factors as a five-fold composition of
swaps with small indices, which is how traces at distant positions get
compared.  The identities compare position maps only, so callers
evaluate the suite once per n and apply it to every permutation.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterator, NamedTuple

from .core import Edge, Parameters, make_edge
from .baranyai import Permutation, _parts, half_order
from .katona import star_placements, star_trace_sizes
# looked up only by the benchmark tracer, see ENTRY_POINTS in bench/spans.py
from .katona import compatible_member_keys  # noqa: F401

__all__ = [
    "CenterMap",
    "CenterViolation",
    "SWAP_IDENTITIES",
    "transpose_adjacent",
    "reflect_swap",
    "composition_identity",
    "swap_identities",
    "center_map",
]


def _swap(images: tuple[int, ...], *transpositions: tuple[int, int]) -> tuple[int, ...]:
    """The image tuple with each pair of 1-based positions exchanged, in order."""
    values = list(images)
    for a, b in transpositions:
        values[a - 1], values[b - 1] = values[b - 1], values[a - 1]
    return tuple(values)


def transpose_adjacent(sigma: Permutation, j: int) -> Permutation:
    """Swap the values at positions j and j+1 (an involution)."""
    n = half_order(sigma)
    if not 1 <= j <= 2 * n - 1:
        raise ValueError(f"adjacent swap index must be in 1..{2 * n - 1}, got {j}")
    return Permutation(_swap(sigma.images, (j, j + 1)))


def reflect_swap(sigma: Permutation, j: int) -> Permutation:
    """Swap the values at positions j and 2n-1-j (an involution).

    Preserves every edge of the last part of the rotational partition,
    because position j pairs with position 2n-1-j in that part.
    """
    n = half_order(sigma)
    if not 1 <= j <= n - 1:
        raise ValueError(f"reflection swap index must be in 1..{n - 1}, got {j}")
    return Permutation(_swap(sigma.images, (j, 2 * n - 1 - j)))


def composition_identity(sigma: Permutation, j: int) -> bool:
    """Check T_j = R_j' R_{j'+1} T_{j'} R_j' R_{j'+1} with j' = 2n-2-j.

    Valid for n+1 <= j <= 2n-3 (nonempty only when n >= 4).  The five
    small-index swaps on the right are applied innermost first.
    """
    n = half_order(sigma)
    if not n + 1 <= j <= 2 * n - 3:
        raise ValueError(f"composition index must be in {n + 1}..{2 * n - 3}, got {j}")
    jp = 2 * n - 2 - j
    m = 2 * n - 1
    reflect_jp, reflect_next = (jp, m - jp), (jp + 1, m - jp - 1)
    rhs = _swap(sigma.images, reflect_next, reflect_jp, (jp, jp + 1), reflect_next, reflect_jp)
    return _swap(sigma.images, (j, j + 1)) == rhs


SWAP_IDENTITIES = (
    "adjacent_involution",
    "reflection_involution",
    "boundary_coincidence",
    "last_part_preserved",
    "composition",
)


def swap_identities(sigma: Permutation, j: int | None = None) -> Iterator[tuple[str, int, bool]]:
    """Check each of SWAP_IDENTITIES at sigma, yielding (identity, index, holds).

    The index ranges are 1..2n-1, 1..n-1, n-1, 1..n-1 and n+1..2n-3; with
    j given, only the checks at index j run.  A swap composes sigma with a
    fixed position permutation, so the outcomes do not depend on sigma and
    a sweep over S_{2n} runs the suite once.  The swaps act on sigma's
    image tuple, and the last part's slot pairs are the part formula's
    part 2n-1 on the slots 0..2n-1, built alone.
    """
    n = half_order(sigma)
    if n < 2:
        raise ValueError("swap identities need n >= 2")
    images = sigma.images
    m = 2 * n - 1
    last_part = list(next(_parts(range(2 * n), m)))

    def keeps_last_part(k: int) -> bool:
        swapped = _swap(images, (k, m - k))
        return all({swapped[p], swapped[q]} == {images[p], images[q]} for p, q in last_part)

    checks = (
        (range(1, 2 * n), lambda k: _swap(images, (k, k + 1), (k, k + 1)) == images),
        (range(1, n), lambda k: _swap(images, (k, m - k), (k, m - k)) == images),
        (range(n - 1, n), lambda k: _swap(images, (k, k + 1)) == _swap(images, (k, m - k))),
        (range(1, n), keeps_last_part),
        (range(n + 1, 2 * n - 2), lambda k: composition_identity(sigma, k)),
    )
    for name, (indices, holds) in zip(SWAP_IDENTITIES, checks):
        for k in indices:
            if j is None or k == j:
                yield name, k, holds(k)


class CenterViolation(NamedTuple):
    """A permutation whose trace is not saturated with a unique common edge."""

    images: tuple[int, ...]
    reason: str
    trace_size: int


class CenterMap(NamedTuple):
    """Center edges over S_{2n} for a star.

    saturated counts the permutations whose trace is saturated with a
    single common edge, and centers holds the distinct common edges seen.
    violation_count totals the permutations whose trace is unsaturated;
    the first few are kept.
    """

    r: int
    saturated: int
    centers: frozenset[Edge]
    violations: tuple[CenterViolation, ...]
    violation_count: int

    @property
    def total(self) -> int:
        return self.saturated + self.violation_count

    @property
    def constant_edge(self) -> Edge | None:
        """The single center edge, when the map is constant and violation-free."""
        if self.violation_count or len(self.centers) != 1:
            return None
        return next(iter(self.centers))

    @property
    def is_constant(self) -> bool:
        return self.constant_edge is not None


MAX_RECORDED_VIOLATIONS = 10


def center_map(params: Parameters, edge: Edge) -> CenterMap:
    """The centre of the star at edge's trace at every permutation of S_{2n}.

    Each permutation must be saturated (trace size exactly r) with a single
    common edge; the map records that edge.  For a maximum intersecting
    family the map is constant, and for a star its value is the star's
    edge.  edge must be an edge of K_{2n}, else ValueError.

    The trace size at each cyclic position of the edge comes from one
    window scan (katona.star_trace_sizes) and counts for the 2(2n-2)!
    permutations that put the edge there.  A saturated trace is the r
    windows through that position, and for r >= 2 the first and the last
    of them share only the edge, so every saturated trace has the one
    centre edge.  A position with fewer than r windows is an "unsaturated"
    violation, named by its representative from katona.star_placements,
    the first MAX_RECORDED_VIOLATIONS in position order.
    """
    n, r = params.n, params.r
    two_n = 2 * n
    edge = make_edge(edge[0], edge[1], two_n)
    if r > n - 1:
        raise ValueError(f"tracing needs r <= n-1, got r={r}, n={n}")
    sizes = star_trace_sizes(n, r)
    weight = 2 * math.factorial(two_n - 2)
    short = [size < r for size in sizes]
    full = short.count(False)
    # placements are built only to name the short positions
    named = itertools.compress(zip(star_placements(n, edge), sizes), short) if full < len(short) else ()
    return CenterMap(
        r=r,
        saturated=full * weight,
        centers=frozenset([edge] if full else []),
        violations=tuple(
            CenterViolation(images, "unsaturated", size)
            for images, size in itertools.islice(named, MAX_RECORDED_VIOLATIONS)
        ),
        violation_count=(len(short) - full) * weight,
    )
