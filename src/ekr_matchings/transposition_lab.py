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

import math
from dataclasses import dataclass
from typing import Iterator

from .core import Edge, MatchingFamily, Parameters
from .baranyai import Permutation, half_order, position_pairs
from .katona import compatible_member_keys, star_placements, star_windows, trace_center

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
    image tuple, and the last part is the last n entries of position_pairs.
    """
    n = half_order(sigma)
    if n < 2:
        raise ValueError("swap identities need n >= 2")
    images = sigma.images
    m = 2 * n - 1
    last_part = position_pairs(n)[-n:]

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


@dataclass(frozen=True)
class CenterViolation:
    """A permutation whose trace is not saturated with a unique common edge."""

    images: tuple[int, ...]
    reason: str
    trace_size: int


@dataclass(frozen=True)
class CenterMap:
    """Center edges over S_{2n} for a maximum intersecting family.

    saturated counts the permutations whose trace is saturated with a
    single common edge, and centers holds the distinct common edges seen.
    violation_count totals permutations that failed saturation or had no
    single common edge; the first few are kept.
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


def center_map(family: MatchingFamily, params: Parameters, limit: int = 10) -> CenterMap:
    """Trace every permutation of S_{2n} against a whole star.

    Each permutation must be saturated (trace size exactly r) with a single
    common edge; the map records that edge.  For a maximum intersecting
    family the map is constant, and for a star its value is the star's
    edge.  family must be a whole star (katona.star_windows), else
    ValueError.

    One permutation per cyclic position of the star's edge e is traced
    (katona.star_placements) and counted 2(2n-2)! times.  The permutations
    tau fixing the set e map the star onto itself, and the trace at
    tau o sigma is tau applied to the trace at sigma: the same size, with
    the common edges moved by tau, so e stays the one common edge exactly
    when it was.  The permutations putting e at one position are one coset
    of that group, and the n(2n-1) cosets cover S_{2n}.  Violations are
    recorded per position, one representative for each of the first
    MAX_RECORDED_VIOLATIONS.
    """
    n, r = params.n, params.r
    two_n = 2 * n
    if two_n > limit:
        raise ValueError(f"2n = {two_n} exceeds the enumeration limit {limit}")
    if r > n - 1:
        raise ValueError(f"tracing needs r <= n-1, got r={r}, n={n}")
    if family.r != r:
        raise ValueError(f"family has r={family.r}, parameters say r={r}")
    windows, edge = star_windows(n, r, family)
    weight = 2 * math.factorial(two_n - 2)
    saturated = 0
    centers: set[Edge] = set()
    violations: list[CenterViolation] = []
    violation_count = 0
    for images in star_placements(n, edge):
        found = compatible_member_keys(images, n, r, windows)
        if len(found) != r:
            reason = "unsaturated"
        else:
            center = trace_center(n, found)
            if center is not None:
                saturated += weight
                centers.add(center)
                continue
            reason = "no common edge"
        violation_count += weight
        if len(violations) < MAX_RECORDED_VIOLATIONS:
            violations.append(CenterViolation(images, reason, len(found)))
    return CenterMap(
        r=r,
        saturated=saturated,
        centers=frozenset(centers),
        violations=tuple(violations),
        violation_count=violation_count,
    )
