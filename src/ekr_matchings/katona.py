"""Compatibility of matchings with cyclic edge orders, and the exact
permutation counts behind the cycle-method double-counting bound.

An r-matching A is compatible with a permutation sigma when A occurs as a
run of r consecutive edges in the cyclic order for sigma.  Because every
edge occurs exactly once in the cyclic order, A occupies a fixed set of r
positions and is compatible iff those positions are consecutive, so each
matching matches at most one interval.

The number of compatible permutations is the same for every r-matching:

    q = n(2n-1) * r! * 2^r * (2n-2r)!

split as q1 = (n-r)(2n-1) r! 2^r (2n-2r)! for permutations placing the
matching strictly inside one part and q2 = r(2n-1) r! 2^r (2n-2r)! for
those where it straddles a spoke.  Summing compatibility two ways gives
q * |F| <= r * (2n)! for every intersecting family F, which is the bound
the rest of the package is built around.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .core import Edge, Matching, MatchingFamily, Parameters
from .baranyai import Permutation, cyclic_edges, half_order, rotation_classes

__all__ = [
    "TraceResult",
    "CompatibilityCount",
    "DoubleCountReport",
    "is_compatible",
    "trace",
    "q_formula",
    "q_bruteforce",
    "verify_double_count",
    "compatible_member_keys",
]


def _interval_run_start(
    edges: tuple[Edge, ...], images: tuple[int, ...], n: int
) -> int | None:
    """1-based cyclic position where the edges form a run, or None.

    images is a raw permutation tuple of length 2n; no validation happens
    here because the permutation sweeps call this millions of times.
    """
    two_n = 2 * n
    m = two_n - 1
    total = n * m
    inv = [0] * (two_n + 1)
    position = 1
    for value in images:
        inv[value] = position
        position += 1
    positions = []
    for u, v in edges:
        p = inv[u]
        q = inv[v]
        if p == two_n:
            positions.append(q * n)
        elif q == two_n:
            positions.append(p * n)
        else:
            i = (n * (p + q) - 1) % m + 1
            d = (p - i) % m
            j = d if d < n else m - d
            positions.append((i - 1) * n + n - j)
    if len(positions) == 1:
        return positions[0]
    positions.sort()
    gaps = 0
    wrapped_start = positions[0]
    for t in range(len(positions) - 1):
        if positions[t + 1] - positions[t] != 1:
            gaps += 1
            wrapped_start = positions[t + 1]
    if positions[0] + total - positions[-1] != 1:
        if gaps:
            return None
        return positions[0]
    return wrapped_start if gaps == 1 else None


def is_compatible(a: Matching, sigma: Permutation) -> int | None:
    """Position of the interval of sigma's cyclic order equal to a, or None.

    Requires |a| <= n-1 so that every candidate interval is a matching.
    """
    n = half_order(sigma)
    if not 1 <= len(a) <= n - 1:
        raise ValueError(f"matching size must be in 1..{n - 1}, got {len(a)}")
    if a.support and max(a.support) > 2 * n:
        raise ValueError(f"matching uses vertices outside 1..{2 * n}")
    return _interval_run_start(a.edges, sigma.images, n)


def compatible_member_keys(
    images: tuple[int, ...],
    n: int,
    r: int,
    member_keys: frozenset[frozenset[Edge]] | set[frozenset[Edge]],
) -> set[frozenset[Edge]]:
    """Member edge sets occurring as length-r intervals of the cyclic order.

    Shared hot path for traces and exhaustive sweeps; images is a raw
    permutation tuple.
    """
    edges_at = cyclic_edges(images, n)
    found: set[frozenset[Edge]] = set()
    if r == 1:
        for e in edges_at:
            key = frozenset((e,))
            if key in member_keys:
                found.add(key)
        return found
    extended = edges_at + edges_at[: r - 1]
    for start in range(len(edges_at)):
        key = frozenset(extended[start : start + r])
        if key in member_keys:
            found.add(key)
    return found


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


def trace(family: MatchingFamily, sigma: Permutation) -> TraceResult:
    """The members of family compatible with sigma, in canonical order."""
    n = half_order(sigma)
    if len(family) == 0:
        return TraceResult(members=(), r=family.r or 0, center=None, katona_violation=False)
    r = family.r
    assert r is not None
    if not 1 <= r <= n - 1:
        raise ValueError(f"family members must have size in 1..{n - 1}, got {r}")
    by_key = {m.key: m for m in family}
    found = compatible_member_keys(sigma.images, n, r, family.member_keys)
    members = tuple(sorted((by_key[k] for k in found), key=lambda m: m.edges))
    center: Edge | None = None
    violation = False
    if family.is_intersecting:
        if len(members) > r:
            violation = True
        elif len(members) == r:
            common = frozenset.intersection(*(m.key for m in members))
            if len(common) == 1:
                center = next(iter(common))
            else:
                violation = True
    return TraceResult(members=members, r=r, center=center, katona_violation=violation)


@dataclass(frozen=True)
class CompatibilityCount:
    """The closed-form compatible-permutation count and its two-part split."""

    formula_value: int
    split: tuple[int, int]
    oracle_value: int | None = None

    def __post_init__(self) -> None:
        if sum(self.split) != self.formula_value:
            raise ValueError("split parts must sum to the formula value")

    def with_oracle(self, value: int) -> "CompatibilityCount":
        return replace(self, oracle_value=value)


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


def _count_block(n: int, edges: tuple[Edge, ...], root: int | None) -> int:
    run_start = _interval_run_start
    return sum(1 for images in rotation_classes(2 * n, root) if run_start(edges, images, n) is not None)


def q_bruteforce(a: Matching, params: Parameters, limit: int = 10, jobs: int = 1) -> int:
    """Count compatible permutations for a by exhausting S_{2n}.

    Refuses to run when 2n exceeds limit (default 10, so at most 10!
    permutations).  One permutation per rotation class is tested and counted
    2n-1 times.  With jobs > 1 the classes are split by root vertex and the
    partial counts are summed in a fixed order.
    """
    n = params.n
    two_n = 2 * n
    if two_n > limit:
        raise ValueError(f"2n = {two_n} exceeds the enumeration limit {limit}")
    if len(a) != params.r:
        raise ValueError(f"matching has {len(a)} edges, expected r = {params.r}")
    if params.r > n - 1:
        raise ValueError(f"compatibility needs r <= n-1, got r={params.r}, n={n}")
    if a.support and max(a.support) > two_n:
        raise ValueError(f"matching uses vertices outside 1..{two_n}")
    if jobs <= 1:
        return (two_n - 1) * _count_block(n, a.edges, None)
    import multiprocessing

    tasks = [(n, a.edges, root) for root in range(1, two_n + 1)]
    with multiprocessing.get_context("fork").Pool(processes=jobs) as pool:
        partial = pool.starmap(_count_block, tasks)
    return (two_n - 1) * sum(partial)


@dataclass(frozen=True)
class DoubleCountReport:
    """Outcome of checking q * |F| <= r * (2n)! and the sweep identity."""

    n: int
    r: int
    family_size: int
    q_value: int
    weighted_count: int
    bound: int
    sweep_total: int | None = None
    sweep_max_trace: int | None = None
    member_counts: tuple[int, ...] | None = None

    @property
    def bound_holds(self) -> bool:
        return self.weighted_count <= self.bound

    @property
    def tight(self) -> bool:
        return self.weighted_count == self.bound

    @property
    def sweep_matches(self) -> bool | None:
        """Whether the exhaustive sum of trace sizes equals q * |F|."""
        if self.sweep_total is None:
            return None
        return self.sweep_total == self.weighted_count

    @property
    def katona_bound_ok(self) -> bool | None:
        if self.sweep_max_trace is None:
            return None
        return self.sweep_max_trace <= self.r

    @property
    def member_counts_match(self) -> bool | None:
        if self.member_counts is None:
            return None
        return all(count == self.q_value for count in self.member_counts)

    @property
    def passed(self) -> bool:
        checks = (self.bound_holds, self.sweep_matches, self.katona_bound_ok, self.member_counts_match)
        return all(c is not False for c in checks)


def verify_double_count(
    family: MatchingFamily,
    params: Parameters,
    limit: int = 10,
) -> DoubleCountReport:
    """Check the double-counting inequality for an intersecting family.

    Always compares q * |family| against r * (2n)!.  When 2n <= limit,
    additionally sweeps S_{2n}, summing trace sizes (which must equal
    q * |family|), verifying every trace has at most r members, and
    counting compatible permutations per member (each must equal the
    closed-form q).  The sweep weights one permutation per rotation class 2n-1.
    """
    n, r = params.n, params.r
    if family.r != r:
        raise ValueError(f"family has r={family.r}, parameters say r={r}")
    if not family.is_intersecting:
        raise ValueError("family is not intersecting; the bound only applies to intersecting families")
    q = q_formula(params).formula_value
    weighted = q * len(family)
    bound = r * math.factorial(2 * n)
    report = DoubleCountReport(
        n=n,
        r=r,
        family_size=len(family),
        q_value=q,
        weighted_count=weighted,
        bound=bound,
    )
    if 2 * n > limit:
        return report
    weight = 2 * n - 1
    member_keys = family.member_keys
    per_member: dict[frozenset[Edge], int] = {key: 0 for key in member_keys}
    total = 0
    max_trace = 0
    for images in rotation_classes(2 * n):
        found = compatible_member_keys(images, n, r, member_keys)
        size = len(found)
        total += size * weight
        if size > max_trace:
            max_trace = size
        for key in found:
            per_member[key] += weight
    member_counts = tuple(per_member[m.key] for m in family)
    return replace(
        report,
        sweep_total=total,
        sweep_max_trace=max_trace,
        member_counts=member_counts,
    )
