"""Rotational one-factorizations of K_{2n} and their cyclic edge orders.

A permutation sigma of the 2n vertices determines the classical circle
construction: sigma(2n) sits in the middle of a (2n-1)-gon whose corners
are sigma(1), ..., sigma(2n-1).  Rotating the chord pattern gives 2n-1
perfect matchings that partition the edge set.  Part i consists of the
spoke {sigma(i), sigma(2n)} together with the chords
{sigma(i+j), sigma(i-j+2n-1)} for j = 1..n-1, all position arithmetic
taken modulo 2n-1 with representatives 1..2n-1 (never 0).

Each part is kept in a fixed internal order, longest chord first and the
spoke last, and concatenating the parts in order yields a cyclic order on
all n(2n-1) edges.  Runs of at most n-1 consecutive edges in that cyclic
order are always matchings; runs of length n can fail at part boundaries.
"""

from __future__ import annotations

import itertools
import random
from typing import Iterable, Iterator, NamedTuple, Sequence

from .core import Edge, _Frozen, make_edge

__all__ = [
    "Permutation",
    "RootedBaranyaiOrder",
    "GoodnessReport",
    "half_order",
    "baranyai_edge",
    "rooted_order",
    "cyclic_order",
    "position_pairs",
    "shift",
    "verify_goodness",
    "all_permutations",
    "rotation_classes",
    "sample_permutations",
]


class Permutation(_Frozen):
    """A bijection on {1, ..., size}, stored as the tuple of images.

    images[i-1] is the image of i, so calling the permutation uses the
    same 1-based convention as the rest of the package.
    """

    __slots__ = ("images",)
    images: tuple[int, ...]

    def __init__(self, images: tuple[int, ...]) -> None:
        if sorted(images) != list(range(1, len(images) + 1)):
            raise ValueError(f"not a permutation of 1..{len(images)}: {images}")
        object.__setattr__(self, "images", images)

    @classmethod
    def identity(cls, size: int) -> "Permutation":
        return cls(tuple(range(1, size + 1)))

    @property
    def size(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        if not 1 <= i <= len(self.images):
            raise ValueError(f"index {i} out of range 1..{len(self.images)}")
        return self.images[i - 1]


def half_order(sigma: Permutation) -> int:
    """The n with sigma acting on 2n points; rejects odd-sized permutations."""
    size = sigma.size
    if size % 2 or size < 2:
        raise ValueError(f"permutation must act on 2n points with n >= 1, got size {size}")
    return size // 2


def baranyai_edge(sigma: Permutation, i: int, j: int) -> Edge:
    """Edge number j of part i of the rotational partition for sigma.

    j = 0 is the spoke {sigma(i), sigma(2n)}; for 1 <= j <= n-1 the edge is
    the chord {sigma(i+j), sigma(i-j+2n-1)} with indices wrapped to 1..2n-1.
    """
    n = half_order(sigma)
    m = 2 * n - 1
    if not 1 <= i <= m:
        raise ValueError(f"part index must be in 1..{m}, got {i}")
    if not 0 <= j <= n - 1:
        raise ValueError(f"edge index must be in 0..{n - 1}, got {j}")
    part = tuple(next(_parts(sigma.images, i)))
    return make_edge(*part[n - 1 - j])


class RootedBaranyaiOrder(NamedTuple):
    """The 2n-1 ordered parts of the partition, with the fixed root vertex."""

    root: int
    parts: tuple[tuple[Edge, ...], ...]


def rooted_order(sigma: Permutation) -> RootedBaranyaiOrder:
    """All parts of the rotational partition for sigma.

    Part i is the tuple (e^{n-1}(i), ..., e^1(i), e^0(i)): chords from
    longest rotation offset down to 1, then the spoke through the root.
    """
    n = half_order(sigma)
    edges = cyclic_order(sigma)
    parts = tuple(edges[start : start + n] for start in range(0, len(edges), n))
    return RootedBaranyaiOrder(root=sigma(2 * n), parts=parts)


def _parts(labels: Sequence[int], first: int = 1) -> Iterator[Iterator[tuple[int, int]]]:
    """The label pairs of parts first, ..., 2n-1 of the rotational partition on 2n labels.

    The last label is the root and the others are the corners 1..2n-1 in
    order.  Each part is a zip of two slices of the corners repeated three
    times: with c the part's corner in the middle copy, the pairs are
    (ring[c+j], ring[c-j]) for j = n-1 down to 1, the chords longest first,
    then the spoke (ring[c], root).  Parts are built as they are read, so
    next(_parts(labels, i)) builds part i alone.
    """
    n = len(labels) // 2
    m = 2 * n - 1
    *corners, root = labels
    ring = corners * 3
    for c in range(m + first - 1, 2 * m):
        yield zip(ring[c + n - 1 : c : -1] + [ring[c]], ring[c - n + 1 : c] + [root])


def position_pairs(n: int) -> tuple[tuple[int, int], ...]:
    """0-based image-tuple index pairs feeding each cyclic-order position.

    Entry k says the edge at cyclic position k+1 is {images[p], images[q]}
    for any permutation given as its raw image tuple: the parts of _parts
    on the slots 0..2n-1, concatenated.  The table depends only on n, so a
    sweep over S_{2n} builds it once and reads it for every permutation.
    """
    return tuple(itertools.chain.from_iterable(_parts(range(2 * n))))


def cyclic_order(sigma: Permutation) -> tuple[Edge, ...]:
    """The cyclic order on the n(2n-1) edges induced by sigma: the canonical edge at each position.

    The concatenation of the ordered parts, and the one builder of the
    cyclic order as edges; rooted_order slices it into parts.  Each pair of
    _parts(sigma.images) is canonicalised as it is read, so no position
    table is built.  The sweeps read position_pairs themselves:
    verify_goodness and katona.star_trace_sizes scan its slots with
    window_repeats, for every sigma at once, and
    katona.compatible_member_keys, the trace of any family at one sigma,
    turns each position's two ends into an edge bit.
    """
    half_order(sigma)  # _parts itself would read an odd-sized sigma without complaint
    return tuple(
        (a, b) if a < b else (b, a) for a, b in itertools.chain.from_iterable(_parts(sigma.images))
    )


def shift(pi: Permutation, c: int) -> Permutation:
    """Rotate the polygon positions of pi forward by c, fixing the root.

    The result pi_c satisfies pi_c(i) = pi(i + c) for i in 1..2n-1, taken
    modulo 2n-1 with representatives 1..2n-1, and pi_c(2n) = pi(2n): the
    corners are sliced at c, the way _parts reads them.  Part i of the
    shifted permutation equals part i + c of the original, including the
    internal edge order.
    """
    m = 2 * half_order(pi) - 1
    if not 1 <= c <= m:
        raise ValueError(f"shift offset must be in 1..{m}, got {c}")
    return Permutation(pi.images[c:m] + pi.images[:c] + pi.images[m:])


def window_repeats(pairs: Sequence[tuple[int, int]], labels: int, width: int, cap: int) -> list[int]:
    """Ascending 1-based starts of the windows of `width` consecutive pairs that repeat an end.

    The pairs hold ints in range(labels), read as a cycle; one pass over
    len(pairs) + width - 1 positions keeps the last position of each label.
    With prev the later of those of its two ends, the pair at position k
    fails every start in k-width+1..prev when k - prev < width.  The left
    ends only grow with k, so the starts come out ascending; the pass stops
    once at least `cap` are known.
    """
    last = [-width] * labels
    failing: list[int] = []
    recorded = -1
    for k, (a, b) in enumerate(itertools.chain(pairs, pairs[: width - 1])):
        prev = last[a]
        if last[b] > prev:
            prev = last[b]
        last[a] = last[b] = k
        if k - prev < width:
            first = max(k - width + 1, recorded + 1)
            recorded = max(recorded, min(prev, len(pairs) - 1))
            failing.extend(range(first + 1, recorded + 2))
            if len(failing) >= cap:
                break
    return failing


class GoodnessReport(NamedTuple):
    """The length-r windows of one scan, n(2n-1) of them, and the first failing starts.

    failing holds the ascending 1-based starts of the windows that repeat a
    vertex, at most MAX_COUNTEREXAMPLES; they are the same for every sigma.
    """

    n: int
    r: int
    intervals_checked: int
    failing: tuple[int, ...]

    @property
    def passed(self) -> bool:
        return not self.failing


MAX_COUNTEREXAMPLES = 20


def verify_goodness(n: int, r: int | None = None) -> GoodnessReport:
    """Check every length-r interval of the cyclic order, for every sigma at once.

    r defaults to n-1, the longest length for which every interval is a
    matching.  A bijection puts distinct vertices in distinct slots of the
    image tuple, so a window repeats a vertex exactly when it repeats a slot
    of position_pairs, at the same starts for every sigma: one window_repeats
    scan of position_pairs decides the claim for all of S_{2n}.
    """
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    total = n * (2 * n - 1)
    if r is None:
        r = n - 1 if n > 1 else 1
    if not 1 <= r <= total:
        raise ValueError(f"interval length must be in 1..{total}, got {r}")
    failing = window_repeats(position_pairs(n), 2 * n, r, MAX_COUNTEREXAMPLES)
    return GoodnessReport(n=n, r=r, intervals_checked=total, failing=tuple(failing[:MAX_COUNTEREXAMPLES]))


def all_permutations(two_n: int) -> Iterable[Permutation]:
    """Every permutation of 1..two_n in lexicographic order."""
    for images in itertools.permutations(range(1, two_n + 1)):
        yield Permutation(images)


def rotation_classes(two_n: int) -> Iterator[tuple[int, ...]]:
    """One raw image tuple per shift orbit of S_{two_n}.

    shift() rotates the 2n-1 corners and fixes the root; each orbit is
    streamed as its member with the least corner at position 1.  Windows
    are constant on an orbit, so a tuple stands for 2n-1 permutations.
    The one caller is cli._sigma_sample, whose exhaustive sweeps read
    tuples only to name the permutations of a failure.
    """
    vertices = range(1, two_n + 1)
    for last in vertices:
        least, *rest = (x for x in vertices if x != last)
        for tail in itertools.permutations(rest):
            yield (least, *tail, last)


def sample_permutations(two_n: int, count: int, seed: int) -> Iterator[Permutation]:
    """Deterministic sample of permutations of 1..two_n from a seeded RNG.

    Each sample is drawn when it is read, as one more shuffle of the same
    list, so a prefix of the stream does not depend on how much is read.
    """
    rng = random.Random(seed)
    base = list(range(1, two_n + 1))
    for _ in range(count):
        rng.shuffle(base)
        yield Permutation(tuple(base))
