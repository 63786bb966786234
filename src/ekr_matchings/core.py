"""Vertices, edges, matchings, and exact counting for the complete graph K_{2n}.

Vertices are the 1-based integers 1..2n.  An edge is a canonical pair
(u, v) with u < v, a matching is a sorted tuple of pairwise disjoint
edges, and every count in this module is an exact Python integer.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
from functools import cached_property
from typing import Any, Iterable, Iterator, Sequence

Edge = tuple[int, int]

__all__ = [
    "Edge",
    "Parameters",
    "Matching",
    "MatchingFamily",
    "make_edge",
    "all_edges",
    "lists_each_edge_once",
    "intersects",
    "common_edges",
    "iter_matchings",
    "enumerate_matchings",
    "first_matching",
    "chi",
    "phi",
    "star_family",
    "iter_indented",
]


class _Frozen:
    """Base of the immutable value types, whose fields are their __slots__.

    Two values are equal when they are of one class with equal fields, the
    hash is the hash of the field tuple, the repr reads Name(field=value, ...),
    and assignment raises AttributeError.  A subclass's __init__ checks its
    arguments and sets each field with object.__setattr__.
    """

    __slots__ = ()

    def _key(self) -> tuple[Any, ...]:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class Parameters(_Frozen):
    """Problem size: matchings with r edges inside K_{2n}, 1 <= r <= n."""

    __slots__ = ("n", "r")
    n: int
    r: int

    def __init__(self, n: int, r: int) -> None:
        if n < 1:
            raise ValueError(f"n must be a positive integer, got {n!r}")
        if not 1 <= r <= n:
            raise ValueError(f"r must satisfy 1 <= r <= n, got r={r}, n={n}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "r", r)

    @property
    def vertex_count(self) -> int:
        return 2 * self.n


def make_edge(u: int, v: int, vertex_count: int | None = None) -> Edge:
    """Canonical form of the edge {u, v}: endpoints in increasing order."""
    if u == v:
        raise ValueError(f"loops are not edges: ({u}, {v})")
    if min(u, v) < 1:
        raise ValueError(f"vertices are 1-based, got ({u}, {v})")
    if vertex_count is not None and max(u, v) > vertex_count:
        raise ValueError(f"vertex out of range 1..{vertex_count}: ({u}, {v})")
    return (u, v) if u < v else (v, u)


def all_edges(n: int) -> list[Edge]:
    """The C(2n, 2) edges of K_{2n} in lexicographic order."""
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    top = 2 * n
    return [(u, v) for u in range(1, top) for v in range(u + 1, top + 1)]


def lists_each_edge_once(vertex_count: int, edges: Sequence[Any]) -> bool:
    """True iff `edges` lists every edge of K_{vertex_count} once, each as a canonical tuple of ints."""
    if len(edges) != vertex_count * (vertex_count - 1) // 2:
        return False
    # (u, v) with 1 <= u < v <= vertex_count has its own slot u * vertex_count + v
    seen = bytearray(vertex_count * vertex_count + 1)
    for edge in edges:
        if not (isinstance(edge, tuple) and len(edge) == 2):
            return False
        u, v = edge
        # type(), not isinstance(): True and False are ints too, and would pass as 1 and 0
        if not (type(u) is int and type(v) is int and 1 <= u < v <= vertex_count):
            return False
        slot = u * vertex_count + v
        if seen[slot]:
            return False
        seen[slot] = 1
    return True


class Matching(_Frozen):
    """Pairwise disjoint edges, stored as a lexicographically sorted tuple.

    The raw constructor insists the tuple is already canonical; use
    from_edges() to normalize arbitrary edge input first.
    """

    __slots__ = ("edges",)
    edges: tuple[Edge, ...]

    def __init__(self, edges: tuple[Edge, ...]) -> None:
        seen: set[int] = set()
        previous: Edge | None = None
        for edge in edges:
            u, v = edge
            if not 0 < u < v:
                raise ValueError(f"edge {edge} is not canonical")
            if u in seen or v in seen:
                raise ValueError(f"edges are not pairwise disjoint at {edge}")
            if previous is not None and edge <= previous:
                raise ValueError("edges are not sorted")
            seen.add(u)
            seen.add(v)
            previous = edge
        object.__setattr__(self, "edges", edges)

    # by the one field, with no key tuple built: families hash and compare many matchings
    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.edges,))

    @classmethod
    def from_edges(cls, edges: Iterable[tuple[int, int]]) -> "Matching":
        return cls(tuple(sorted(make_edge(u, v) for u, v in edges)))

    def __len__(self) -> int:
        return len(self.edges)

    def __contains__(self, edge: Edge) -> bool:
        return edge in self.edges


def intersects(a: Matching, b: Matching) -> bool:
    """True iff the matchings share an edge; a shared vertex is not enough."""
    return not set(a.edges).isdisjoint(b.edges)


def common_edges(members: Sequence[Matching]) -> tuple[Edge, ...]:
    """The first member's edges that every member holds, in lexicographic order."""
    return tuple(e for e in members[0].edges if all(e in m.edges for m in members))


class MatchingFamily:
    """A deduplicated collection of equal-size matchings in sorted order."""

    def __init__(self, members: Iterable[Matching], r: int | None = None):
        unique = sorted(dict.fromkeys(members), key=operator.attrgetter("edges"))
        sizes = {len(m) for m in unique}
        if len(sizes) > 1:
            raise ValueError(f"members have mixed sizes {sorted(sizes)}")
        if sizes:
            inferred = sizes.pop()
            if r is not None and r != inferred:
                raise ValueError(f"family has r={inferred} members, expected r={r}")
            r = inferred
        self.members: tuple[Matching, ...] = tuple(unique)
        self.r = r

    @cached_property
    def _member_set(self) -> frozenset[Matching]:
        return frozenset(self.members)

    @cached_property
    def is_intersecting(self) -> bool:
        """True iff every two members share an edge; a common edge settles it."""
        members = self.members
        if members and common_edges(members):
            return True
        return all(intersects(a, b) for a, b in itertools.combinations(members, 2))

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self) -> Iterator[Matching]:
        return iter(self.members)

    def __contains__(self, matching: Matching) -> bool:
        return matching in self._member_set

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MatchingFamily):
            return NotImplemented
        return self.members == other.members

    def __hash__(self) -> int:
        return hash(self.members)

    def __repr__(self) -> str:
        return f"MatchingFamily(r={self.r}, size={len(self.members)})"


def iter_matchings(params: Parameters, meeting: Matching | None = None) -> Iterator[Matching]:
    """The r-matchings of K_{2n}, streamed in lexicographic order of their edge tuples.

    With `meeting`, only those that share an edge with it.  While a branch
    has none of its edges yet, it goes no further than the last of them
    that is still free, and its last edge must be one of them.
    """
    edges = all_edges(params.n)
    r = params.r
    wanted = [] if meeting is None else [i for i, e in enumerate(edges) if e in meeting.edges]
    chosen: list[Edge] = []
    used: set[int] = set()

    def extend(start: int, missing: bool) -> Iterator[Matching]:
        if len(chosen) == r:
            yield Matching(tuple(chosen))
            return
        picks: Iterable[int] = range(start, len(edges))
        if missing:
            free = [k for k in wanted if k >= start and used.isdisjoint(edges[k])]
            if not free:
                return
            picks = free if len(chosen) == r - 1 else range(start, free[-1] + 1)
        for idx in picks:
            u, v = edges[idx]
            if u in used or v in used:
                continue
            chosen.append(edges[idx])
            used.add(u)
            used.add(v)
            yield from extend(idx + 1, missing and idx not in wanted)
            used.discard(u)
            used.discard(v)
            chosen.pop()

    return extend(0, meeting is not None)


def enumerate_matchings(params: Parameters) -> list[Matching]:
    """All r-matchings of K_{2n}, in lexicographic order of their edge tuples."""
    return list(iter_matchings(params))


def first_matching(r: int) -> Matching:
    """v0 = {(1, 2), (3, 4), ..., (2r-1, 2r)}, the lexicographically least r-matching."""
    return Matching(tuple((2 * t + 1, 2 * t + 2) for t in range(r)))


def matching_count(v: int, k: int) -> int:
    """Number of k-matchings of K_v: C(v, 2) C(v-2, 2) ... C(v-2k+2, 2) / k!."""
    numerator = math.prod(math.comb(v - 2 * t, 2) for t in range(k))
    value, remainder = divmod(numerator, math.factorial(k))
    if remainder:
        raise ArithmeticError(f"matching count is not integral for k={k} in K_{v}")
    return value


def chi(params: Parameters) -> int:
    """Number of r-matchings of K_{2n}."""
    return matching_count(2 * params.n, params.r)


def phi(params: Parameters) -> int:
    """Number of r-matchings of K_{2n} containing one fixed edge: the other r-1 avoid its ends."""
    return matching_count(2 * params.n - 2, params.r - 1)


def star_family(params: Parameters, e: tuple[int, int]) -> MatchingFamily:
    """All r-matchings of K_{2n} containing the edge e.

    The result is intersecting by construction and has phi(n, r) members.
    """
    edge = make_edge(e[0], e[1], params.vertex_count)
    return MatchingFamily(iter_matchings(params, Matching((edge,))), r=params.r)


# rows of ints are formatted this many at a time, with one %-template per block
_BLOCK_ROWS = 2048


def iter_indented(value: Any) -> Iterator[str]:
    """The text of json.dumps(value, indent=2), in pieces, for reports of many small int rows.

    json uses its C encoder only when indent is None, so an indented dump of
    a long list of edges goes through the pure-Python encoder one value at a
    time.  Here dicts, lists and tuples are walked in the same layout, ints
    (not bools) are written with int.__repr__, and a list whose items are
    all lists or tuples of ints is written _BLOCK_ROWS rows at a time, one
    %-template per block.  Every other scalar, and every key, goes through
    json.dumps.  A piece holds at most one block of rows, so a writer that
    passes each piece on never holds the whole text.
    """
    text = _leaf_text(value, "\n")
    return iter((text,)) if text is not None else _pieces(value, "\n")


def _leaf_text(value: Any, newline: str) -> str | None:
    """The text of a scalar or of at most _BLOCK_ROWS int rows; None for other containers."""
    if type(value) is int:
        return int.__repr__(value)
    if isinstance(value, dict) and value:
        return None
    if isinstance(value, (list, tuple)) and value:
        if len(value) > _BLOCK_ROWS or not _int_rows(value):
            return None
        inner = newline + "  "
        return "[" + inner + _rows_text(value, inner) + newline + "]"
    return json.dumps(value)


def _pieces(value: dict | list | tuple, newline: str) -> Iterator[str]:
    """The text of a container that _leaf_text leaves to it, one item or block of rows per piece."""
    inner = newline + "  "
    if isinstance(value, dict):
        opener, closer = "{", "}"
        entries: Iterable[tuple[str, Any]] = (
            (f"{_key_json(key)}: ", item) for key, item in value.items()
        )
    elif len(value) > _BLOCK_ROWS and _int_rows(value):
        separator = "[" + inner
        for start in range(0, len(value), _BLOCK_ROWS):
            yield separator + _rows_text(value[start : start + _BLOCK_ROWS], inner)
            separator = "," + inner
        yield newline + "]"
        return
    else:
        opener, closer = "[", "]"
        entries = (("", item) for item in value)
    separator = opener + inner
    for label, item in entries:
        text = _leaf_text(item, inner)
        if text is None:
            yield separator + label
            yield from _pieces(item, inner)
        else:
            yield separator + label + text
        separator = "," + inner
    yield newline + closer


def _int_rows(rows: list | tuple) -> bool:
    """True iff every row is a list or tuple of ints only.

    A first item that is not an int decides at once, so a list of rows of
    rows (construct's parts) is rejected without reading every row.
    """
    if not {*map(type, rows)} <= {list, tuple}:
        return False
    items = itertools.chain.from_iterable(rows)
    if type(next(items, 0)) is not int:
        return False
    return {*map(type, items)} <= {int}


def _rows_text(rows: list | tuple, newline: str) -> str:
    """Int rows at the given indent, comma-separated, through one %-template."""
    inner = newline + "  "
    templates = {
        length: "[" + inner + ("," + inner).join(["%d"] * length) + newline + "]" if length else "[]"
        for length in {*map(len, rows)}
    }
    template = ("," + newline).join(map(templates.__getitem__, map(len, rows)))
    return template % tuple(itertools.chain.from_iterable(rows))


def _key_json(key: Any) -> str:
    """A dict key as json writes it: str, int, float, bool and None keys become strings."""
    if isinstance(key, str):
        return json.dumps(key)
    if key is None or isinstance(key, (int, float)):
        return json.dumps(json.dumps(key))
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")
