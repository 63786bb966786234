"""Kneser graphs on 2-subsets and Hamiltonian-power certificates.

K(m, 2) has the 2-subsets of {1..m} as vertices, adjacent when disjoint.
A cyclic edge order of K_{2n} is exactly a cyclic vertex order of
K(2n, 2), and because every run of up to n-1 consecutive edges is a
matching, that order witnesses the (n-2)-nd power of a Hamiltonian cycle
inside K(2n, 2).  Certificates are just (m, k, order) triples.  The CLI
writes one as the JSON object {"m", "k", "order"} through its one report
writer, cli.emit_report, and certificate_from_json reads it back.  Any third
party can re-verify one from the order alone: it is a k-th power exactly
when every k+1 consecutive pairs are pairwise disjoint, the window check
of verify_goodness, so both run baranyai.window_repeats and build no graph.
"""

from __future__ import annotations

import itertools
import json
from typing import NamedTuple

from .baranyai import Permutation, cyclic_order, window_repeats
from .core import lists_each_edge_once

__all__ = [
    "KneserGraph",
    "HamPowerCertificate",
    "kneser_graph",
    "ham_power_certificate",
    "verify_ham_power",
    "certificate_from_json",
]

Vertex = tuple[int, int]


class KneserGraph(NamedTuple):
    """K(m, 2) with bitset adjacency rows aligned to the vertex tuple.

    index maps each vertex to its position in vertices.
    """

    m: int
    vertices: tuple[Vertex, ...]
    adjacency: tuple[int, ...]
    index: dict[Vertex, int]

    def adjacent(self, a: Vertex, b: Vertex) -> bool:
        return bool(self.adjacency[self.index[a]] >> self.index[b] & 1)


def kneser_graph(m: int) -> KneserGraph:
    """Build K(m, 2): 2-subsets of {1..m}, adjacent iff disjoint."""
    if m < 2:
        raise ValueError(f"m must be at least 2, got {m}")
    vertices = tuple(itertools.combinations(range(1, m + 1), 2))
    full = (1 << len(vertices)) - 1
    containing = [0] * (m + 1)
    for idx, (a, b) in enumerate(vertices):
        bit = 1 << idx
        containing[a] |= bit
        containing[b] |= bit
    adjacency = tuple(full & ~(containing[a] | containing[b]) for a, b in vertices)
    index = {v: i for i, v in enumerate(vertices)}
    return KneserGraph(m=m, vertices=vertices, adjacency=adjacency, index=index)


class HamPowerCertificate(NamedTuple):
    """A cyclic vertex order claimed to realize the k-th Hamiltonian power."""

    m: int
    k: int
    order: tuple[Vertex, ...]


def ham_power_certificate(
    n: int, sigma: Permutation | None = None, k: int | None = None
) -> HamPowerCertificate:
    """Certificate claiming the k-th Hamiltonian power of K(2n, 2), k = n-2 by default.

    The vertex order is the cyclic edge order of K_{2n} for sigma (identity
    by default).  Requires n >= 3 so that the default claim is positive,
    and k >= 1; a larger k than n-2 makes a false claim.
    """
    if n < 3:
        raise ValueError(f"the power claim needs n >= 3, got {n}")
    k = n - 2 if k is None else k
    _check_power(k)
    if sigma is None:
        sigma = Permutation.identity(2 * n)
    if sigma.size != 2 * n:
        raise ValueError(f"permutation size {sigma.size} does not match 2n = {2 * n}")
    return HamPowerCertificate(m=2 * n, k=k, order=cyclic_order(sigma))


def verify_ham_power(m: int, certificate: HamPowerCertificate) -> bool:
    """True iff all order positions at cyclic distance <= k hold disjoint pairs.

    Distances are clamped to total - 1, since the order is a cycle of total
    positions, so the claim holds exactly when window_repeats finds no
    window of min(k, total - 1) + 1 consecutive pairs that repeats a vertex.

    Raises ValueError for malformed certificates: m below 2 or unlike the
    certificate's, a nonpositive k, or an order that is not every canonical
    pair (a, b) of ints with 1 <= a < b <= m, each once, as a tuple.
    """
    if m < 2:
        raise ValueError(f"m must be at least 2, got {m}")
    if certificate.m != m:
        raise ValueError(f"certificate is for m={certificate.m}, expected m={m}")
    _check_power(certificate.k)
    order = certificate.order
    total = m * (m - 1) // 2
    if not lists_each_edge_once(m, order):
        raise ValueError("certificate order must list every vertex exactly once")
    return not window_repeats(order, m + 1, min(certificate.k, total - 1) + 1, 1)


def _check_power(k: int) -> None:
    """The one rule on a claimed power: it is at least 1."""
    if k < 1:
        raise ValueError(f"claimed power must be at least 1, got {k}")


def certificate_from_json(text: str) -> HamPowerCertificate:
    """Parse the interchange schema, validating shape but not the claim.

    m, k and the pair ends must be JSON integers, not true or false, which
    isinstance(x, int) would pass as 1 and 0.
    """
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"certificate is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ValueError("certificate must be a JSON object")
    missing = {"m", "k", "order"} - payload.keys()
    if missing:
        raise ValueError(f"certificate is missing fields: {sorted(missing)}")
    m, k, order = payload["m"], payload["k"], payload["order"]
    if type(m) is not int or type(k) is not int or not isinstance(order, list):
        raise ValueError("certificate fields have the wrong types")
    vertices = []
    append = vertices.append
    for item in order:
        if isinstance(item, list) and len(item) == 2:
            a, b = item
            if type(a) is int and type(b) is int:
                if not 1 <= a < b <= m:
                    raise ValueError(f"order entry {item!r} is not a canonical 2-subset of 1..{m}")
                append((a, b))
                continue
        raise ValueError(f"order entries must be integer pairs, got {item!r}")
    return HamPowerCertificate(m=m, k=k, order=tuple(vertices))
