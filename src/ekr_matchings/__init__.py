"""Intersecting families of perfect-matching fragments in complete graphs.

The package builds rotational one-factorizations of K_{2n}, orders their
edges cyclically, and uses window counting over the symmetric group to
bound and then pin down the largest families of pairwise-intersecting
r-matchings.  A small exact search double-checks the combinatorics on
instances where exhaustion is feasible, and Kneser-graph certificates
check that the cyclic edge order gives powers of a Hamiltonian cycle.
"""

from .core import (
    Edge,
    Matching,
    MatchingFamily,
    Parameters,
    all_edges,
    chi,
    enumerate_matchings,
    intersects,
    make_edge,
    phi,
    star_family,
)
from .baranyai import (
    GoodnessReport,
    Permutation,
    RootedBaranyaiOrder,
    all_permutations,
    baranyai_edge,
    cyclic_order,
    half_order,
    rooted_order,
    sample_permutations,
    shift,
    verify_goodness,
    wrap_index,
)
from .katona import (
    CompatibilityCount,
    DoubleCountReport,
    compatible_member_keys,
    member_windows,
    q_bruteforce,
    q_formula,
    trace_center,
    verify_double_count,
)
from .transposition_lab import (
    CenterMap,
    CenterViolation,
    center_map,
    composition_identity,
    reflect_swap,
    transpose_adjacent,
)
from .kneser import (
    HamPowerCertificate,
    KneserGraph,
    certificate_from_json,
    ham_power_certificate,
    kneser_graph,
    verify_ham_power,
)
from .ekr_search import (
    EkrReport,
    SearchBudget,
    intersection_graph,
    is_star,
    max_intersecting,
)

__version__ = "0.1.0"

__all__ = [
    "Edge",
    "Matching",
    "MatchingFamily",
    "Parameters",
    "all_edges",
    "chi",
    "enumerate_matchings",
    "intersects",
    "make_edge",
    "phi",
    "star_family",
    "GoodnessReport",
    "Permutation",
    "RootedBaranyaiOrder",
    "all_permutations",
    "baranyai_edge",
    "cyclic_order",
    "half_order",
    "rooted_order",
    "sample_permutations",
    "shift",
    "verify_goodness",
    "wrap_index",
    "CompatibilityCount",
    "DoubleCountReport",
    "compatible_member_keys",
    "member_windows",
    "q_bruteforce",
    "q_formula",
    "trace_center",
    "verify_double_count",
    "CenterMap",
    "CenterViolation",
    "center_map",
    "composition_identity",
    "reflect_swap",
    "transpose_adjacent",
    "HamPowerCertificate",
    "KneserGraph",
    "certificate_from_json",
    "ham_power_certificate",
    "kneser_graph",
    "verify_ham_power",
    "EkrReport",
    "SearchBudget",
    "intersection_graph",
    "is_star",
    "max_intersecting",
    "__version__",
]
