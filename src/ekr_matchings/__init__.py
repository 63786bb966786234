"""Intersecting families of perfect-matching fragments in complete graphs.

The package builds rotational one-factorizations of K_{2n}, orders their
edges cyclically, and uses window counting over the symmetric group to
bound and then pin down the largest families of pairwise-intersecting
r-matchings.  A small exact search double-checks the combinatorics on
instances where exhaustion is feasible, and Kneser-graph certificates
check that the cyclic edge order gives powers of a Hamiltonian cycle.

The package root is a plain namespace: import each name from its module
(core, baranyai, katona, transposition_lab, kneser, ekr_search, cli),
whose __all__ lists what it exports.
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
