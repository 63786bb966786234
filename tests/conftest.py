import sys
from pathlib import Path

import pytest

from ekr_matchings import ekr_search
from ekr_matchings.core import Matching

# make the sibling oracle module importable regardless of invocation dir
sys.path.insert(0, str(Path(__file__).resolve().parent))


@pytest.fixture
def planted_non_star(monkeypatch):
    """(3, 2) cut down to four matchings, with phi set to their star at (1, 2).

    The four matchings all share an edge with v0 = {12, 34}, so they stand
    for its closed neighbourhood, and its closed-form size is set to 4.
    The maximum families through v0 are that star, {12 34, 12 35, 12 56},
    and the triangle {12 34, 12 56, 34 56}, which shares no edge.
    """
    planted = [
        Matching.from_edges(edges)
        for edges in (
            [(1, 2), (3, 4)],
            [(1, 2), (3, 5)],
            [(1, 2), (5, 6)],
            [(3, 4), (5, 6)],
        )
    ]
    monkeypatch.setattr(ekr_search, "iter_matchings", lambda params, meeting=None: iter(planted))
    monkeypatch.setattr(ekr_search, "_neighbourhood_size", lambda params: len(planted))
    monkeypatch.setattr(ekr_search, "phi", lambda params: 3)
