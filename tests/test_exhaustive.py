"""Every triangulation of the 4- to 9-gon passes both routes, by
tests/exhaustive.py; ``python tests/exhaustive.py 11`` goes further."""

import pytest

import exhaustive

# the Catalan numbers C(n - 2)
COUNTS = {4: 2, 5: 5, 6: 14, 7: 42, 8: 132, 9: 429}


@pytest.mark.parametrize("n, count", COUNTS.items())
def test_the_enumeration_lists_each_triangulation_once(n, count):
    every = exhaustive.polygon_triangulations(n)
    assert len(every) == len(set(map(frozenset, every))) == count
    assert all(len(corners) == n - 2 for corners in every)


def test_every_small_polygon_triangulation_passes_both_routes():
    counts, failing = exhaustive.sweep(max(COUNTS))
    assert counts == COUNTS
    assert failing == []
