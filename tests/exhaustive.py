"""Every triangulation of a small polygon, checked by both routes.

    python tests/exhaustive.py N

enumerates every triangulation of the n-gon, n = 4 to N, by the Catalan
recursion: the polygon edge from the first to the last corner lies in
exactly one triangle, whose apex splits off two smaller polygons.  On each
triangulation it checks, over Q:

- ``verify_inner_triangle_count`` holds;
- the inner triangles it reports are as many as the polygon's corners
  give: triangles none of whose sides is an edge of the polygon;
- ``stable_category_table`` passes its orbit and stable-hom checks;
- the oracle and the classifier agree on every string of at most 3
  letters.

It prints one summary line with the count of each n, names up to five
failing triangulations, and exits 1 on any failure.  The tier-1 test
``tests/test_exhaustive.py`` runs the 4- to 9-gon.
"""

import argparse
import sys
from functools import cache
from pathlib import Path

# the harness checks the working tree's gentlegp
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from gentlegp import (QQ, algebra_from_triangulation,  # noqa: E402
                      classified_words, enumerate_strings,
                      gorenstein_dimension, gp_oracle, make_triangulation,
                      projective_rep, stable_category_table, string_module,
                      verify_inner_triangle_count)

SMALLEST = 4
MAX_LETTERS = 3
SHOWN = 5


def polygon_triangulations(n):
    """Every triangulation of the convex n-gon with corners 0 to n - 1, each
    a tuple of corner triples i < k < j."""
    @cache
    def split(i, j):  # the polygon on corners i, i + 1, ..., j
        if j - i < 2:
            return [()]
        return [left + ((i, k, j),) + right for k in range(i + 1, j)
                for left in split(i, k) for right in split(k, j)]

    return split(0, n - 1)


def triangulation(n, corners):
    """The Triangulation of these corner triples: side i-j is the boundary
    segment b{i} when it is an edge of the n-gon, else the arc x{i}_{j};
    each triangle lists its sides counterclockwise."""
    def side(i, j):
        if j == i + 1:
            return f"b{i}"
        return f"b{j}" if (i, j) == (0, n - 1) else f"x{i}_{j}"

    triangles = [(side(i, k), side(k, j), side(i, j)) for i, k, j in corners]
    arcs = sorted({s for tri in triangles for s in tri if s[0] == "x"})
    return make_triangulation(arcs, [f"b{i}" for i in range(n)], triangles)


def inner_by_corners(n, corners):
    """The triangles none of whose sides is an edge of the n-gon."""
    return sum(k - i > 1 and j - k > 1 and (i, j) != (0, n - 1)
               for i, k, j in corners)


def problems(n, corners):
    """What fails on one triangulation, one line each."""
    # the cache keeps every algebra it sees
    projective_rep.cache_clear()
    t = triangulation(n, corners)
    found = []
    report = verify_inner_triangle_count(t)
    if not report.holds:
        found.append(f"descriptor {report.descriptor} does not match "
                     f"{len(report.triangles)} inner triangles")
    if len(report.triangles) != inner_by_corners(n, corners):
        found.append(f"{len(report.triangles)} inner triangles, the corners "
                     f"give {inner_by_corners(n, corners)}")
    a = algebra_from_triangulation(t)
    stable_category_table(a, QQ)
    coresolution = gorenstein_dimension(a, QQ)
    words = classified_words(a)
    for w in enumerate_strings(a, MAX_LETTERS):
        verdict = gp_oracle(string_module(a, w, QQ), coresolution).verdict
        if (verdict == "GP") != (w in words):
            found.append(f"the oracle says {verdict} on {w.display()}, "
                         "the classifier does not")
    return found


def sweep(largest):
    """The count of triangulations of each n-gon, n = 4 to largest, and
    (n, corners, problems) for each one that fails."""
    counts, failing = {}, []
    for n in range(SMALLEST, largest + 1):
        every = polygon_triangulations(n)
        counts[n] = len(every)
        for corners in every:
            try:
                found = problems(n, corners)
            except Exception as exc:
                found = [f"raised {type(exc).__name__}: {exc}"]
            if found:
                failing.append((n, corners, found))
    return counts, failing


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("largest", type=int,
                        help=f"the largest n-gon, at least {SMALLEST}")
    args = parser.parse_args(argv)
    if args.largest < SMALLEST:
        parser.error(f"largest must be at least {SMALLEST}")
    counts, failing = sweep(args.largest)
    print(f"exhaustive {SMALLEST}- to {args.largest}-gon: "
          f"{sum(counts.values())} triangulations "
          f"({', '.join(map(str, counts.values()))}), "
          f"{len(failing)} failing")
    for n, corners, found in failing[:SHOWN]:
        print(f"  {n}-gon {corners}: {'; '.join(found)}")
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
