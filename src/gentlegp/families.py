"""Builders for the standard families used as fixtures and benchmarks."""

from __future__ import annotations

from .quiver import Arrow, QuiverPresentation, parse_presentation


def linear_quiver(n: int) -> QuiverPresentation:
    """The A_n quiver 1 -> 2 -> ... -> n with no relations."""
    vertices = tuple(str(i) for i in range(1, n + 1))
    arrows = tuple(Arrow(f"a{i}", str(i), str(i + 1)) for i in range(1, n))
    return QuiverPresentation(vertices, arrows, frozenset())


def cyclic_nakayama(n: int) -> QuiverPresentation:
    """The selfinjective algebra on an oriented n-cycle with radical
    square zero: every length-2 composition is a relation."""
    if n < 1:
        raise ValueError("need at least one vertex")
    vertices = tuple(str(i) for i in range(1, n + 1))
    arrows = tuple(Arrow(f"a{i}", str(i), str(i % n + 1))
                   for i in range(1, n + 1))
    relations = frozenset((f"a{i % n + 1}", f"a{i}") for i in range(1, n + 1))
    return QuiverPresentation(vertices, arrows, relations)


def projective_line_chain(n: int) -> QuiverPresentation:
    """Endomorphism algebra of the tilting bundle on a chain of n
    projective lines: one source vertex 0 with arrows c1, c2 to the ends
    of a chain 1 .. n carrying back-and-forth arrows a_i, b_i with both
    compositions a_i b_i and b_i a_i zero."""
    if n < 2:
        raise ValueError("the chain needs at least two components")
    vertices = tuple(str(i) for i in range(0, n + 1))
    arrows = [Arrow("c1", "0", "1"), Arrow("c2", "0", str(n))]
    relations = set()
    for i in range(1, n):
        arrows.append(Arrow(f"a{i}", str(i), str(i + 1)))
        arrows.append(Arrow(f"b{i}", str(i + 1), str(i)))
        relations.add((f"b{i}", f"a{i}"))
        relations.add((f"a{i}", f"b{i}"))
    return QuiverPresentation(vertices, tuple(arrows), frozenset(relations))


EXAMPLE_EIGHT_VERTEX_DSL = """\
# eight-vertex running example: two critical 3-cycles
vertices: 1, 2, 3, 4, 5, 6, 7, 8
arrows: a: 1 -> 2; b: 2 -> 3; c: 3 -> 4;
        d: 5 -> 1; e: 6 -> 2; f: 2 -> 7;
        g: 4 -> 7; h: 8 -> 4; i: 6 -> 5;
        j: 7 -> 6; k: 7 -> 8
relations: b*a, f*e, j*f, e*j, k*g, h*k, g*h
"""


def eight_vertex_example() -> QuiverPresentation:
    return parse_presentation(EXAMPLE_EIGHT_VERTEX_DSL)
