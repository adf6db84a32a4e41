"""Combinatorial triangulations of unpunctured marked surfaces and the
gentle algebras they generate."""

from __future__ import annotations

import re
from collections import Counter
from itertools import chain
from typing import NamedTuple

from .gentle import GentleAlgebra, validate_gentle
from .gp import singularity_descriptor
from .quiver import Arrow, InputError, QuiverPresentation


class TriangulationError(InputError):
    pass


class Triangulation:
    """Compares and hashes by value: its arcs and triangles, each
    triangle's sides in cyclic orientation."""

    def __init__(self, internal_arcs: tuple[str, ...],
                 boundary_arcs: tuple[str, ...],
                 triangles: tuple[tuple[str, str, str], ...]):
        self.internal_arcs = internal_arcs
        self.boundary_arcs = boundary_arcs
        self.triangles = triangles

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.internal_arcs, self.boundary_arcs, self.triangles) == \
            (other.internal_arcs, other.boundary_arcs, other.triangles)

    def __hash__(self):
        return hash((self.internal_arcs, self.boundary_arcs, self.triangles))


def _validate(internal, boundary, triangles):
    """Check the arcs and triangles in bulk; walk them in order only to
    name the first fault."""
    expected = dict.fromkeys(internal, 2) | dict.fromkeys(boundary, 1)
    if len(expected) == len(internal) + len(boundary) and \
            sum(map(len, map(set, triangles))) == 3 * len(triangles) and \
            dict(Counter(chain.from_iterable(triangles))) == expected:
        return
    for ids in (internal, boundary):
        seen = set()
        for arc in ids:
            if arc in seen:
                raise TriangulationError(f"duplicate arc id {arc!r}")
            seen.add(arc)
    arcs = set(internal) | set(boundary)
    if len(arcs) != len(internal) + len(boundary):
        raise TriangulationError("an arc id appears in both arc lists")
    counts = {a: 0 for a in arcs}
    for tri in triangles:
        if len(set(tri)) != 3:
            raise TriangulationError(
                f"self-folded triangle {tri}: sides must be distinct")
        for side in tri:
            if side not in counts:
                raise TriangulationError(f"unknown arc {side!r} in {tri}")
            counts[side] += 1
    for arc in internal:
        if counts[arc] != 2:
            raise TriangulationError(
                f"internal arc {arc!r} lies in {counts[arc]} triangles, "
                "expected 2")
    for arc in boundary:
        if counts[arc] != 1:
            raise TriangulationError(
                f"boundary segment {arc!r} lies in {counts[arc]} triangles, "
                "expected 1")


def make_triangulation(internal, boundary, triangles) -> Triangulation:
    internal = tuple(internal)
    boundary = tuple(boundary)
    triangles = tuple(map(tuple, triangles))
    _validate(internal, boundary, triangles)
    return Triangulation(internal, boundary, triangles)


# each section runs up to the next header; _arc_list cuts off the ';' that
# ends one
_SECTION = re.compile(r"arcs\s*:(?P<arcs>.*?)boundary\s*:(?P<boundary>.*?)"
                      r"triangles\s*:(?P<triangles>.*)", re.S)
# the sides still carry the whitespace around them
_TRIANGLE = re.compile(r"\(([^(),]+),([^(),]+),([^(),]+)\)")


def parse_triangulation(text: str) -> Triangulation:
    """Format: ``arcs: x, y; boundary: b1, b2; triangles: (s1,s2,s3); ...``
    with sides listed in cyclic orientation order; ``#`` comments.  Only
    whitespace and comments may come before ``arcs:``."""
    body = "\n".join(line.split("#", 1)[0] for line in text.splitlines())
    m = _SECTION.search(body)
    if not m:
        raise TriangulationError(
            "expected sections 'arcs:', 'boundary:', 'triangles:'")
    if lead := body[:m.start()].strip():
        raise TriangulationError(f"unexpected text before 'arcs:': {lead!r}")
    internal = _arc_list(m["arcs"])
    boundary = _arc_list(m["boundary"])
    # one split: the text around the triangles, then each one's sides
    parts = _TRIANGLE.split(m["triangles"])
    leftover = "".join(parts[::4]).replace(";", "").replace(",", "").strip()
    if leftover:
        raise TriangulationError(f"unparsed triangle text: {leftover!r}")
    sides = [map(str.strip, parts[i::4]) for i in (1, 2, 3)]
    return make_triangulation(internal, boundary, zip(*sides))


def _arc_list(section):
    section = section.rstrip().removesuffix(";")
    return list(filter(None, map(str.strip, section.split(","))))


def serialize_triangulation(t: Triangulation) -> str:
    tris = "; ".join(f"({a},{b},{c})" for a, b, c in t.triangles)
    return (f"arcs: {', '.join(t.internal_arcs)};\n"
            f"boundary: {', '.join(t.boundary_arcs)};\n"
            f"triangles: {tris}\n")


def inner_triangles(t: Triangulation) -> tuple:
    """Triangles all of whose sides are internal arcs."""
    internal = set(t.internal_arcs)
    return tuple(tri for tri in t.triangles if internal.issuperset(tri))


def algebra_presentation(t: Triangulation) -> QuiverPresentation:
    """Vertices are internal arcs; each triangle contributes an arrow
    between cyclically adjacent internal sides, and its compositions of
    same-triangle arrows are the relations.  An arrow is named
    ``{s}_{d}``; one whose name is taken (two triangles with the same two
    sides, as on an annulus) gets the first free ``{s}_{d}.{k}``, k >= 2."""
    internal = set(t.internal_arcs)
    arrows = []
    names = set()
    relations = set()

    def arrow(s, d):
        name, k = f"{s}_{d}", 1
        while name in names:
            k += 1
            name = f"{s}_{d}.{k}"
        names.add(name)
        arrows.append(Arrow(name, s, d))
        return name

    for x, y, z in t.triangles:
        inside = x in internal, y in internal, z in internal
        if all(inside):
            # make_triangulation keeps the sides distinct, so only here do
            # two arrows of a triangle compose: each with the next, to 0
            a, b, c = arrow(x, y), arrow(y, z), arrow(z, x)
            relations.update(((b, a), (c, b), (a, c)))
        elif inside[0] and inside[1]:
            arrow(x, y)
        elif inside[1] and inside[2]:
            arrow(y, z)
        elif inside[2] and inside[0]:
            arrow(z, x)
    return QuiverPresentation(tuple(t.internal_arcs), tuple(arrows),
                              frozenset(relations))


def algebra_from_triangulation(t: Triangulation) -> GentleAlgebra:
    return validate_gentle(algebra_presentation(t))


class InnerCountReport(NamedTuple):
    holds: bool
    descriptor: tuple[int, ...]
    triangles: tuple


def verify_inner_triangle_count(t: Triangulation) -> InnerCountReport:
    """The number of singularity-category factors must equal the number
    of inner triangles, every factor of length three."""
    a = algebra_from_triangulation(t)
    desc = singularity_descriptor(a)
    inner = inner_triangles(t)
    holds = len(desc) == len(inner) and all(l == 3 for l in desc)
    return InnerCountReport(holds, desc, inner)
