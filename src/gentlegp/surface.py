"""Combinatorial triangulations of unpunctured marked surfaces and the
gentle algebras they generate."""

from __future__ import annotations

import re
from functools import cached_property
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

    @cached_property
    def _internal(self):
        return frozenset(self.internal_arcs)

    def is_internal(self, arc):
        return arc in self._internal


def _validate(internal, boundary, triangles):
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
    triangles = tuple(tuple(t) for t in triangles)
    _validate(internal, boundary, triangles)
    return Triangulation(internal, boundary, triangles)


_SECTION = re.compile(
    r"arcs\s*:(?P<arcs>.*?);?\s*boundary\s*:(?P<boundary>.*?);?\s*"
    r"triangles\s*:(?P<triangles>.*)", re.S)
_TRIANGLE = re.compile(r"\(\s*([^(),]+?)\s*,\s*([^(),]+?)\s*,\s*([^(),]+?)\s*\)")


def parse_triangulation(text: str) -> Triangulation:
    """Format: ``arcs: x, y; boundary: b1, b2; triangles: (s1,s2,s3); ...``
    with sides listed in cyclic orientation order; ``#`` comments."""
    body = "\n".join(line.split("#", 1)[0] for line in text.splitlines())
    m = _SECTION.search(body)
    if not m:
        raise TriangulationError(
            "expected sections 'arcs:', 'boundary:', 'triangles:'")
    internal = [s.strip() for s in m.group("arcs").split(",") if s.strip()]
    boundary = [s.strip() for s in m.group("boundary").split(",") if s.strip()]
    tri_text = m.group("triangles")
    triangles = [tuple(g.strip() for g in t) for t in _TRIANGLE.findall(tri_text)]
    leftover = _TRIANGLE.sub("", tri_text).replace(";", "").replace(",", "").strip()
    if leftover:
        raise TriangulationError(f"unparsed triangle text: {leftover!r}")
    return make_triangulation(internal, boundary, triangles)


def serialize_triangulation(t: Triangulation) -> str:
    tris = "; ".join(f"({a},{b},{c})" for a, b, c in t.triangles)
    return (f"arcs: {', '.join(t.internal_arcs)};\n"
            f"boundary: {', '.join(t.boundary_arcs)};\n"
            f"triangles: {tris}\n")


def inner_triangles(t: Triangulation) -> tuple:
    """Triangles all of whose sides are internal arcs."""
    return tuple(tri for tri in t.triangles
                 if all(t.is_internal(s) for s in tri))


def algebra_presentation(t: Triangulation) -> QuiverPresentation:
    """Vertices are internal arcs; each triangle contributes an arrow
    between cyclically adjacent internal sides, and its compositions of
    same-triangle arrows are the relations.  An arrow is named
    ``{s}_{d}``; one whose name is taken (two triangles with the same two
    sides, as on an annulus) gets the first free ``{s}_{d}.{k}``, k >= 2."""
    arrows = []
    names = set()
    relations = set()
    for tri in t.triangles:
        tri_arrows = []  # (name, src, dst) within this triangle
        for i in range(3):
            s, d = tri[i], tri[(i + 1) % 3]
            if t.is_internal(s) and t.is_internal(d):
                name, k = f"{s}_{d}", 1
                while name in names:
                    k += 1
                    name = f"{s}_{d}.{k}"
                names.add(name)
                arrows.append(Arrow(name, s, d))
                tri_arrows.append((name, s, d))
        # compositions of consecutive arrows from the same triangle vanish
        for n1, s1, d1 in tri_arrows:
            for n2, s2, d2 in tri_arrows:
                if n1 != n2 and d1 == s2:
                    relations.add((n2, n1))  # first n1 then n2 is zero
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
