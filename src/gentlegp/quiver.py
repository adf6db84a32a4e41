"""Quiver presentations: parsing, serialization, opposite quiver.

A relation is stored as an ordered pair ``(later, earlier)``: the length-2
path "first ``earlier``, then ``later``" is declared zero.  The DSL token
``b*a`` therefore yields the relation ``("b", "a")``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from itertools import permutations
from types import MappingProxyType


class InputError(ValueError):
    """Input rejected: a field spec, word, band or bound that is invalid."""


class QuiverError(ValueError):
    """Base class for presentation-level problems."""


class DSLSyntaxError(QuiverError):
    def __init__(self, message, line, column):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class PresentationError(QuiverError):
    """Semantically invalid presentation (unknown ids, bad composability)."""


@dataclass(frozen=True)
class Arrow:
    name: str
    source: str
    target: str


@dataclass(frozen=True)
class Path:
    """A path in the quiver; arrows listed in traversal order.

    An empty arrow tuple with source == target encodes the lazy path e_v.
    """

    arrows: tuple[str, ...]
    source: str
    target: str

    def __len__(self):
        return len(self.arrows)

    @property
    def is_lazy(self):
        return not self.arrows


@dataclass(frozen=True)
class QuiverPresentation:
    vertices: tuple[str, ...]
    arrows: tuple[Arrow, ...]
    relations: frozenset[tuple[str, str]]

    def __post_init__(self):
        seen_v = set()
        for v in self.vertices:
            if v in seen_v:
                raise PresentationError(f"duplicate vertex id {v!r}")
            seen_v.add(v)
        seen_a = {}
        for a in self.arrows:
            if a.name in seen_a:
                raise PresentationError(f"duplicate arrow id {a.name!r}")
            if a.source not in seen_v:
                raise PresentationError(
                    f"arrow {a.name!r} has undeclared source {a.source!r}")
            if a.target not in seen_v:
                raise PresentationError(
                    f"arrow {a.name!r} has undeclared target {a.target!r}")
            seen_a[a.name] = a
        for later, earlier in self.relations:
            if later not in seen_a or earlier not in seen_a:
                raise PresentationError(
                    f"relation {later}*{earlier} references an unknown arrow")
            if seen_a[earlier].target != seen_a[later].source:
                raise PresentationError(
                    f"relation {later}*{earlier} is not composable: "
                    f"target({earlier}) = {seen_a[earlier].target!r} but "
                    f"source({later}) = {seen_a[later].source!r}")

    @cached_property
    def arrow_map(self):
        return MappingProxyType({a.name: a for a in self.arrows})

    @cached_property
    def _adjacency(self):
        """Per vertex, the arrows leaving it and entering it, in
        declaration order; built once per presentation."""
        out = {v: [] for v in self.vertices}
        into = {v: [] for v in self.vertices}
        for a in self.arrows:
            out[a.source].append(a)
            into[a.target].append(a)
        return ({v: tuple(arrows) for v, arrows in out.items()},
                {v: tuple(arrows) for v, arrows in into.items()})

    def arrows_out(self, v):
        return self._adjacency[0].get(v, ())

    def arrows_in(self, v):
        return self._adjacency[1].get(v, ())

    def lazy_path(self, v):
        if v not in self.vertices:
            raise PresentationError(f"unknown vertex {v!r}")
        return Path((), v, v)


def opposite(p: QuiverPresentation) -> QuiverPresentation:
    """Reverse every arrow; relation (b, a) becomes (a, b)."""
    arrows = tuple(Arrow(a.name, a.target, a.source) for a in p.arrows)
    relations = frozenset((a, b) for (b, a) in p.relations)
    return QuiverPresentation(p.vertices, arrows, relations)


_IDENT = re.compile(r"[A-Za-z0-9_.']+")


class _Cursor:
    def __init__(self, text):
        self.text = text
        self.pos = 0

    def _line_col(self, pos):
        line = self.text.count("\n", 0, pos) + 1
        col = pos - (self.text.rfind("\n", 0, pos) + 1) + 1
        return line, col

    def error(self, message, pos=None):
        line, col = self._line_col(self.pos if pos is None else pos)
        raise DSLSyntaxError(message, line, col)

    def skip_ws(self):
        while self.pos < len(self.text):
            ch = self.text[self.pos]
            if ch == "#":
                nl = self.text.find("\n", self.pos)
                self.pos = len(self.text) if nl < 0 else nl
            elif ch.isspace():
                self.pos += 1
            else:
                break

    def eof(self):
        self.skip_ws()
        return self.pos >= len(self.text)

    def peek(self):
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, literal):
        self.skip_ws()
        if not self.text.startswith(literal, self.pos):
            self.error(f"expected {literal!r}")
        self.pos += len(literal)

    def try_consume(self, literal):
        self.skip_ws()
        if self.text.startswith(literal, self.pos):
            self.pos += len(literal)
            return True
        return False

    def ident(self, what="identifier"):
        self.skip_ws()
        m = _IDENT.match(self.text, self.pos)
        if not m:
            self.error(f"expected {what}")
        self.pos = m.end()
        return m.group(0)


def parse_presentation(text: str) -> QuiverPresentation:
    """Parse the quiver DSL.

    Sections, in fixed order::

        vertices: v1, v2, ...
        arrows: a: v1 -> v2; ...
        relations: b*a, ...

    ``#`` starts a comment.  The ``arrows`` and ``relations`` sections may
    be empty.
    """
    cur = _Cursor(text)

    cur.expect("vertices")
    cur.expect(":")
    vertices = []
    while cur.peek() not in ("", ";") and not cur.text.startswith("arrows", cur.pos):
        vertices.append(cur.ident("vertex id"))
        if not cur.try_consume(","):
            break
    cur.try_consume(";")

    cur.expect("arrows")
    cur.expect(":")
    arrows = []
    while True:
        cur.skip_ws()
        if cur.peek() in ("", ";") or cur.text.startswith("relations", cur.pos):
            break
        name = cur.ident("arrow id")
        cur.expect(":")
        src = cur.ident("source vertex")
        cur.expect("->")
        tgt = cur.ident("target vertex")
        arrows.append(Arrow(name, src, tgt))
        if not cur.try_consume(";"):
            break
    cur.try_consume(";")

    cur.expect("relations")
    cur.expect(":")
    relations = []
    while cur.peek() not in ("", ";"):
        later = cur.ident("arrow id")
        cur.expect("*")
        earlier = cur.ident("arrow id")
        pair = (later, earlier)
        if pair in relations:
            raise PresentationError(f"duplicate relation {later}*{earlier}")
        relations.append(pair)
        if not cur.try_consume(","):
            break
    cur.try_consume(";")
    if not cur.eof():
        cur.error("unexpected trailing input")

    return QuiverPresentation(tuple(vertices), tuple(arrows),
                              frozenset(relations))


def serialize_presentation(p: QuiverPresentation) -> str:
    lines = ["vertices: " + ", ".join(p.vertices)]
    arrow_items = "; ".join(f"{a.name}: {a.source} -> {a.target}"
                            for a in p.arrows)
    lines.append("arrows: " + arrow_items)
    rels = sorted(p.relations)
    lines.append("relations: " + ", ".join(f"{b}*{a}" for b, a in rels))
    return "\n".join(lines) + "\n"


def _vertex_invariant(p, v):
    return (len(p.arrows_out(v)), len(p.arrows_in(v)))


def canonical_key(p: QuiverPresentation):
    """A key invariant under renaming of vertices and arrows.

    Brute-force over vertex bijections compatible with degree invariants;
    fine at the sizes this library targets.
    """
    by_inv = {}
    for v in p.vertices:
        by_inv.setdefault(_vertex_invariant(p, v), []).append(v)
    groups = sorted(by_inv.items())
    best = None
    for perm_parts in _group_permutations([vs for _, vs in groups]):
        order = [v for part in perm_parts for v in part]
        vidx = {v: i for i, v in enumerate(order)}
        edges = sorted((vidx[a.source], vidx[a.target]) for a in p.arrows)
        # parallel arrows are interchangeable a priori; minimize over their
        # orderings so relations involving them canonicalize too
        by_edge = {}
        for a in sorted(p.arrows, key=lambda a: (vidx[a.source], vidx[a.target])):
            by_edge.setdefault((vidx[a.source], vidx[a.target]), []).append(a.name)
        edge_groups = [names for _, names in sorted(by_edge.items())]
        for parts in _group_permutations(edge_groups):
            aidx = {}
            for part in parts:
                for name in part:
                    aidx[name] = len(aidx)
            rels = sorted((aidx[b], aidx[a]) for b, a in p.relations)
            key = (len(p.vertices), tuple(edges), tuple(rels))
            if best is None or key < best:
                best = key
    return best


def _group_permutations(groups):
    if not groups:
        yield []
        return
    head, rest = groups[0], groups[1:]
    for perm in permutations(head):
        for tail in _group_permutations(rest):
            yield [list(perm)] + tail


def is_isomorphic(p: QuiverPresentation, q: QuiverPresentation) -> bool:
    """Presentation isomorphism up to relabeling of vertices and arrows."""
    if len(p.vertices) != len(q.vertices) or len(p.arrows) != len(q.arrows):
        return False
    if len(p.relations) != len(q.relations):
        return False
    return canonical_key(p) == canonical_key(q)
