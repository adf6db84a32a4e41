"""Quiver presentations: parsing, serialization, opposite quiver.

A relation is stored as an ordered pair ``(later, earlier)``: the length-2
path "first ``earlier``, then ``later``" is declared zero.  The DSL token
``b*a`` therefore yields the relation ``("b", "a")``.
"""

from __future__ import annotations

import re
from functools import cached_property
from itertools import islice
from types import MappingProxyType
from typing import NamedTuple


class InputError(ValueError):
    """Bad input: the base of every error the input is at fault for, a
    presentation, triangulation, file, field spec, word or bound."""


class QuiverError(InputError):
    """Base class for presentation-level problems."""


class DSLSyntaxError(QuiverError):
    def __init__(self, message, line, column):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class PresentationError(QuiverError):
    """Semantically invalid presentation (unknown ids, bad composability)."""


class Arrow(NamedTuple):
    name: str
    source: str
    target: str


class QuiverPresentation:
    """Compares and hashes by value: its vertices, arrows and relations."""

    def __init__(self, vertices: tuple[str, ...], arrows: tuple[Arrow, ...],
                 relations: frozenset[tuple[str, str]]):
        self.vertices = vertices
        self.arrows = arrows
        self.relations = relations
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
        faulty = [(later, earlier) for later, earlier in self.relations
                  if later not in seen_a or earlier not in seen_a
                  or seen_a[earlier].target != seen_a[later].source]
        if faulty:
            # the set's order follows the string hash seed: name the
            # least faulty relation, so the message is reproducible
            later, earlier = min(faulty)
            if later not in seen_a or earlier not in seen_a:
                raise PresentationError(
                    f"relation {later}*{earlier} references an unknown arrow")
            raise PresentationError(
                f"relation {later}*{earlier} is not composable: "
                f"target({earlier}) = {seen_a[earlier].target!r} but "
                f"source({later}) = {seen_a[later].source!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.vertices, self.arrows, self.relations) == \
            (other.vertices, other.arrows, other.relations)

    def __hash__(self):
        return hash((self.vertices, self.arrows, self.relations))

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


def opposite(p: QuiverPresentation) -> QuiverPresentation:
    """Reverse every arrow; relation (b, a) becomes (a, b)."""
    arrows = tuple(Arrow(a.name, a.target, a.source) for a in p.arrows)
    relations = frozenset((a, b) for (b, a) in p.relations)
    return QuiverPresentation(p.vertices, arrows, relations)


# one match per token: the whitespace and comments before it, then the
# token itself (an identifier, "->", any other single character, or "" at
# the end of the text); compiled on first use, by a text the sections do
# not read
_TOKEN = r"(?s)(?:\s|#[^\n]*)*([A-Za-z0-9_.']+|->|.|\Z)"
_IDENT_CHARS = frozenset(
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789_.'")
_ID = r"([A-Za-z0-9_.']+)"
_COMMENT = re.compile(r"#[^\n]*")
_VERTEX = re.compile(_ID)
_ARROW = re.compile(rf"{_ID}\s*:\s*{_ID}\s*->\s*{_ID}")
_RELATION = re.compile(rf"{_ID}\s*\*\s*{_ID}")


def parse_presentation(text: str) -> QuiverPresentation:
    """Parse the quiver DSL.

    Sections, in fixed order::

        vertices: v1, v2, ...
        arrows: a: v1 -> v2; ...
        relations: b*a, ...

    ``#`` starts a comment.  The ``arrows`` and ``relations`` sections may
    be empty.

    There are two passes.  A well-formed text is read section by section,
    each in one regex split, with no Python loop per token.  A text that
    pass turns down, every malformed one among them, goes to the token
    walk of :func:`_parse_tokens`: it reads a text the first pass takes
    the same way, and it alone can name the first error by line and
    column.
    """
    p = _parse_sections(text)
    return p if p is not None else _parse_tokens(text)


def _items(pattern, section, sep):
    """Per group of ``pattern``, the list of what it captures in each
    match, when ``section`` is nothing but the matches joined by ``sep``,
    then an optional ``sep`` and an optional ';', whitespace aside; else
    None."""
    parts = pattern.split(section)
    gaps = parts[::pattern.groups + 1]
    last = "".join(gaps[-1].split())
    if len(gaps) == 1:
        return [[]] * pattern.groups if last in ("", ";") else None
    if (gaps[0].strip() or last not in ("", ";", sep, sep + ";")
            or list(map(str.strip, gaps[1:-1])) != [sep] * (len(gaps) - 2)):
        return None
    return [parts[i::pattern.groups + 1]
            for i in range(1, pattern.groups + 1)]


def _parse_sections(text):
    """The presentation of a text that splits into well-formed sections,
    else None.  The headers must be the first ``arrows`` in the text and
    the first ``relations`` after it: the token walk ends a list at an id
    that begins with the next section's keyword, so a text with such an
    id is left to it, as is a duplicate relation."""
    if "#" in text:
        text = _COMMENT.sub("", text)
    a = text.find("arrows")
    r = text.find("relations", a)
    if a < 0 or r < 0 or text[a - 1:a] in _IDENT_CHARS or \
            text[r - 1:r] in _IDENT_CHARS:
        return None
    sections = []
    for keyword, section in (("vertices", text[:a]), ("arrows", text[a:r]),
                             ("relations", text[r:])):
        head, colon, body = section.partition(":")
        if head.strip() != keyword or not colon:
            return None
        sections.append(body)
    vertices = _items(_VERTEX, sections[0], ",")
    arrows = _items(_ARROW, sections[1], ";")
    relations = _items(_RELATION, sections[2], ",")
    if vertices is None or arrows is None or relations is None:
        return None
    pairs = list(zip(*relations))
    # a set first, as the token walk builds it: the first faulty relation
    # named is the first in the frozenset's order
    relations = set(pairs)
    if len(relations) < len(pairs):
        return None
    return QuiverPresentation(tuple(vertices[0]), tuple(map(Arrow, *arrows)),
                              frozenset(relations))


def _parse_tokens(text):
    """Parse the DSL one token at a time, raising DSLSyntaxError with the
    line and column of the first token that does not fit."""
    toks = re.findall(_TOKEN, text)

    def fail(message, i, offset=0):
        # where token i starts is looked up only now that it is needed
        token = next(islice(re.finditer(_TOKEN, text), i, None))
        pos = token.start(1) + offset
        line = text.count("\n", 0, pos) + 1
        raise DSLSyntaxError(message, line, pos - text.rfind("\n", 0, pos))

    def expect(i, literal):
        if toks[i] != literal:
            fail(f"expected {literal!r}", i)

    def ident(i, what):
        if toks[i][:1] not in _IDENT_CHARS:
            fail(f"expected {what}", i)
        return toks[i]

    def header(i, keyword):
        """The index after the section header ``keyword:`` at token i."""
        if toks[i] != keyword:
            if toks[i].startswith(keyword):  # an identifier such as arrows1
                fail("expected ':'", i, len(keyword))
            fail(f"expected {keyword!r}", i)
        expect(i + 1, ":")
        return i + 2

    i = header(0, "vertices")
    vertices = []
    while toks[i] not in ("", ";") and not toks[i].startswith("arrows"):
        vertices.append(ident(i, "vertex id"))
        i += 1
        if toks[i] != ",":
            break
        i += 1
    i = header(i + (toks[i] == ";"), "arrows")

    arrows = []
    while toks[i] not in ("", ";") and not toks[i].startswith("relations"):
        name = ident(i, "arrow id")
        expect(i + 1, ":")
        src = ident(i + 2, "source vertex")
        expect(i + 3, "->")
        arrows.append(Arrow(name, src, ident(i + 4, "target vertex")))
        i += 5
        if toks[i] != ";":
            break
        i += 1
    i = header(i + (toks[i] == ";"), "relations")

    relations = set()
    while toks[i] not in ("", ";"):
        later = ident(i, "arrow id")
        expect(i + 1, "*")
        pair = (later, ident(i + 2, "arrow id"))
        if pair in relations:
            raise PresentationError(f"duplicate relation {pair[0]}*{pair[1]}")
        relations.add(pair)
        i += 3
        if toks[i] != ",":
            break
        i += 1
    i += toks[i] == ";"
    if toks[i]:
        fail("unexpected trailing input", i)

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

