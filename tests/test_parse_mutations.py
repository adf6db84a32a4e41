"""The program's readers against the token-by-token ones of
tests/reference.py, on mutants of every fixture and of every text of the
two error goldens: characters and keywords inserted, deleted and
replaced.  A mutant must give the same presentation or triangulation, or
the same exception class and message (for the DSL, line and column too).
"""

import json
import re

from hypothesis import given, settings, strategies as st

from gentlegp import parse_presentation, parse_triangulation
from gentlegp.quiver import _parse_sections

import reference
from conftest import DATA

FIXTURES = [p.read_text(encoding="utf-8")
            for p in sorted(DATA.glob("**/*.gentle"))]
DSL_TEXTS = FIXTURES + [
    case["text"] for case in json.loads(
        (DATA / "parse_errors_golden.json").read_text(encoding="utf-8"))]
TRI_TEXTS = [p.read_text(encoding="utf-8")
             for p in sorted(DATA.glob("**/*.tri"))] + [
    case["text"] for case in json.loads(
        (DATA / "tri_errors_golden.json").read_text(encoding="utf-8"))]

KEYWORDS = ["vertices", "arrows", "relations", "arcs", "boundary",
            "triangles"]
PIECES = [*":;,*-> ()#\n\t\r_.'@aAz0\xa0\ufeff", "->", "# c\n", "a1",
          ";;", ",,", ",;", "; ;",
          *KEYWORDS, *(k + ":" for k in KEYWORDS)]
KEYWORD = re.compile("|".join(KEYWORDS + ["->"]))
# whitespace, comments and separators, which leave many texts readable
SPACING = [" ", "\n", "\t", "\r\n", "\x0b", "\xa0", "# c\n", "#", ",", ";"]


@st.composite
def mutants(draw, texts, pieces=PIECES,
            kinds=("insert", "delete", "replace", "keyword", "beside")):
    """A text with one to four edits: a piece inserted, a span of one to
    three characters deleted or replaced by a piece, a keyword replaced
    by a piece or deleted, or a piece put just before or after a keyword,
    where the sections meet."""
    text = draw(st.sampled_from(texts))
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(kinds))
        piece = draw(st.sampled_from(pieces + [""]))
        found = [m.span() for m in KEYWORD.finditer(text)]
        if kind == "keyword" and found:
            i, j = draw(st.sampled_from(found))
        elif kind == "beside" and found:
            i = j = draw(st.sampled_from([x for span in found for x in span]))
        else:
            i = draw(st.integers(0, len(text)))
            j = i if kind == "insert" else i + draw(st.integers(1, 3))
            piece = "" if kind == "delete" else piece
        text = text[:i] + piece + text[j:]
    return text


def _outcome(read, text):
    try:
        return "read", read(text)
    except Exception as exc:
        return (type(exc).__name__, str(exc), getattr(exc, "line", None),
                getattr(exc, "column", None))


def _presentation(text):
    p = parse_presentation(text)
    return p.vertices, p.arrows, p.relations


def _triangulation(text):
    t = parse_triangulation(text)
    return t.internal_arcs, t.boundary_arcs, t.triangles


@settings(max_examples=600, deadline=None)
@given(mutants(DSL_TEXTS))
def test_dsl_mutants_read_as_the_token_walk_reads_them(text):
    assert _outcome(_presentation, text) == \
        _outcome(reference.parse_presentation, text)


@settings(max_examples=300, deadline=None)
@given(mutants(FIXTURES, SPACING, ("insert",)))
def test_dsl_texts_spaced_out_read_as_the_token_walk_reads_them(text):
    # about a third of these still parse, so they exercise the section pass
    assert _outcome(_presentation, text) == \
        _outcome(reference.parse_presentation, text)


@settings(max_examples=400, deadline=None)
@given(mutants(TRI_TEXTS))
def test_triangulation_mutants_read_as_the_reference_reads_them(text):
    assert _outcome(_triangulation, text) == \
        _outcome(reference.parse_triangulation, text)


def test_unmutated_texts_read_as_the_reference_reads_them():
    for text in DSL_TEXTS:
        assert _outcome(_presentation, text) == \
            _outcome(reference.parse_presentation, text)
    for text in TRI_TEXTS:
        assert _outcome(_triangulation, text) == \
            _outcome(reference.parse_triangulation, text)


A1 = "arrows: a: 1 -> 1"
# where a section ends, and ids that hold or end in a section's keyword
EDGES = [
    *(f"vertices: 1{end}\n{A1}\nrelations:"
      for end in (",", ";", ",;", ";;", ",,", ";,", ", ;", " ; ;")),
    *(f"vertices: 1\n{A1}{end}\nrelations:"
      for end in (";", ";;", ";;;", ",", "; ;", ";,")),
    *(f"vertices: 1\n{A1}\nrelations: a*a{end}"
      for end in (",", ";", ",;", ";;", ",,", ";,", " , ; ")),
    "vertices: ;\narrows: ;\nrelations: ;",
    "vertices: ,\narrows:\nrelations:",
    f"vertices: 1, x{A1}\nrelations:",
    f"vertices: 1\n{A1} xrelations:",
    f"vertices: 1\n{A1}\n.relations:",
    f"vertices: arrows1, 1\n{A1}\nrelations:",
    f"vertices: 1, relations\n{A1}\nrelations:",
    "vertices: 1\narrows: relationsX: 1 -> 1\nrelations:",
    f"vertices: 1\n{A1}\nrelations: arrows*a, a*vertices",
    f"vertices: 1\n{A1}\nrelations: a*a\nrelations: a*a",
    f"vertices: 1\n{A1}\nrelations: a*a\narrows:",
    f"verticesarrows: 1\n{A1}\nrelations:",
    f"vertices: 1\n{A1.replace(' ', '')}\nrelations:a*a",
]


def test_texts_at_the_edges_of_the_section_pass_read_as_the_walk_does():
    for text in EDGES:
        assert _outcome(_presentation, text) == \
            _outcome(reference.parse_presentation, text), text


def test_the_section_pass_reads_every_accepted_fixture():
    # the token walk would accept them all too, but only to name errors
    accepted = [text for text in DSL_TEXTS
                if _outcome(reference.parse_presentation, text)[0] == "read"]
    assert len(accepted) >= 15
    assert all(_parse_sections(text) is not None for text in accepted)
