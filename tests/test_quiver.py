import pytest
from hypothesis import given, strategies as st

from gentlegp import (Arrow, DSLSyntaxError, PresentationError,
                      QuiverPresentation, opposite, parse_presentation,
                      serialize_presentation)
from gentlegp.families import EXAMPLE_EIGHT_VERTEX_DSL, eight_vertex_example

from conftest import data_path
from reference import canonical_key, is_isomorphic


def test_parse_eight_vertex():
    p = parse_presentation(data_path("eight_vertex.gentle").read_text())
    assert len(p.vertices) == 8
    assert len(p.arrows) == 11
    assert len(p.relations) == 7
    assert ("b", "a") in p.relations
    assert ("e", "j") in p.relations


def test_parse_empty_quiver():
    p = parse_presentation("vertices: 1; arrows: ; relations: ;")
    assert p.vertices == ("1",)
    assert p.arrows == ()
    assert p.relations == frozenset()


def test_parse_non_composable_relation():
    doc = "vertices: 1, 2, 3\narrows: a: 1 -> 2; b: 1 -> 3\nrelations: a*b"
    with pytest.raises(PresentationError, match="not composable"):
        parse_presentation(doc)


def test_parse_unknown_arrow_in_relation():
    doc = "vertices: 1, 2\narrows: a: 1 -> 2\nrelations: a*zz"
    with pytest.raises(PresentationError, match="unknown arrow"):
        parse_presentation(doc)


def test_parse_unknown_vertex():
    doc = "vertices: 1\narrows: a: 1 -> 9\nrelations:"
    with pytest.raises(PresentationError, match="undeclared"):
        parse_presentation(doc)


def test_syntax_error_carries_position():
    doc = "vertices: 1, 2\narrows: a 1 -> 2\nrelations:"
    with pytest.raises(DSLSyntaxError) as err:
        parse_presentation(doc)
    assert err.value.line == 2


def test_duplicate_relation_rejected():
    doc = "vertices: 1,2,3\narrows: a: 1->2; b: 2->3\nrelations: b*a, b*a"
    with pytest.raises(PresentationError, match="duplicate relation"):
        parse_presentation(doc)


def test_comments_and_whitespace_insensitive():
    messy = ("# header\nvertices:   1 ,2,  3 # trailing\n"
             "arrows: a: 1 ->2 ;\n   b :2-> 3\nrelations:\n  b*a\n")
    tidy = "vertices: 1, 2, 3\narrows: a: 1 -> 2; b: 2 -> 3\nrelations: b*a"
    assert parse_presentation(messy) == parse_presentation(tidy)


def test_roundtrip_eight_vertex():
    p = eight_vertex_example()
    assert parse_presentation(serialize_presentation(p)) == p


def test_roundtrip_empty():
    p = QuiverPresentation(("v",), (), frozenset())
    assert parse_presentation(serialize_presentation(p)) == p


def test_serialize_lambda3_relations():
    from gentlegp.families import projective_line_chain

    doc = serialize_presentation(projective_line_chain(3))
    for token in ("a1*b1", "b1*a1", "a2*b2", "b2*a2"):
        assert token in doc


def test_opposite_a2():
    p = parse_presentation("vertices: 1,2\narrows: a: 1 -> 2\nrelations:")
    q = opposite(p)
    assert q.arrow_map["a"].source == "2"
    assert q.arrow_map["a"].target == "1"


def test_opposite_eight_vertex():
    p = eight_vertex_example()
    q = opposite(p)
    assert len(q.arrows) == 11 and len(q.relations) == 7
    assert ("a", "b") in q.relations
    assert opposite(q) == p


@st.composite
def presentations(draw):
    n = draw(st.integers(1, 4))
    vertices = tuple(f"v{i}" for i in range(n))
    n_arrows = draw(st.integers(0, 5))
    arrows = []
    for i in range(n_arrows):
        s = draw(st.sampled_from(vertices))
        t = draw(st.sampled_from(vertices))
        arrows.append(Arrow(f"x{i}", s, t))
    composable = [(b.name, a.name) for a in arrows for b in arrows
                  if a.target == b.source]
    rels = draw(st.sets(st.sampled_from(composable), max_size=4)) \
        if composable else set()
    return QuiverPresentation(vertices, tuple(arrows), frozenset(rels))


@given(presentations())
def test_roundtrip_random(p):
    q = parse_presentation(serialize_presentation(p))
    assert q == p and hash(q) == hash(p)


def test_presentations_compare_by_value_of_the_same_type():
    p = eight_vertex_example()
    fewer = QuiverPresentation(p.vertices, p.arrows,
                               frozenset(sorted(p.relations)[1:]))
    assert fewer != p
    assert p != (p.vertices, p.arrows, p.relations)


@given(presentations())
def test_opposite_involution_random(p):
    assert opposite(opposite(p)) == p


def test_relabeling_gives_isomorphic_presentation():
    p = eight_vertex_example()
    vmap = {v: f"w{v}" for v in p.vertices}
    amap = {a.name: f"arr_{a.name}" for a in p.arrows}
    q = QuiverPresentation(
        tuple(vmap[v] for v in p.vertices),
        tuple(Arrow(amap[a.name], vmap[a.source], vmap[a.target])
              for a in p.arrows),
        frozenset((amap[b], amap[a]) for b, a in p.relations))
    assert is_isomorphic(p, q)
    assert canonical_key(p) == canonical_key(q)


def test_non_isomorphic_detected():
    p = parse_presentation("vertices: 1,2\narrows: a: 1->2\nrelations:")
    q = parse_presentation("vertices: 1,2\narrows: a: 1->1\nrelations:")
    assert not is_isomorphic(p, q)


def test_embedded_dsl_matches_file():
    assert (parse_presentation(EXAMPLE_EIGHT_VERTEX_DSL)
            == parse_presentation(data_path("eight_vertex.gentle").read_text()))
