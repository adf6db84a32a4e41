import json

import pytest

from gentlegp import (TriangulationError, algebra_from_triangulation,
                      algebra_presentation, gentle_violations,
                      inner_triangles, make_triangulation,
                      parse_triangulation, serialize_triangulation,
                      singularity_descriptor, verify_inner_triangle_count)
from gentlegp import parse_presentation
from gentlegp.families import cyclic_nakayama

from conftest import data_path, kronecker
from reference import is_isomorphic


def load(name):
    return parse_triangulation(data_path(name).read_text())


def test_parse_hexagon():
    t = load("hexagon.tri")
    assert t.internal_arcs == ("x", "y", "z")
    assert len(t.boundary_arcs) == 6 and len(t.triangles) == 4


def test_roundtrip():
    for name in ("hexagon.tri", "fan5.tri", "octagon2.tri"):
        t = load(name)
        back = parse_triangulation(serialize_triangulation(t))
        assert back == t and hash(back) == hash(t)


def test_triangulations_compare_by_value_of_the_same_type():
    t = load("hexagon.tri")
    # the first triangle with its orientation reversed
    flipped = make_triangulation(t.internal_arcs, t.boundary_arcs,
                                 [t.triangles[0][::-1], *t.triangles[1:]])
    assert flipped != t
    assert t != (t.internal_arcs, t.boundary_arcs, t.triangles)


def test_reject_self_folded():
    with pytest.raises(TriangulationError, match="distinct"):
        make_triangulation(["x"], ["b"], [("x", "x", "b"), ("x", "b", "x")])


def test_reject_wrong_multiplicity():
    # internal arc in only one triangle
    with pytest.raises(TriangulationError, match="expected 2"):
        make_triangulation(["x"], ["b1", "b2"], [("x", "b1", "b2")])
    # boundary segment used twice
    with pytest.raises(TriangulationError, match="expected 1"):
        make_triangulation(
            ["x"], ["b1", "b2"],
            [("x", "b1", "b2"), ("x", "b1", "b2")])


def test_reject_unknown_arc():
    with pytest.raises(TriangulationError, match="unknown arc"):
        make_triangulation(["x"], [], [("x", "y", "z")])


def test_reject_garbage_text():
    with pytest.raises(TriangulationError):
        parse_triangulation("this is not a triangulation")
    with pytest.raises(TriangulationError, match="unparsed"):
        parse_triangulation(
            "arcs: ; boundary: a, b, c; triangles: (a,b,c); junk")


def test_hexagon_inner_triangle_and_algebra():
    t = load("hexagon.tri")
    assert len(inner_triangles(t)) == 1
    p = algebra_presentation(t)
    assert is_isomorphic(p, cyclic_nakayama(3))
    a = algebra_from_triangulation(t)
    assert singularity_descriptor(a) == (3,)
    report = verify_inner_triangle_count(t)
    assert report.holds and len(report.triangles) == 1
    assert report.descriptor == (3,)


def test_fan_has_no_inner_triangle(fan5):
    t = load("fan5.tri")
    assert len(inner_triangles(t)) == 0
    assert singularity_descriptor(fan5) == ()
    report = verify_inner_triangle_count(t)
    assert report.holds and len(report.triangles) == 0
    assert report.descriptor == ()


def test_octagon_two_inner_triangles():
    t = load("octagon2.tri")
    assert len(inner_triangles(t)) == 2
    report = verify_inner_triangle_count(t)
    assert report.holds and report.descriptor == (3, 3)


def test_triangulation_algebras_are_gentle():
    for name in ("hexagon.tri", "fan5.tri", "octagon2.tri"):
        assert gentle_violations(algebra_presentation(load(name))) == []


def test_relabeling_arcs_gives_isomorphic_algebra():
    t = load("octagon2.tri")
    ren = {a: f"arc{i}" for i, a in
           enumerate(t.internal_arcs + t.boundary_arcs)}
    t2 = make_triangulation(
        [ren[a] for a in t.internal_arcs],
        [ren[a] for a in t.boundary_arcs],
        [tuple(ren[s] for s in tri) for tri in t.triangles])
    assert is_isomorphic(algebra_presentation(t), algebra_presentation(t2))
    assert verify_inner_triangle_count(t2).holds


@pytest.mark.parametrize("name", ["hexagon.tri", "fan5.tri", "octagon2.tri"])
def test_emit_algebra_validates_once_and_writes_the_recorded_file(
        name, tmp_path, capsys, monkeypatch):
    from gentlegp import cli, surface

    validations = []
    real = surface.validate_gentle

    def counting(p):
        validations.append(p)
        return real(p)

    monkeypatch.setattr(surface, "validate_gentle", counting)
    out = tmp_path / "algebra.gentle"
    assert cli.run(["surface", str(data_path(name)),
                    "--emit-algebra", str(out)]) == 0
    capsys.readouterr()
    expected = json.loads(
        data_path("surface_emit_golden.json").read_text(encoding="utf-8"))
    assert out.read_text(encoding="utf-8") == expected[name]
    assert len(validations) == 1


def test_annulus_gives_the_kronecker_algebra(tmp_path, capsys):
    # two triangles share both arcs, so the two arrows x -> y need two names
    from gentlegp import cli

    out = tmp_path / "algebra.gentle"
    assert cli.run(["surface", str(data_path("surfaces/annulus.tri")),
                    "--emit-algebra", str(out)]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "count_matches": True, "descriptor": [], "inner_count": 0,
        "inner_triangles": []}
    p = parse_presentation(out.read_text(encoding="utf-8"))
    assert is_isomorphic(p, kronecker())
    assert [(a.source, a.target) for a in p.arrows] == [("x", "y")] * 2
    assert gentle_violations(p) == []


def test_colliding_arrow_names_skip_taken_ones():
    # a -> b_c twice, and the arrow a_b -> c.2 already holds a_b_c.2
    t = make_triangulation(["a", "b_c", "a_b", "c.2"], ["o1", "i1", "i2", "o2"],
                           [("a_b", "c.2", "o1"), ("a", "b_c", "i1"),
                            ("a", "b_c", "i2"), ("a_b", "c.2", "o2")])
    assert [a.name for a in algebra_presentation(t).arrows] == [
        "a_b_c.2", "a_b_c", "a_b_c.3", "a_b_c.2.2"]
