"""The per-presentation adjacency index and the per-algebra path grouping
against linear scans kept here as the reference."""

import pytest

from gentlegp import (GentleAlgebra, parse_presentation, regular_dim_at,
                      validate_gentle)
from gentlegp.families import (cyclic_nakayama, kronecker, linear_quiver,
                               projective_line_chain)

from conftest import data_path


def _family_algebras():
    algebras = {"kronecker": validate_gentle(kronecker())}
    for n in (1, 2, 5, 12):
        algebras[f"A{n}"] = validate_gentle(linear_quiver(n))
    for n in (2, 3, 6):
        algebras[f"lambda{n}"] = validate_gentle(projective_line_chain(n))
    for n in (1, 2, 6):
        algebras[f"I{n}"] = validate_gentle(cyclic_nakayama(n))
    return algebras


@pytest.fixture(scope="module")
def zoo(all_fixture_algebras):
    return {**all_fixture_algebras, **_family_algebras()}


def test_adjacency_matches_linear_scan(zoo):
    notgentle = parse_presentation(data_path("notgentle.gentle").read_text())
    presentations = [a.presentation for a in zoo.values()] + [notgentle]
    for p in presentations:
        assert dict(p.arrow_map) == {a.name: a for a in p.arrows}
        for v in p.vertices:
            assert list(p.arrows_out(v)) == [a for a in p.arrows
                                             if a.source == v]
            assert list(p.arrows_in(v)) == [a for a in p.arrows
                                            if a.target == v]


def test_basis_paths_from_matches_linear_scan(zoo):
    for a in zoo.values():
        for v in a.vertices:
            assert list(a.basis_paths_from(v)) == [
                q for q in a.path_basis if q.source == v]


def test_regular_dim_at_matches_linear_scan(zoo):
    for a in zoo.values():
        for v in a.vertices:
            assert regular_dim_at(a, v) == sum(
                1 for q in a.path_basis if q.target == v)
        assert regular_dim_at(a, "nowhere") == 0


def test_index_is_built_once_and_read_only(eightv):
    p = eightv.presentation
    assert p.arrow_map is p.arrow_map
    assert p.arrows_out("2") is p.arrows_out("2")
    assert p.arrows_in("2") is p.arrows_in("2")
    assert eightv.basis_paths_from("7") is eightv.basis_paths_from("7")
    for seq in (p.arrows_out("2"), p.arrows_in("2"),
                eightv.basis_paths_from("7")):
        assert isinstance(seq, tuple)
    with pytest.raises(TypeError):
        p.arrow_map["z"] = p.arrows[0]


def test_unknown_vertex_yields_empty(eightv):
    p = eightv.presentation
    assert p.arrows_out("nowhere") == ()
    assert p.arrows_in("nowhere") == ()
    assert eightv.basis_paths_from("nowhere") == ()


def test_algebras_compare_by_identity(eightv):
    twin = validate_gentle(eightv.presentation)
    assert twin != eightv and twin == twin
    assert twin.presentation == eightv.presentation
    assert GentleAlgebra.__hash__ is object.__hash__
    assert hash(twin) == object.__hash__(twin)
    assert not hasattr(eightv, "_basis_set")
