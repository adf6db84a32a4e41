"""The per-presentation adjacency index and the projectives against
linear scans of the path basis, kept here as the reference."""

from collections import Counter

import pytest

from gentlegp import (QQ, GentleAlgebra, parse_presentation, projective_rep,
                      regular_rep, validate_gentle)
from gentlegp.families import (cyclic_nakayama, linear_quiver,
                               projective_line_chain)

from conftest import data_path, kronecker
from reference import path_basis
from test_gentle import _basis_zoo


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


def _zoo_and_basis_zoo(zoo):
    return list(zoo.values()) + [validate_gentle(p) for p in _basis_zoo()]


def test_basis_paths_from_matches_linear_scan(zoo):
    # P_v is built as a string module; its dimension at w is the number of
    # basis paths from v to w
    for a in _zoo_and_basis_zoo(zoo):
        ends = Counter((q.source, q.target) for q in path_basis(a))
        for v in a.vertices:
            assert projective_rep(a, v, QQ).dims == {
                w: ends[v, w] for w in a.vertices if ends[v, w]}


def test_regular_dim_at_matches_linear_scan(zoo):
    # ext_profile reads dim Hom(P_v, Lambda) as the dimension of the
    # regular module at v, which is the number of basis paths ending at v
    for a in _zoo_and_basis_zoo(zoo):
        assert regular_rep(a, QQ).dims == Counter(
            q.target for q in path_basis(a))


def test_index_is_built_once_and_read_only(eightv):
    p = eightv.presentation
    assert p.arrow_map is p.arrow_map
    assert p.arrows_out("2") is p.arrows_out("2")
    assert p.arrows_in("2") is p.arrows_in("2")
    for seq in (p.arrows_out("2"), p.arrows_in("2")):
        assert isinstance(seq, tuple)
    with pytest.raises(TypeError):
        p.arrow_map["z"] = p.arrows[0]


def test_unknown_vertex_yields_empty(eightv):
    p = eightv.presentation
    assert p.arrows_out("nowhere") == ()
    assert p.arrows_in("nowhere") == ()


def test_algebras_compare_by_identity(eightv):
    twin = validate_gentle(eightv.presentation)
    assert twin != eightv and twin == twin
    assert twin.presentation == eightv.presentation
    assert GentleAlgebra.__hash__ is object.__hash__
    assert hash(twin) == object.__hash__(twin)
    assert not hasattr(eightv, "_basis_set")
