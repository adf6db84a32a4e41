"""The oracle's two exact shortcuts against references that take neither:
Hom(M, Lambda) solved only against the projectives whose socle meets the
support of M, and the last Ext step read off the Euler characteristic of
the algebra's injective coresolution."""

import pytest
from hypothesis import given, settings

from gentlegp import (QQ, InternalError, algebra_from_triangulation,
                      enumerate_strings, ext_profile, gorenstein_dimension,
                      opposite, parse_presentation, parse_triangulation,
                      projective_rep, receiving_sum, string_module,
                      validate_gentle)
from gentlegp import reps
from gentlegp.families import projective_line_chain
from gentlegp.linalg import echelon

import reference
from conftest import field_id
from test_cli import ALGEBRA_FILES, TRI_FILES
from test_gentle import gentle_presentations

FIELDS = [QQ, 101, 5]


def _zoo():
    """Every fixture, family file and triangulation, by file name."""
    out = {p.name: validate_gentle(parse_presentation(p.read_text()))
           for p in ALGEBRA_FILES}
    out.update({p.name: algebra_from_triangulation(
        parse_triangulation(p.read_text())) for p in TRI_FILES})
    return out


ZOO = _zoo()
# radical-square-zero A_70 has d = 69, and checking each of its 71 bounds
# from scratch resolves every module about d^2 / 2 steps: some 20 s a
# field.  tests/test_cli.py and the golden corpus resolve it.
SHALLOW = sorted(label for label in ZOO if label != "a70_rad2.gentle")


@pytest.mark.parametrize("fld", FIELDS, ids=field_id)
@pytest.mark.parametrize("label", SHALLOW)
def test_ext_profile_matches_the_full_resolution(label, fld):
    a = ZOO[label]
    coresolution = gorenstein_dimension(a, fld)
    d = coresolution.length
    for w in enumerate_strings(a, 4):
        m = string_module(a, w, fld)
        for bound in range(1, d + 3):
            got = ext_profile(m, bound, coresolution)
            want = reference.ext_profile(m, bound, d)
            assert (got.dims, got.syzygy_dim_vectors, got.status) == \
                (want.dims, want.syzygy_dim_vectors, want.status), \
                (w.display(), bound)


def _socle(p):
    """The vertices where a nonzero vector of P is killed by every arrow."""
    out = p.algebra.presentation.arrows_out
    return {w for w in p.support
            if len(echelon(p.field, [row for arr in out(w)
                                     if arr.name in p.mats
                                     for row in p.mats[arr.name].rows],
                           p.dims[w], False)[1]) < p.dims[w]}


def _check_socle_index(a, socles):
    assert {w: tuple(u for u in a.vertices if w in socles[u])
            for w in a.vertices} == a.socle_index


@pytest.mark.parametrize("label", sorted(ZOO))
def test_dropped_projectives_receive_no_map(label):
    a = ZOO[label]
    projectives = {u: projective_rep(a, u, QQ) for u in a.vertices}
    socles = {u: _socle(p) for u, p in projectives.items()}
    _check_socle_index(a, socles)
    for w in enumerate_strings(a, 4):
        m = string_module(a, w, QQ)
        dropped = [u for u in a.vertices if not socles[u] & set(m.support)]
        assert receiving_sum(m).dim_vector() == tuple(
            sum(projectives[u].dims.get(v, 0) for u in a.vertices
                if u not in dropped) for v in a.vertices)
        for u in dropped:
            assert reference.hom_basis(m, projectives[u]) == [], \
                (w.display(), u)


@settings(max_examples=100, deadline=None)
@given(gentle_presentations())
def test_socle_index_of_generated_gentle_algebras(p):
    a = validate_gentle(p)
    _check_socle_index(a, {u: _socle(projective_rep(a, u, QQ))
                           for u in a.vertices})


def test_the_opposite_sides_euler_characteristic_is_an_internal_error(
        monkeypatch):
    a = validate_gentle(projective_line_chain(3))
    real = reps.injective_coresolution
    left = real(a, QQ)
    right = real(validate_gentle(opposite(a.presentation)), QQ)
    assert left.length == right.length and left.euler != right.euler
    assert gorenstein_dimension(a).euler == left.euler
    # each side answers with the other side's walk: equal lengths, so only
    # the Euler characteristic can tell
    monkeypatch.setattr(reps, "injective_coresolution",
                        lambda a, fld: real(a.opposite, fld))
    with pytest.raises(InternalError, match="Euler characteristic"):
        gorenstein_dimension(a)
