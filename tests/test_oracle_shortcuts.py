"""The oracle's two exact shortcuts against references that take neither:
Hom(M, Lambda) and the embedding obstruction read off the first
differential I^0 -> I^1 of the algebra's injective coresolution, against
one hom system per indecomposable projective, and the last Ext step read
off the Euler characteristic of that coresolution.  Also the socle index
of tests/reference.py, which says which projectives receive a map at
all, and the coefficients of d^0, which must send Lambda's own embedding
into I^0 to 0."""

import pytest
from hypothesis import given, settings, strategies as st

from gentlegp import (QQ, InternalError, Representation,
                      algebra_from_triangulation, direct_sum,
                      embedding_obstruction, enumerate_strings, ext_profile,
                      gorenstein_dimension, opposite, parse_presentation,
                      parse_triangulation, projective_rep, regular_rep,
                      string_module, validate_gentle)
from gentlegp import reps
from gentlegp.families import linear_quiver, projective_line_chain
from gentlegp.linalg import echelon

import exhaustive
import reference
from conftest import field_id
from test_cli import ALGEBRA_FILES, TRI_FILES
from test_exhaustive import COUNTS
from test_gentle import gentle_presentations
from test_reps import hide_basis

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
            for w in a.vertices} == reference.socle_index(a)


@pytest.mark.parametrize("label", sorted(ZOO))
def test_dropped_projectives_receive_no_map(label):
    a = ZOO[label]
    projectives = {u: projective_rep(a, u, QQ) for u in a.vertices}
    socles = {u: _socle(p) for u, p in projectives.items()}
    _check_socle_index(a, socles)
    for w in enumerate_strings(a, 4):
        m = string_module(a, w, QQ)
        dropped = [u for u in a.vertices if not socles[u] & set(m.support)]
        receiving = reference.receiving_sum(m)
        assert receiving.dim_vector() == tuple(
            sum(projectives[u].dims.get(v, 0) for u in a.vertices
                if u not in dropped) for v in a.vertices)
        for u in dropped:
            assert reference.hom_basis(m, projectives[u]) == [], \
                (w.display(), u)
        # so the maps to Lambda are the maps to the rest
        assert embedding_obstruction(m)[1] == \
            reference.hom_dim(m, receiving), w.display()


@settings(max_examples=100, deadline=None)
@given(gentle_presentations())
def test_socle_index_of_generated_gentle_algebras(p):
    a = validate_gentle(p)
    _check_socle_index(a, {u: _socle(projective_rep(a, u, QQ))
                           for u in a.vertices})


PRESENTATION_FIELDS = [QQ, 2, 101]


@pytest.mark.parametrize("fld", PRESENTATION_FIELDS, ids=field_id)
@pytest.mark.parametrize("label", sorted(ZOO))
def test_the_injective_presentation_matches_one_system_per_projective(
        label, fld):
    a = ZOO[label]
    for w in enumerate_strings(a, 3 if label == "a70_rad2.gentle" else 4):
        m = string_module(a, w, fld)
        assert embedding_obstruction(m) == \
            reference.embedding_obstruction(m), w.display()


@pytest.mark.parametrize("fld", PRESENTATION_FIELDS, ids=field_id)
@pytest.mark.parametrize("label", sorted(ZOO))
def test_every_projective_embeds_and_receives_lambda_at_its_vertex(
        label, fld):
    # Hom(P_v, Lambda) is Lambda at v, and P_v embeds in itself
    a = ZOO[label]
    regular = regular_rep(a, fld)
    assert [embedding_obstruction(projective_rep(a, v, fld))
            for v in a.vertices] == [(0, regular.dims[v])
                                     for v in a.vertices]


def check_identity_in_the_kernel_of_d0(a, fld):
    """Lambda's identity lies in the kernel that d^0 defines.  Lambda
    embeds in I^0 = (+)_k I_{v_k} by the coordinate functionals phi_k of
    the top generators (v_k, c_k) of the dual regular module over the
    opposite algebra, so sum c phi_k(Lambda(p) y) = 0 for every summand
    of I^1 at w, over its entries (k, p, c), and every basis vector y of
    Lambda at w: read off the table with a walk of the test's own, and
    as Lambda's own row of Hom(-, Lambda)'s system."""
    regular = regular_rep(a, fld)
    tops = reps.top_generators(Representation(a.opposite, fld, regular.dims, {
        name: x.transpose() for name, x in regular.mats.items()}))

    def vanishes(total):
        return (total % fld if fld else total) == 0

    _, by_vertex = reps._injective_presentation(a, fld)
    for w, summands in by_vertex.items():
        for entries in summands:
            for y in range(regular.dims[w]):
                total = 0
                for k, path, c in entries:
                    x = {y: 1}
                    for arrow in path:
                        rows = regular.mats[arrow].rows \
                            if arrow in regular.mats else []
                        x = {i: z for i, row in enumerate(rows)
                             if (z := sum(e * x.get(j, 0)
                                          for j, e in row.items()))}
                    total += c * x.get(tops[k][1], 0)
                assert vanishes(total), (w, y, entries)
    rows, cells = reps._hom_lambda_system(regular)
    identity = {b + tops[k][1]: 1 for _, k, b in cells}
    assert cells and all(
        vanishes(sum(c * identity.get(i, 0) for i, c in row.items()))
        for row in rows)


GENTLE = sorted(label for label in ZOO if label.endswith(".gentle"))


@pytest.mark.parametrize("fld", [QQ, 101], ids=field_id)
@pytest.mark.parametrize("label", GENTLE)
def test_d0_sends_the_identity_to_zero_on_the_fixtures(label, fld):
    check_identity_in_the_kernel_of_d0(ZOO[label], fld)


@pytest.mark.parametrize("fld", [QQ, 101], ids=field_id)
@pytest.mark.parametrize("n", COUNTS)
def test_d0_sends_the_identity_to_zero_on_small_polygons(n, fld):
    for corners in exhaustive.polygon_triangulations(n):
        # the cache keeps every algebra it sees
        projective_rep.cache_clear()
        a = algebra_from_triangulation(exhaustive.triangulation(n, corners))
        check_identity_in_the_kernel_of_d0(a, fld)


@pytest.mark.parametrize("algebra", [
    linear_quiver(48), linear_quiver(64), projective_line_chain(24)],
    ids=["A_48", "A_64", "lambda_24"])
def test_long_paths_of_the_injective_presentation(algebra):
    # d^0 reads paths as long as the quiver: the projectives of A_n are
    # the paths to its sink, and lambda_24's chain is 24 arrows long
    a = validate_gentle(algebra)
    modules = [string_module(a, w, QQ) for w in enumerate_strings(a, 3)]
    modules += [projective_rep(a, v, QQ) for v in a.vertices]
    for m in modules:
        assert embedding_obstruction(m) == reference.embedding_obstruction(m)


SUM_ALGEBRAS = [ZOO[label] for label in SHALLOW]


@settings(max_examples=60, deadline=None)
@given(st.one_of(st.sampled_from(SUM_ALGEBRAS),
                 gentle_presentations().map(validate_gentle)),
       st.sampled_from([QQ, 2, 5, 101]), st.data())
def test_hidden_sums_match_one_system_per_projective(a, fld, data):
    words = enumerate_strings(a, 3)
    parts = data.draw(st.lists(st.sampled_from(words), min_size=1,
                               max_size=3))
    m = direct_sum(a, fld, [string_module(a, w, fld) for w in parts])[0]
    hidden = hide_basis(data, m)
    want = reference.embedding_obstruction(hidden)
    assert embedding_obstruction(hidden) == embedding_obstruction(m) == want


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
