import pytest
from hypothesis import given, settings, strategies as st

from gentlegp import (Letter, Matrix, PrimeField, QQ, Representation,
                      direct_sum, embedding_obstruction, enumerate_strings,
                      ext_profile, hom_basis, hom_dim, injective_dimension,
                      is_projective, lazy_word, make_string, module_signature,
                      parse_field, projective_cover, projective_rep,
                      radical_summand_rep, regular_dim_at, stable_hom_dim,
                      string_module, syzygy, top_and_radical,
                      validate_gentle, zero_representation)
from gentlegp.families import (cyclic_nakayama, eight_vertex_example,
                               kronecker, projective_line_chain)
from gentlegp.reps import radical_bases, top_generators


def simple(a, v, fld=QQ):
    return string_module(a, lazy_word(a, v), fld)


def test_projective_dimension_vectors(eightv):
    p1 = projective_rep(eightv, "1")
    assert dict(zip(eightv.vertices, p1.dim_vector())) == {
        "1": 1, "2": 1, "7": 1, "8": 1,
        "3": 0, "4": 0, "5": 0, "6": 0}
    total = sum(projective_rep(eightv, v).total_dim for v in eightv.vertices)
    assert total == eightv.dimension() == 64
    assert regular_dim_at(eightv, "7") == sum(
        projective_rep(eightv, v).dims["7"] for v in eightv.vertices)


def test_representation_rejects_relation_violation(a2):
    # A_2 has no relations, but shape mismatches must be caught
    from gentlegp import Matrix, Representation

    with pytest.raises(ValueError, match="shape"):
        Representation(a2, QQ, {"1": 1, "2": 1},
                       {"a1": Matrix.zeros(QQ, 2, 1)})


def test_hom_from_projective_counts_fiber_dimension(eightv):
    # Hom(P_v, N) has dimension dim N_v
    n = radical_summand_rep(eightv, "j")
    for v in eightv.vertices:
        assert hom_dim(projective_rep(eightv, v), n) == n.dims[v]


def test_hom_basis_maps_commute(eightv):
    m = radical_summand_rep(eightv, "k")
    n = radical_summand_rep(eightv, "j")
    maps = hom_basis(m, n)
    assert len(maps) == hom_dim(m, n) == 1
    for f in maps:
        f.check()


def test_top_and_radical_of_p7(eightv):
    p7 = projective_rep(eightv, "7")
    top, rad, incl = top_and_radical(p7)
    assert top.dims["7"] == 1 and top.total_dim == 1
    assert rad.total_dim == p7.total_dim - 1
    incl.check()
    # rad P_7 = R(j) + R(k)
    rj = radical_summand_rep(eightv, "j")
    rk = radical_summand_rep(eightv, "k")
    assert (module_signature(rad)
            == module_signature(direct_sum([rj, rk])[0]))


def test_projective_cover_of_radical_summand(eightv):
    re_ = radical_summand_rep(eightv, "e")
    cover = projective_cover(re_)
    assert cover.summands == ("2",)
    cover.pi.check()


def test_projectives_are_projective(eightv):
    for v in eightv.vertices:
        assert is_projective(projective_rep(eightv, v))
    assert not is_projective(simple(eightv, "1"))


def test_syzygy_dimension_count(eightv):
    m = simple(eightv, "2")
    cover = projective_cover(m)
    om = syzygy(m, cover)
    assert om.total_dim == cover.projective.total_dim - m.total_dim


def test_syzygy_orbit_of_radical_summands(eightv):
    # the syzygy rotates R(e) -> R(f) -> R(j) -> R(e)
    cur = radical_summand_rep(eightv, "e")
    for nxt in ("f", "j", "e"):
        cur = syzygy(cur)
        assert (module_signature(cur)
                == module_signature(radical_summand_rep(eightv, nxt)))


def test_ext_profile_periodic_radical_summand(eightv):
    prof = ext_profile(radical_summand_rep(eightv, "j"), 9)
    assert prof.dims == [0] * 9
    assert prof.status == "periodic" and prof.period == 3
    assert prof.all_zero and prof.certified


def test_ext_profile_projective_terminates(eightv):
    prof = ext_profile(projective_rep(eightv, "3"), 5)
    assert prof.status == "terminated" and prof.all_zero


def test_ext_profile_nonvanishing_simple(eightv):
    prof = ext_profile(simple(eightv, "2"), 6)
    assert any(d > 0 for d in prof.dims)


def test_embedding_obstruction_zero_on_radical_summands(eightv):
    for arr in ("e", "f", "j", "g", "h", "k"):
        assert embedding_obstruction(radical_summand_rep(eightv, arr)) == 0


def test_embedding_obstruction_positive_on_peak(kron):
    w = make_string(kron, [Letter("alpha", True), Letter("beta", False)])
    assert embedding_obstruction(string_module(kron, w)) > 0


def test_stable_hom_values(eightv):
    rj = radical_summand_rep(eightv, "j")
    rk = radical_summand_rep(eightv, "k")
    assert hom_dim(rk, rj) == 1
    assert stable_hom_dim(rk, rj) == 0
    assert stable_hom_dim(rj, rj) == 1
    assert stable_hom_dim(projective_rep(eightv, "1"), rj) == 0


def test_hom_additivity_over_direct_sum(eightv):
    rj = radical_summand_rep(eightv, "j")
    rk = radical_summand_rep(eightv, "k")
    s, _ = direct_sum([rj, rk])
    tgt = projective_rep(eightv, "7")
    assert hom_dim(s, tgt) == hom_dim(rj, tgt) + hom_dim(rk, tgt)


def test_zero_representation(eightv):
    z = zero_representation(eightv)
    assert z.is_zero() and is_projective(z)


def test_injective_dimension_values(eightv, a2, i3):
    assert injective_dimension(eightv) == 2
    assert injective_dimension(a2) == 1
    assert injective_dimension(i3) == 0
    assert injective_dimension(validate_gentle(cyclic_nakayama(4))) == 0


def test_hom_across_validations_of_one_presentation(eightv):
    twin = validate_gentle(eightv.presentation)
    assert twin != eightv
    m = radical_summand_rep(eightv, "k")
    for arrow in ("j", "e", "k"):
        n_twin = radical_summand_rep(twin, arrow)
        n_same = radical_summand_rep(eightv, arrow)
        assert hom_dim(m, n_twin) == hom_dim(m, n_same)
        assert len(hom_basis(m, n_twin)) == hom_dim(m, n_same)
    assert hom_dim(projective_rep(twin, "7"), m) == m.dims["7"]


def test_hom_rejects_modules_over_different_presentations(eightv, a2):
    m = projective_rep(eightv, "1")
    n = projective_rep(a2, "1")
    with pytest.raises(ValueError, match="different algebras"):
        hom_dim(m, n)
    with pytest.raises(ValueError, match="different algebras"):
        hom_basis(n, m)


def test_everything_works_over_prime_field(eightv):
    f5 = parse_field("f5")
    rj = radical_summand_rep(eightv, "j", f5)
    prof = ext_profile(rj, 6)
    assert prof.all_zero and prof.period == 3
    assert embedding_obstruction(rj) == 0


SMALL_ALGEBRAS = [validate_gentle(p) for p in (
    eight_vertex_example(), projective_line_chain(3), cyclic_nakayama(3),
    kronecker())]


def greedy_top_generators(m):
    """Reference: add a standard vector whenever it leaves the span of the
    radical and the vectors added so far, one solve per vector."""
    fld = m.field
    rad = radical_bases(m)
    gens = []
    for v in m.algebra.vertices:
        basis = rad[v]
        for i in range(m.dims[v]):
            e = [fld.zero] * m.dims[v]
            e[i] = fld.one
            if basis.solve(e) is None:
                basis = Matrix.hstack(fld, [basis, Matrix.column(fld, e)])
                gens.append((v, e))
    return gens


def _unitriangular(data, fld, n, lower):
    m = Matrix.identity(fld, n)
    for i in range(n):
        for j in range(i):
            r, c = (i, j) if lower else (j, i)
            m.rows[r][c] = fld.of(data.draw(st.integers(-2, 2)))
    return m


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(SMALL_ALGEBRAS), st.sampled_from([QQ, PrimeField(5)]),
       st.data())
def test_top_generators_match_greedy_reference(a, fld, data):
    words = list(enumerate_strings(a, 3))
    summands = data.draw(st.lists(st.sampled_from(words), min_size=1,
                                  max_size=3))
    m, _ = direct_sum([string_module(a, w, fld) for w in summands])
    # an invertible change of basis at every vertex hides the string basis
    g = {v: _unitriangular(data, fld, m.dims[v], True).mul(
             _unitriangular(data, fld, m.dims[v], False))
         for v in a.vertices}
    g_inv = {v: g[v].solve(Matrix.identity(fld, m.dims[v]))
             for v in a.vertices}
    mats = {arr.name: g[arr.target].mul(m.mats[arr.name]).mul(
                g_inv[arr.source]) for arr in a.arrows}
    m = Representation(a, fld, m.dims, mats)
    assert top_generators(m)[0] == greedy_top_generators(m)
