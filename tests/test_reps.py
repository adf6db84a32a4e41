from collections import Counter
from fractions import Fraction
from itertools import islice, product

import pytest
from hypothesis import given, settings, strategies as st

from gentlegp import (Letter, Matrix, QQ, Representation,
                      direct_sum, embedding_obstruction, enumerate_strings,
                      ext_profile, gorenstein_dimension, hom_dim,
                      injective_dimension,
                      lazy_word, make_string, parse_field, parse_presentation, projective_cover,
                      projective_rep, radical_summand_rep, regular_rep,
                      resolution, stable_category_table, string_module,
                      syzygy, validate_gentle)
from gentlegp.families import (cyclic_nakayama, eight_vertex_example,
                               linear_quiver, projective_line_chain)
from gentlegp.linalg import echelon, kernel_vectors
from gentlegp.reps import (Cover, InternalError, ModuleMap,
                          _subrepresentation, top_generators, walk_slots)
from gentlegp.strings import projective_word

import reference
from conftest import data_path, field_id, kronecker
from test_gentle import deep_chains, gentle_presentations
from reference import (band_module, check_module, column,
                       coordinate_summands, from_rows, hstack, hom_basis,
                       identity, isomorphism, make_band, of, path_basis,
                       solve)


def simple(a, v, fld=QQ):
    return string_module(a, lazy_word(a, v), fld)


def test_projective_dimension_vectors(eightv):
    p1 = projective_rep(eightv, "1", QQ)
    assert dict(zip(eightv.vertices, p1.dim_vector())) == {
        "1": 1, "2": 1, "7": 1, "8": 1,
        "3": 0, "4": 0, "5": 0, "6": 0}
    total = sum(projective_rep(eightv, v, QQ).total_dim
                for v in eightv.vertices)
    assert total == eightv.dimension() == 64
    assert sum(q.target == "7" for q in path_basis(eightv)) == sum(
        projective_rep(eightv, v, QQ).dims.get("7", 0)
        for v in eightv.vertices)


def test_representation_rejects_relation_violation(a2):
    # A_2 has no relations, but shape mismatches must be caught
    from gentlegp import Matrix, Representation

    with pytest.raises(ValueError, match="shape"):
        check_module(Representation(a2, QQ, {"1": 1, "2": 1},
                                    {"a1": Matrix.zeros(QQ, 2, 1)}))


@pytest.mark.parametrize("dims, mats, reason", [
    ({"1": 1, "2": 0}, {}, "zero dimension"),
    ({"1": 1, "2": 1}, {"a1": Matrix.zeros(QQ, 1, 1)}, "zero matrix"),
    ({"1": 1}, {"a1": Matrix(QQ, 0, 1, [])}, "off the support")],
    ids=["zero-dimension", "zero-matrix", "off-the-support"])
def test_check_module_rejects_entries_off_the_support(a2, dims, mats, reason):
    with pytest.raises(ValueError, match=reason):
        check_module(Representation(a2, QQ, dims, mats))


def test_hom_from_projective_counts_fiber_dimension(eightv, kron, i3):
    # Hom(P_v, N) has dimension dim N_v
    lam3 = validate_gentle(projective_line_chain(3))
    modules = [radical_summand_rep(eightv, "j", QQ), simple(eightv, "2"),
               string_module(kron, make_string(
                   kron, [Letter("alpha", True), Letter("beta", False)])),
               radical_summand_rep(i3, "a1", QQ), simple(lam3, "1")]
    modules += [projective_rep(a, v, QQ) for a in (eightv, kron, i3, lam3)
                for v in a.vertices]
    for n in modules:
        for v in n.algebra.vertices:
            assert hom_dim(projective_rep(n.algebra, v, QQ), n) == \
                n.dims.get(v, 0)


def test_hom_basis_maps_commute(eightv):
    m = radical_summand_rep(eightv, "k", QQ)
    n = radical_summand_rep(eightv, "j", QQ)
    maps = hom_basis(m, n)
    assert len(maps) == hom_dim(m, n) == 1
    for f in maps:
        f.check()


def test_top_and_radical_of_p7(eightv):
    p7 = projective_rep(eightv, "7", QQ)
    assert [v for v, _ in top_generators(p7)] == ["7"]
    # rad P_7 = Omega(S_7) = R(j) + R(k)
    rad = syzygy(projective_cover(simple(eightv, "7")))
    assert rad.total_dim == p7.total_dim - 1
    rj = radical_summand_rep(eightv, "j", QQ)
    rk = radical_summand_rep(eightv, "k", QQ)
    # rad P_7 is decomposable: match each coordinate summand by a witness
    summands = coordinate_summands(rad)
    assert len(summands) == 2
    matched = []
    for r in (rj, rk):
        found = [f for f in (isomorphism(s, r) for s in summands) if f]
        assert len(found) == 1
        found[0].check()
        matched.append(found[0].source)
    assert matched[0] is not matched[1]


def test_projective_cover_of_radical_summand(eightv):
    re_ = radical_summand_rep(eightv, "e", QQ)
    cover = projective_cover(re_)
    assert cover.summands == ("2",)
    cover.pi.check()


def test_projectives_are_projective(eightv):
    for v in eightv.vertices:
        p = projective_rep(eightv, v, QQ)
        assert syzygy(projective_cover(p)).is_zero()
    assert not syzygy(projective_cover(simple(eightv, "1"))).is_zero()


def test_syzygy_dimension_count(eightv):
    m = simple(eightv, "2")
    cover = projective_cover(m)
    om = syzygy(cover)
    assert om.total_dim == cover.projective.total_dim - m.total_dim


def test_syzygy_orbit_of_radical_summands(eightv):
    # the syzygy rotates R(e) -> R(f) -> R(j) -> R(e)
    cur = radical_summand_rep(eightv, "e", QQ)
    for nxt in ("f", "j", "e"):
        cur = syzygy(projective_cover(cur))
        f = isomorphism(cur, radical_summand_rep(eightv, nxt, QQ))
        assert f is not None
        f.check()


def test_ext_profile_periodic_radical_summand(eightv):
    # the resolution runs to the bound: every Ext is computed, none guessed
    prof = ext_profile(radical_summand_rep(eightv, "j", QQ), 9,
                       gorenstein_dimension(eightv))
    assert prof.dims == [0] * 9
    assert prof.status == "gorenstein" and prof.certified
    assert len(prof.syzygy_dim_vectors) == 10
    assert prof.syzygy_dim_vectors[::3] == [prof.syzygy_dim_vectors[0]] * 4


def test_ext_profile_below_the_gorenstein_dimension_is_uncertified(eightv):
    prof = ext_profile(radical_summand_rep(eightv, "j", QQ), 1,
                       gorenstein_dimension(eightv))
    assert prof.dims == [0]
    assert prof.status == "checked-to-bound" and not prof.certified


def test_ext_profile_projective_terminates(eightv):
    prof = ext_profile(projective_rep(eightv, "3", QQ), 5,
                       gorenstein_dimension(eightv))
    assert prof.status == "terminated" and prof.all_zero
    assert prof.certified and prof.dims == [0] * 5


def test_ext_profile_nonvanishing_simple(eightv):
    prof = ext_profile(simple(eightv, "2"), 6, gorenstein_dimension(eightv))
    assert any(d > 0 for d in prof.dims)


def test_embedding_obstruction_zero_on_radical_summands(eightv):
    for arr in ("e", "f", "j", "g", "h", "k"):
        assert embedding_obstruction(
            radical_summand_rep(eightv, arr, QQ))[0] == 0


def test_embedding_obstruction_positive_on_peak(kron):
    w = make_string(kron, [Letter("alpha", True), Letter("beta", False)])
    assert embedding_obstruction(string_module(kron, w))[0] > 0


@pytest.mark.parametrize("fld", [QQ, 101], ids=field_id)
def test_embedding_obstruction_matches_one_projective_at_a_time(fld):
    # one system against Lambda, against one per indecomposable projective
    for a in _fixture_and_family_algebras():
        for w in enumerate_strings(a, 4):
            m = string_module(a, w, fld)
            assert embedding_obstruction(m) == \
                reference.embedding_obstruction(m), (a.vertices, w.display())


def test_stable_hom_values(eightv):
    # the one map R(k) -> R(j) factors through a projective
    table = stable_category_table(eightv)
    arrows = [arrow for c in table.cycles for arrow in c.arrows]
    k, j = arrows.index("k"), arrows.index("j")
    rj = radical_summand_rep(eightv, "j", QQ)
    rk = radical_summand_rep(eightv, "k", QQ)
    assert hom_dim(rk, rj) == 1
    assert table.matrix[k][j] == 0
    assert table.matrix[j][j] == 1


def test_hom_additivity_over_direct_sum(eightv):
    rj = radical_summand_rep(eightv, "j", QQ)
    rk = radical_summand_rep(eightv, "k", QQ)
    s, _ = direct_sum(eightv, QQ, [rj, rk])
    tgt = projective_rep(eightv, "7", QQ)
    assert hom_dim(s, tgt) == hom_dim(rj, tgt) + hom_dim(rk, tgt)


def test_subspace_not_closed_is_an_internal_error(eightv):
    # all of P_1 but its part at vertex 2: the arrow a: 1 -> 2 maps the
    # top of P_1 out of the span
    p1 = projective_rep(eightv, "1", QQ)
    bases = {v: ([{i: 1} for i in range(d)], list(range(d)))
             for v, d in p1.dims.items()}
    bases["2"] = ([], [])
    with pytest.raises(InternalError, match="not closed"):
        _subrepresentation(p1, bases)
    assert issubclass(InternalError, AssertionError)
    assert not issubclass(InternalError, ValueError)


def test_non_minimal_cover_is_an_internal_error(eightv):
    # P_5 + P_5 -> S_5 sending both tops to the generator is onto, but
    # the difference of the tops lies in the kernel and not in the radical
    p5 = projective_rep(eightv, "5", QQ)
    s5 = simple(eightv, "5")
    p, offsets = direct_sum(eightv, QQ, [p5, p5])
    word, top = projective_word(eightv, "5")
    slot = walk_slots(word)[1][top]
    tops = tuple(off["5"] + slot for off in offsets)
    blocks = {v: Matrix.zeros(QQ, s5.dims.get(v, 0), d)
              for v, d in p.dims.items()}
    for col in tops:
        blocks["5"].rows[0][col] = 1
    pi = ModuleMap(p, s5, blocks)
    pi.check()
    with pytest.raises(InternalError, match="cover kernel escapes the radical"):
        syzygy(Cover(p, ("5", "5"), pi, tops))


@pytest.mark.parametrize("family", [eight_vertex_example,
                                    lambda: projective_line_chain(3)],
                         ids=["eight_vertex", "lambda3"])
def test_resolution_step_eliminates_per_vertex_and_solves_nothing(
        family, monkeypatch):
    import reference
    from gentlegp import linalg, reps

    a = validate_gentle(family())
    count = {"echelon": 0, "solve": 0}
    real_echelon, real_solve = linalg.echelon, reference.solve

    def echelon(*args):
        count["echelon"] += 1
        return real_echelon(*args)

    def solve(m, b):
        count["solve"] += 1
        return real_solve(m, b)

    monkeypatch.setattr(linalg, "echelon", echelon)
    monkeypatch.setattr(reps, "echelon", echelon)
    monkeypatch.setattr(reference, "solve", solve)
    modules = [string_module(a, w) for w in enumerate_strings(a, 3)]
    modules += [projective_rep(a, v, QQ) for v in a.vertices]
    modules.append(direct_sum(a, QQ, modules[:4])[0])
    for m in modules:
        count["echelon"] = 0
        top_generators(m)
        assert count["echelon"] == len(m.support)
        count["echelon"] = 0
        cover = projective_cover(m)
        syzygy(cover)
        # the top and the cover's surjectivity check on supp M, and the
        # kernel where P_v is larger than M_v: elsewhere the cover, onto,
        # is bijective
        p = cover.projective
        assert count["echelon"] == 2 * len(m.support) + sum(
            p.dims[v] > m.dims.get(v, 0) for v in p.support)
    assert count["solve"] == 0


def test_a_resolution_step_costs_the_same_on_a_larger_quiver(monkeypatch):
    from gentlegp import linalg, reps

    count = {"zeros": 0, "echelon": 0}
    real_zeros, real_echelon = Matrix.zeros.__func__, linalg.echelon

    def zeros(cls, *args):
        count["zeros"] += 1
        return real_zeros(cls, *args)

    def echelon(*args):
        count["echelon"] += 1
        return real_echelon(*args)

    monkeypatch.setattr(Matrix, "zeros", classmethod(zeros))
    monkeypatch.setattr(linalg, "echelon", echelon)
    monkeypatch.setattr(reps, "echelon", echelon)
    counts = []
    for n in (5, 10, 20):
        # the interval n-4 ... n-1: its cover P_{n-4} and its syzygy, the
        # simple at the sink n, do not grow with n
        a = validate_gentle(linear_quiver(n))
        word = make_string(a, [Letter(f"a{i}", True)
                               for i in range(n - 4, n - 1)])
        count.update(zeros=0, echelon=0)
        syzygy(projective_cover(string_module(a, word)))
        counts.append(dict(count))
    assert counts[0] == counts[1] == counts[2]
    assert counts[0]["zeros"] and counts[0]["echelon"]


def test_zero_representation(eightv):
    z, offsets = direct_sum(eightv, QQ, [])
    assert z.is_zero() and offsets == []
    assert syzygy(projective_cover(z)).is_zero()


def test_injective_dimension_values(eightv, a2, i3):
    assert injective_dimension(eightv) == 2
    assert injective_dimension(a2) == 1
    assert injective_dimension(i3) == 0
    assert injective_dimension(validate_gentle(cyclic_nakayama(4))) == 0


@pytest.mark.parametrize("cap", [1, 2])
def test_injective_dimension_past_the_cap_is_an_internal_error(
        eightv, cap, monkeypatch):
    from gentlegp import reps

    # the dual regular module of eight_vertex resolves in 3 steps; a
    # bound b on the injective dimension allows b + 1
    monkeypatch.setattr(reps, "_injective_dimension_bound",
                        lambda a: cap - 1)
    with pytest.raises(InternalError, match=f"exceeded {cap} steps"):
        injective_dimension(eightv)
    monkeypatch.setattr(reps, "_injective_dimension_bound", lambda a: 2)
    assert injective_dimension(eightv) == 2


def _longest_path_of_relations(p):
    """The most arrows on a path whose consecutive compositions are all
    relations, on a quiver with no cycle."""
    after = {earlier: later for later, earlier in p.relations}
    longest = 0
    for arr in p.arrows:
        n, name = 1, arr.name
        while name in after:
            n, name = n + 1, after[name]
        longest = max(longest, n)
    return longest


@settings(max_examples=60, deadline=None)
@given(deep_chains())
def test_injective_dimension_of_a_chain_is_its_longest_path_of_relations(p):
    # Geiss-Reiten bound d by that length, which is at most |Q_1|, the
    # bound the coresolution checks; on a chain d reaches it
    d = injective_dimension(validate_gentle(p))
    assert d == _longest_path_of_relations(p) <= len(p.arrows)


def test_resolution_yields_the_ext_profile_syzygies(all_fixture_algebras):
    bound = 4
    for a in all_fixture_algebras.values():
        coresolution = gorenstein_dimension(a)
        for w in enumerate_strings(a, 3):
            m = string_module(a, w)
            steps = list(islice(resolution(m), bound))
            assert [x.dim_vector() for _, x in steps] == ext_profile(
                m, bound, coresolution).syzygy_dim_vectors[1:]
            # each step covers the syzygy before it, and only the last
            # may be zero
            targets = [m] + [x for _, x in steps[:-1]]
            assert [c.pi.target for c, _ in steps] == targets
            assert not any(x.is_zero() for x in targets)


def test_resolution_of_the_zero_module_is_one_empty_step(eightv):
    z = direct_sum(eightv, QQ, [])[0]
    [(cover, omega)] = resolution(z)
    assert cover.summands == () and cover.projective.is_zero()
    assert cover.pi.target is z and omega.is_zero()


def test_hom_across_validations_of_one_presentation(eightv):
    twin = validate_gentle(eightv.presentation)
    assert twin != eightv
    m = radical_summand_rep(eightv, "k", QQ)
    for arrow in ("j", "e", "k"):
        n_twin = radical_summand_rep(twin, arrow, QQ)
        n_same = radical_summand_rep(eightv, arrow, QQ)
        assert hom_dim(m, n_twin) == hom_dim(m, n_same)
        assert len(hom_basis(m, n_twin)) == hom_dim(m, n_same)
    assert hom_dim(projective_rep(twin, "7", QQ), m) == m.dims.get("7", 0)


def test_hom_rejects_modules_over_different_presentations(eightv, a2):
    m = projective_rep(eightv, "1", QQ)
    n = projective_rep(a2, "1", QQ)
    with pytest.raises(ValueError, match="different algebras"):
        hom_dim(m, n)
    with pytest.raises(ValueError, match="different algebras"):
        hom_basis(n, m)


def test_everything_works_over_prime_field(eightv):
    f5 = parse_field("f5")
    rj = radical_summand_rep(eightv, "j", f5)
    prof = ext_profile(rj, 6, gorenstein_dimension(eightv, f5))
    assert prof.dims == [0] * 6 and prof.status == "gorenstein"
    assert embedding_obstruction(rj)[0] == 0


SMALL_ALGEBRAS = [validate_gentle(p) for p in (
    eight_vertex_example(), projective_line_chain(3), cyclic_nakayama(3),
    kronecker())]


def greedy_top_generators(m):
    """Reference: add a standard vector whenever it leaves the span of the
    radical and the vectors added so far, one solve per vector."""
    fld = m.field
    gens = []
    for v in m.support:
        # the radical at v is spanned by the images of the arrows into v
        basis = hstack(fld, [Matrix.zeros(fld, m.dims[v], 0)] + [
            m.mats[arr.name] for arr in m.algebra.presentation.arrows_in(v)
            if arr.name in m.mats])
        for i in range(m.dims[v]):
            e = [0] * m.dims[v]
            e[i] = 1
            if solve(basis, e) is None:
                basis = hstack(fld, [basis, column(fld, e)])
                gens.append((v, i))
    return gens


def _unitriangular(data, fld, n, lower):
    m = [[1 if r == c else 0 for c in range(n)] for r in range(n)]
    for i in range(n):
        for j in range(i):
            r, c = (i, j) if lower else (j, i)
            m[r][c] = of(fld, data.draw(st.integers(-2, 2)))
    return from_rows(fld, m)


def _scalars(data, fld, n):
    """A diagonal matrix of n drawn nonzero scalars."""
    units = st.integers(1, fld - 1) if fld else \
        st.sampled_from([1, -1, 2, Fraction(-1, 3)])
    return Matrix(fld, n, n, [{i: of(fld, data.draw(units))}
                              for i in range(n)])


def hide_basis(data, m):
    """M under an invertible change of basis at every vertex, drawn as a
    diagonal times a lower and an upper unitriangular matrix, so that a
    vertex of dimension 1 is rescaled too; checked as a module."""
    fld, amap = m.field, m.algebra.arrow_map
    g = {v: _scalars(data, fld, m.dims[v]).mul(
             _unitriangular(data, fld, m.dims[v], True)).mul(
             _unitriangular(data, fld, m.dims[v], False))
         for v in m.support}
    g_inv = {v: solve(g[v], identity(fld, m.dims[v])) for v in m.support}
    mats = {name: g[amap[name].target].mul(x).mul(g_inv[amap[name].source])
            for name, x in m.mats.items()}
    hidden = Representation(m.algebra, fld, m.dims, mats)
    check_module(hidden)
    return hidden


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(SMALL_ALGEBRAS), st.sampled_from([QQ, 5]),
       st.data())
def test_top_generators_match_greedy_reference(a, fld, data):
    words = list(enumerate_strings(a, 3))
    summands = data.draw(st.lists(st.sampled_from(words), min_size=1,
                                  max_size=3))
    m, _ = direct_sum(a, fld, [string_module(a, w, fld) for w in summands])
    # an invertible change of basis at every vertex hides the string basis
    m = hide_basis(data, m)
    assert top_generators(m) == greedy_top_generators(m)


def test_hom_system_of_a_loop_with_a_nonzero_diagonal():
    # x acts on k^2 over k[x]/x^2 with a nonzero diagonal, so the loop's
    # commutation equation meets one unknown from both sides; no string
    # module's matrices have a diagonal entry
    fld = 5
    a = validate_gentle(cyclic_nakayama(1))
    m = Representation(a, fld, {"1": 2},
                       {"a1": from_rows(fld, [[1, 1], [-1, -1]])})
    check_module(m)
    p1 = projective_rep(a, "1", fld)

    def dense(x):
        return [[row.get(j, 0) for j in range(2)] for row in x.mats["a1"].rows]

    def commuting_maps(x, y):
        xa, ya = dense(x), dense(y)
        return sum(
            all(sum(ya[i][k] * b[2 * k + j] - b[2 * i + k] * xa[k][j]
                    for k in range(2)) % 5 == 0
                for i in range(2) for j in range(2))
            for b in product(range(5), repeat=4))

    for x, y in ((m, m), (m, p1), (p1, m)):
        assert 5 ** hom_dim(x, y) == commuting_maps(x, y)
        assert hom_dim(x, y) == 2


def _kronecker_band(kron, lam, size):
    b = make_band(kron, [Letter("alpha", False), Letter("beta", True)])
    return band_module(kron, b, lam, size)


BAND_PARAMETERS = [Fraction(1, 2), Fraction(3, 2), Fraction(2)]


@pytest.mark.parametrize("mu", BAND_PARAMETERS, ids=str)
@pytest.mark.parametrize("lam", BAND_PARAMETERS, ids=str)
def test_hom_between_bands_with_fractional_parameters(kron, lam, mu):
    m, n = _kronecker_band(kron, lam, 1), _kronecker_band(kron, mu, 1)
    assert hom_dim(m, n) == (1 if lam == mu else 0)


def test_hom_basis_of_fractional_jordan_band_commutes(kron):
    m = _kronecker_band(kron, Fraction(1, 2), 2)
    maps = hom_basis(m, m)
    # End of a band of size 2 is k[x]/x^2
    assert len(maps) == hom_dim(m, m) == 2
    for f in maps:
        f.check()


def _fixture_and_family_algebras():
    from gentlegp import algebra_from_triangulation, parse_triangulation
    from test_cli import ALGEBRA_FILES, TRI_FILES

    algebras = [validate_gentle(parse_presentation(f.read_text()))
                for f in ALGEBRA_FILES]
    algebras += [algebra_from_triangulation(parse_triangulation(
        f.read_text())) for f in TRI_FILES]
    return algebras


@pytest.mark.parametrize("fld", [QQ, 101], ids=field_id)
def test_constructed_modules_satisfy_their_relations(kron, fld):
    # the program builds these without checking them
    from gentlegp import opposite

    modules = []
    for a in _fixture_and_family_algebras():
        modules += [string_module(a, w, fld) for w in enumerate_strings(a, 4)]
        modules += [projective_rep(a, v, fld) for v in a.vertices]
        modules += [radical_summand_rep(a, arr.name, fld)
                    for arr in a.arrows]
        # the dual of the regular module, whose resolution over the
        # opposite algebra gives the injective dimension
        aop = validate_gentle(opposite(a.presentation))
        regular = regular_rep(a, fld)
        modules += [regular, Representation(
            aop, fld, regular.dims,
            {name: m.transpose() for name, m in regular.mats.items()})]
    b = make_band(kron, [Letter("alpha", False), Letter("beta", True)])
    for lam in BAND_PARAMETERS:
        modules += [band_module(kron, b, lam, size, fld) for size in (1, 2)]
    for m in modules:
        check_module(m)


@settings(max_examples=60, deadline=None)
@given(gentle_presentations(), st.sampled_from([QQ, 101]))
def test_generated_modules_are_stored_on_their_support(p, fld):
    # every module of the first steps of the resolutions, the covers'
    # direct sums and the syzygies' subrepresentations included, stores
    # no zero dimension or block; P_v has one basis vector per path from v
    a = validate_gentle(p)
    paths = Counter((q.source, q.target) for q in path_basis(a))
    modules = [projective_rep(a, v, fld) for v in a.vertices]
    for v, m in zip(a.vertices, modules):
        assert m.dim_vector() == tuple(paths[v, w] for w in a.vertices)
    modules += [string_module(a, w, fld) for w in enumerate_strings(a, 2)]
    for m in modules:
        check_module(m)
        for cover, omega in islice(resolution(m), 4):
            check_module(cover.projective)
            check_module(omega)


def _entries(mats):
    return [x for mat in mats for row in mat.rows for x in row.values()]


@settings(max_examples=60, deadline=None)
@given(gentle_presentations())
def test_generated_modules_over_q_hold_plain_ints(p):
    # every Q entry starts from 1, and the covers, kernels and
    # syzygies of 0/+-1 matrices stay integral: no entry is a Fraction
    a = validate_gentle(p)
    modules = [projective_rep(a, v, QQ) for v in a.vertices]
    modules += [string_module(a, w, QQ) for w in enumerate_strings(a, 2)]
    entries = []
    for m in modules:
        entries += _entries(m.mats.values())
        for cover, omega in islice(resolution(m), 4):
            blocks = cover.pi.blocks
            entries += _entries(cover.projective.mats.values())
            entries += _entries(blocks.values())
            entries += _entries(omega.mats.values())
            for v in cover.projective.support:
                entries += [x for vec in kernel_vectors(
                    QQ, blocks[v].rows, blocks[v].ncols).values()
                    for x in vec.values()]
    assert entries and {type(x) for x in entries} == {int}


# the projective keeps its entries in a module-level cache, the regular
# module in the store its algebra owns
@pytest.mark.parametrize("build, args, entries", [
    (projective_rep, ("1",), lambda a: projective_rep.cache_info().currsize),
    (regular_rep, (), lambda a: len(a.memo))],
    ids=["projective", "regular"])
def test_cached_builders_keep_one_entry_per_module(build, args, entries):
    a = validate_gentle(eight_vertex_example())  # a key no test has used
    before = entries(a)
    first = build(a, *args, QQ)
    assert build(a, *args, QQ) is first
    assert entries(a) == before + 1
    with pytest.raises(TypeError):
        build(a, *args, fld=QQ)
    with pytest.raises(TypeError):
        build(a, *args)
    assert entries(a) == before + 1


def count_systems(monkeypatch):
    """Counts of the hom systems built and the eliminations run."""
    from gentlegp import linalg, reps

    count = {"systems": 0, "echelon": 0}
    real_system, real_echelon = reps._hom_system, linalg.echelon

    def system(m, n):
        count["systems"] += 1
        return real_system(m, n)

    def echelon(*args):
        count["echelon"] += 1
        return real_echelon(*args)

    monkeypatch.setattr(reps, "_hom_system", system)
    monkeypatch.setattr(reps, "echelon", echelon)
    monkeypatch.setattr(linalg, "echelon", echelon)
    return count


def test_disjoint_supports_build_one_system_and_eliminate_nothing(
        kron, monkeypatch):
    from gentlegp import reps

    count = count_systems(monkeypatch)
    s1, s2 = simple(kron, "1"), simple(kron, "2")
    assert hom_dim(s1, s2) == 0
    assert count == {"systems": 1, "echelon": 0}
    assert reps._hom_vectors(s2, s1) == ([], [])
    assert count == {"systems": 2, "echelon": 0}
    # a common support does eliminate
    assert hom_dim(s1, s1) == 1
    assert count == {"systems": 3, "echelon": 1}


def test_fully_forced_system_eliminates_nothing(monkeypatch):
    # on A_3, N_a2 B_2 = 0 forces B_2 to 0, and then N_a1 B_1 = B_2 M_a1
    # forces B_1: the system keeps no unknown
    from gentlegp import reps

    a = validate_gentle(linear_quiver(3))
    m = string_module(a, make_string(a, [Letter("a1", True)]))
    n = string_module(a, make_string(a, [Letter("a1", True),
                                         Letter("a2", True)]))
    assert reps._hom_system(m, n) == ([], [])
    count = count_systems(monkeypatch)
    assert hom_dim(m, n) == 0
    assert count == {"systems": 1, "echelon": 0}


def reference_stable_hom_dim(m, n, cover):
    """Hom(M, N) modulo the span of the composites pi g, for g in a basis
    of Hom(M, P) and pi: P -> N the projective cover, each composite
    flattened to one sparse row of its block entries."""
    composites, size = [], 0
    for g in hom_basis(m, cover.projective):
        row, size = {}, 0
        for v, b in g.blocks.items():
            if v not in cover.pi.blocks:
                continue  # P is 0 at v, and so is the composite
            block = cover.pi.blocks[v].mul(b)
            for i, entries in enumerate(block.rows):
                row.update((size + i * block.ncols + j, x)
                           for j, x in entries.items())
            size += block.nrows * block.ncols
        composites.append(row)
    return hom_dim(m, n) - len(echelon(m.field, composites, size, False)[1])


def _twocycles():
    return parse_presentation(data_path("twocycles.gentle").read_text())


# family -> the pairs of objects with maps that factor through a projective
STABLE_HOM_ALGEBRAS = {"eight_vertex": (eight_vertex_example, 10),
                       "lambda3": (lambda: projective_line_chain(3), 2),
                       "lambda4": (lambda: projective_line_chain(4), 6),
                       "twocycles": (_twocycles, 0)}


@pytest.mark.parametrize("fld", [QQ, 101], ids=field_id)
@pytest.mark.parametrize("family, lifted_pairs", STABLE_HOM_ALGEBRAS.values(),
                         ids=STABLE_HOM_ALGEBRAS.keys())
def test_stable_hom_dim_matches_composed_maps(family, lifted_pairs, fld):
    a = validate_gentle(family())
    table = stable_category_table(a, fld)
    summands = [radical_summand_rep(a, arrow, fld)
                for c in table.cycles for arrow in c.arrows]
    lifted = 0
    for row, m in zip(table.matrix, summands):
        for entry, n in zip(row, summands):
            expected = reference_stable_hom_dim(m, n, projective_cover(n))
            assert entry == expected
            lifted += expected < hom_dim(m, n)
    assert lifted == lifted_pairs


def _count_covers(monkeypatch):
    from gentlegp import gp, reps

    calls = []
    real = reps.projective_cover

    def projective_cover(m):
        calls.append(m)
        return real(m)

    monkeypatch.setattr(reps, "projective_cover", projective_cover)
    monkeypatch.setattr(gp, "projective_cover", projective_cover,
                        raising=False)
    return calls


@pytest.mark.parametrize("family", [eight_vertex_example,
                                    lambda: projective_line_chain(4),
                                    _twocycles],
                         ids=["eight_vertex", "lambda4", "twocycles"])
def test_stable_table_covers_each_object_once(family, monkeypatch):
    from gentlegp import stable_category_table

    a = validate_gentle(family())
    calls = _count_covers(monkeypatch)
    table = stable_category_table(a)
    assert len(table.matrix) == 6
    assert len(calls) == 6


@pytest.mark.parametrize("family, systems", [
    (eight_vertex_example, 52), (lambda: projective_line_chain(4), 48),
    (_twocycles, 42)], ids=["eight_vertex", "lambda4", "twocycles"])
def test_stable_table_builds_each_hom_system_once(family, systems,
                                                  monkeypatch):
    from gentlegp import gp, reps

    a = validate_gentle(family())
    summands = [radical_summand_rep(a, arrow, QQ) for arrow in
                (arrow for c in gp.critical_cycles(a) for arrow in c.arrows)]
    # per row, the covers of the R(y) that receive a map from R(x)
    covers = sum(len({projective_cover(n).summands for n in summands
                      if hom_dim(m, n)}) for m in summands)
    built, pairs = [], []
    real_rep, real_system = gp.radical_summand_rep, reps._hom_system

    def summand(*args):
        built.append(real_rep(*args))
        return built[-1]

    def system(m, n):
        pairs.append((m, n))
        return real_system(m, n)

    monkeypatch.setattr(gp, "radical_summand_rep", summand)
    monkeypatch.setattr(reps, "_hom_system", system)
    stable_category_table(a)
    keys = [(id(m), id(n)) for m, n in pairs]
    assert len(set(keys)) == len(keys) == systems
    # a row is one system per object and one per cover of a nonzero
    # entry; the other systems are the orbit check's witness searches
    ids = {id(r) for r in built}
    rows = [n for m, n in keys if m in ids]
    assert sum(n in ids for n in rows) == len(built) ** 2
    assert len(rows) == len(built) ** 2 + covers


@pytest.mark.parametrize("family", [eight_vertex_example,
                                    lambda: projective_line_chain(4),
                                    _twocycles],
                         ids=["eight_vertex", "lambda4", "twocycles"])
def test_stable_table_takes_one_syzygy_per_object(family, monkeypatch):
    from gentlegp import gp, reps, stable_category_table

    a = validate_gentle(family())
    calls = []
    real = reps.syzygy

    def counting_syzygy(cover):
        calls.append(cover)
        return real(cover)

    monkeypatch.setattr(reps, "syzygy", counting_syzygy)
    monkeypatch.setattr(gp, "syzygy", counting_syzygy)
    table = stable_category_table(a)
    assert table.is_identity and len(table.matrix) == 6
    # the orbit check takes the syzygy of each object's cover once
    assert len(calls) == 6 and len({id(c) for c in calls}) == 6


def test_oracle_resolves_a_projective_once(eightv, monkeypatch):
    from gentlegp import gp_oracle

    p = projective_rep(eightv, "1", QQ)
    d = gorenstein_dimension(eightv)
    calls = _count_covers(monkeypatch)
    cert = gp_oracle(p, d)
    assert (cert.verdict, cert.reason) == ("GP", "projective")
    assert len(calls) == 1 and calls[0] is p
