"""reps.isomorphism against the reference witness search: both find a
witness that check() accepts for M(w) and M(w^-1) and for a module under
a change of basis at each vertex, and neither finds one between string
modules of different words (Butler-Ringel), on generated algebras over
Q, F_2 and F_101."""

from itertools import combinations

import pytest
from hypothesis import assume, given, settings, strategies as st

from gentlegp import (Matrix, ModuleMap, QQ, Representation,
                      direct_sum, enumerate_strings, isomorphism, lazy_word,
                      string_module, validate_gentle)
from gentlegp import reps

import reference
from conftest import kronecker
from test_gentle import gentle_presentations

FIELDS = [QQ, 2, 101]


def _witnesses(x, y):
    """Check the program's and the reference's witnesses x -> y."""
    for f in (isomorphism(x, y), reference.isomorphism(x, y)):
        assert f is not None and f.source is x and f.target is y
        f.check()
        assert f.is_isomorphism()


def _invertible(fld, d, data, scale):
    """A drawn invertible d x d matrix and its inverse: L U, with L unit
    lower triangular and U upper triangular with a nonzero diagonal, its
    first entry a multiple of scale."""
    lower = reference.identity(fld, d)
    upper = reference.identity(fld, d)
    for i in range(d):
        for j in range(d):
            x = data.draw(st.sampled_from([1, -1, 3]) if i == j
                          else st.integers(-3, 3))
            x = x * scale if i == j == 0 else x
            x = x % fld if fld else x
            rows = (upper if i <= j else lower).rows
            if x:
                rows[i][j] = x
    g = lower.mul(upper)
    return g, reference.solve(g, reference.identity(fld, d))


def _changed_basis(x, data):
    """x under a drawn change of basis g_v at each vertex: the arrow a:
    s -> t acts by g_t x_a g_s^-1.  The vertices scale by distinct odd
    numbers, 1 mod 2, so the content changes over Q and F_101 on most
    drawn modules."""
    fld = x.field
    index = x.algebra.vertex_index
    g = {v: _invertible(fld, d, data, 2 * index[v] + 1)
         for v, d in x.dims.items()}
    amap = x.algebra.arrow_map
    mats = {name: g[amap[name].target][0].mul(m).mul(g[amap[name].source][1])
            for name, m in x.mats.items()}
    return Representation(x.algebra, fld, x.dims, mats)


@settings(max_examples=40, deadline=None)
@given(gentle_presentations(), st.sampled_from(FIELDS), st.data())
def test_a_string_module_is_isomorphic_to_its_inverse(p, fld, data):
    a = validate_gentle(p)
    w = data.draw(st.sampled_from(enumerate_strings(a, 4)))
    _witnesses(string_module(a, w, fld), string_module(a, w.inverse(), fld))


@settings(max_examples=40, deadline=None)
@given(gentle_presentations(), st.data())
def test_a_change_of_basis_is_an_isomorphism(p, data):
    a = validate_gentle(p)
    words = enumerate_strings(a, 4)
    # a change of basis can show only on a stored arrow, and over F_2 only
    # where a walk visits a vertex twice
    modules = {fld: [m for m in (string_module(a, w, fld) for w in words)
                     if m.mats and (fld != 2 or max(m.dims.values()) > 1)]
               for fld in FIELDS}
    fields = [fld for fld in FIELDS if modules[fld]]
    assume(fields)
    x = data.draw(st.sampled_from(modules[data.draw(st.sampled_from(fields))]))
    y = _changed_basis(x, data)
    # the content differs, so only a hom basis map can be the witness
    assume(y.mats != x.mats)
    _witnesses(x, y)


@settings(max_examples=40, deadline=None)
@given(gentle_presentations(), st.sampled_from(FIELDS))
def test_string_modules_of_different_words_are_not_isomorphic(p, fld):
    a = validate_gentle(p)
    by_dims = {}
    for w in enumerate_strings(a, 3):
        m = string_module(a, w, fld)
        by_dims.setdefault(m.dim_vector(), []).append(m)
    for group in by_dims.values():
        for x, y in combinations(group, 2):
            assert isomorphism(x, y) is None
            assert reference.isomorphism(x, y) is None


def test_words_of_one_dimension_vector_on_the_fixtures(eightv):
    kron = validate_gentle(kronecker())
    pairs = 0
    for a in (eightv, kron):
        for fld in FIELDS:
            by_dims = {}
            for w in enumerate_strings(a, 4):
                m = string_module(a, w, fld)
                by_dims.setdefault(m.dim_vector(), []).append(m)
            for group in by_dims.values():
                for x, y in combinations(group, 2):
                    pairs += 1
                    assert isomorphism(x, y) is None
                    assert reference.isomorphism(x, y) is None
                for x in group:
                    _witnesses(x, x)
    assert pairs > 0


def test_equal_content_builds_no_hom_system(eightv, monkeypatch):
    def no_system(m, n):
        raise AssertionError("hom system built")

    monkeypatch.setattr(reps, "_hom_system", no_system)
    for w in enumerate_strings(eightv, 3):
        x = string_module(eightv, w)
        f = isomorphism(x, string_module(eightv, w))
        assert all(b.rows == [{i: 1} for i in range(b.nrows)]
                   for b in f.blocks.values())
        f.check()


def test_a_witness_covers_every_vertex_of_both_modules(eightv):
    # the identity of S_8 into S_8 + S_1 commutes with every arrow and
    # has square blocks of full rank, but misses the vertex 1 of its target
    s8 = string_module(eightv, lazy_word(eightv, "8"))
    s1 = string_module(eightv, lazy_word(eightv, "1"))
    bigger = direct_sum(eightv, QQ, [s8, s1])[0]
    identity = isomorphism(s8, s8)
    assert ModuleMap(s8, s8, identity.blocks).is_isomorphism()
    assert not ModuleMap(s8, bigger, identity.blocks).is_isomorphism()
    assert not ModuleMap(s8, s8, {}).is_isomorphism()
    assert isomorphism(s8, bigger) is None


def test_check_rejects_a_block_of_the_wrong_shape(eightv):
    # no arrow at 8 is stored by S_8, so only the shape can tell
    s8 = string_module(eightv, lazy_word(eightv, "8"))
    f = ModuleMap(s8, s8, {"8": Matrix.zeros(QQ, 2, 5)})
    with pytest.raises(ValueError, match="wrong shape"):
        f.check()
    assert not f.is_isomorphism()
