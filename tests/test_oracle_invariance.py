"""The oracle on modules it did not build: string modules of at most 3
letters under a random change of basis at every vertex, and direct sums of
two of them.  A change of basis hides the string basis, so no shortcut that
reads it can pass; a direct sum is decomposable, so no shortcut that
assumes one summand can pass.  A string module's hom and Ext dimensions
do not depend on the field, so neither does its certificate."""

from functools import lru_cache

from hypothesis import given, settings, strategies as st

from gentlegp import (QQ, direct_sum, embedding_obstruction,
                      enumerate_strings, ext_profile, gorenstein_dimension,
                      gp_oracle, isomorphism, parse_presentation,
                      string_module, validate_gentle)

from conftest import DATA
from test_gentle import deep_chains, gentle_presentations
from test_reps import hide_basis

FIXTURES = [validate_gentle(parse_presentation(p.read_text()))
            for p in sorted(DATA.glob("**/*.gentle"))
            if p.name != "notgentle.gentle"]
ALGEBRAS = st.one_of(st.sampled_from(FIXTURES),
                     gentle_presentations().map(validate_gentle),
                     deep_chains().map(validate_gentle))
FIELD_LIST = [QQ, 2, 101]
FIELDS = st.sampled_from(FIELD_LIST)


@lru_cache(maxsize=None)
def _words(a):
    return list(enumerate_strings(a, 3))


@lru_cache(maxsize=None)
def _coresolution(a, fld):
    return gorenstein_dimension(a, fld)


def _outcome(m, coresolution):
    cert = gp_oracle(m, coresolution)
    return cert.verdict, cert.ext_dims, cert.status, cert.obstruction


@settings(max_examples=100, deadline=None)
@given(ALGEBRAS, FIELDS, st.data())
def test_a_change_of_basis_changes_no_verdict(a, fld, data):
    m = string_module(a, data.draw(st.sampled_from(_words(a))), fld)
    hidden = hide_basis(data, m)
    coresolution = _coresolution(a, fld)
    assert _outcome(hidden, coresolution) == _outcome(m, coresolution)
    f = isomorphism(m, hidden)
    assert f is not None and f[:2] == (m, hidden) and f.is_isomorphism()


@settings(max_examples=100, deadline=None)
@given(ALGEBRAS, FIELDS, st.data())
def test_the_oracle_adds_over_a_direct_sum(a, fld, data):
    words = _words(a)
    parts = [string_module(a, data.draw(st.sampled_from(words)), fld)
             for _ in range(2)]
    total, _ = direct_sum(a, fld, parts)
    coresolution = _coresolution(a, fld)
    modules = parts + [total]
    # the obstruction and dim Hom(-, Lambda)
    obstructions = [embedding_obstruction(x) for x in modules]
    assert obstructions[2] == tuple(
        x + y for x, y in zip(obstructions[0], obstructions[1]))
    dims = [ext_profile(x, coresolution.bound, coresolution).dims
            for x in modules]
    assert dims[2] == [x + y for x, y in zip(dims[0], dims[1])]
    gp = [_outcome(x, coresolution) for x in modules]
    assert (gp[2][0] == "GP") == (gp[0][0] == gp[1][0] == "GP")
    # and the same sum with its basis hidden
    assert _outcome(hide_basis(data, total), coresolution) == gp[2]


@settings(max_examples=40, deadline=None)
@given(ALGEBRAS, st.data())
def test_a_string_module_gets_one_certificate_over_every_field(a, data):
    w = data.draw(st.sampled_from(_words(a)))
    first, *others = [_outcome(string_module(a, w, fld),
                               _coresolution(a, fld)) for fld in FIELD_LIST]
    assert others == [first] * len(others)
