"""The lazily compared module signature against the eager tuple it
replaces, and the hom systems it saves."""

from collections import Counter
from itertools import product

import pytest

from gentlegp import (QQ, PrimeField, classifier_membership,
                      enumerate_strings, gp_oracle, hom_dim, hom_profile,
                      make_string, module_signature, parse_letters,
                      parse_presentation, radical_summand_rep, string_module,
                      validate_gentle)
from gentlegp import reps
from gentlegp.gp import gp_signatures

from conftest import data_path

FIELDS = [QQ, PrimeField(101)]
ALGEBRAS = ["eight_vertex", "lambda4", "twocycles"]


def _algebra(name):
    # a fresh validation, so no cache or memo is shared with other tests
    text = data_path(f"{name}.gentle").read_text()
    return validate_gentle(parse_presentation(text))


def _eager_signature(m):
    """The signature as a tuple, every component computed up front."""
    a = m.algebra
    rad = tuple(hom_dim(m, radical_summand_rep(a, arr.name, m.field))
                for arr in a.arrows)
    return (m.dim_vector(), hom_profile(m), rad)


@pytest.fixture
def count_hom_systems(monkeypatch):
    """Counts the hom systems built, per (source, target) module pair."""
    built = Counter()
    real = reps._hom_system

    def counting(m, n):
        built[id(m), id(n)] += 1
        return real(m, n)

    monkeypatch.setattr(reps, "_hom_system", counting)
    return built


@pytest.mark.parametrize("fld", FIELDS, ids=str)
@pytest.mark.parametrize("name", ALGEBRAS)
def test_lazy_equality_matches_eager_tuple(name, fld):
    a = _algebra(name)
    modules = [string_module(a, w, fld) for w in enumerate_strings(a, 4)]
    eager = [_eager_signature(m) for m in modules]
    lazy = [module_signature(m) for m in modules]
    for i, j in product(range(len(modules)), repeat=2):
        assert (lazy[i] == lazy[j]) == (eager[i] == eager[j])
        assert (lazy[i] != lazy[j]) == (eager[i] != eager[j])
        if lazy[i] == lazy[j]:
            assert hash(lazy[i]) == hash(lazy[j])
    for sig, (dv, hom, rad) in zip(lazy, eager):
        assert (sig.dim_vector, sig.hom_profile, sig.rad_profile) == \
            (dv, hom, rad)


def test_one_signature_per_module():
    a = _algebra("eight_vertex")
    m = string_module(a, next(iter(enumerate_strings(a, 2))))
    assert module_signature(m) is module_signature(m)


def test_no_hom_system_without_dimension_vector_match(count_hom_systems):
    a = _algebra("eight_vertex")
    gp_dim_vectors = set(gp_signatures(a, QQ))
    m = next(m for m in (string_module(a, w) for w in enumerate_strings(a, 4))
             if m.dim_vector() not in gp_dim_vectors)
    assert classifier_membership(a, m) is False
    # compared one by one, the signatures differ at the dimension vector
    sig = module_signature(m)
    assert all(s != sig and sig != s
               for sigs in gp_signatures(a, QQ).values() for s in sigs)
    assert sum(count_hom_systems.values()) == 0


def test_each_hom_to_a_projective_is_built_once(count_hom_systems):
    a = _algebra("eight_vertex")
    # the radical summand at j as a string module of its own: GP, and its
    # dimension vector matches a classified GP, so membership needs its
    # hom profile too
    m = string_module(a, make_string(a, parse_letters("i,d,a,f,k")))
    cert = gp_oracle(a, m, 2)
    assert cert.verdict == "GP"
    assert classifier_membership(a, m) is True
    for v in a.vertices:
        assert count_hom_systems[id(m), id(reps.projective_rep(a, v, QQ))] \
            == 1
