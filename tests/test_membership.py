"""The exact isomorphism claims: classifier membership by canonical string
word, and the shift orbit of the stable category by an explicit inclusion
of each radical summand as the kernel of the next cover."""

from collections import Counter
from dataclasses import replace

import pytest

from gentlegp import (QQ, ClassificationMismatchError, PrimeField,
                      algebra_from_triangulation, classified_words,
                      classify_gp, critical_cycles, enumerate_strings,
                      gp_oracle, make_string, parse_letters,
                      parse_presentation, parse_triangulation, projective_rep,
                      radical_summand_rep, stable_category_table,
                      string_module, validate_gentle)
from gentlegp import gp, reps
from gentlegp.families import cyclic_nakayama, projective_line_chain

from conftest import DATA, data_path
from reference import signature

FIELDS = [QQ, PrimeField(101)]
ALGEBRAS = ["eight_vertex", "lambda4", "twocycles"]


def _algebra(name):
    # a fresh validation, so no cache or memo is shared with other tests
    text = data_path(f"{name}.gentle").read_text()
    return validate_gentle(parse_presentation(text))


def _corpus():
    """Every fixture and family file, every triangulation, lambda_3 to
    lambda_8 and I_2 to I_6, by label."""
    out = {}
    for p in sorted(DATA.glob("*.gentle")) + sorted(DATA.glob("families/*")):
        if p.stem != "notgentle":
            out[p.name] = validate_gentle(parse_presentation(p.read_text()))
    for p in sorted(DATA.glob("*.tri")) + sorted(DATA.glob("surfaces/*")):
        out[p.name] = algebra_from_triangulation(
            parse_triangulation(p.read_text()))
    for n in range(3, 9):
        out[f"lambda_{n}"] = validate_gentle(projective_line_chain(n))
    for n in range(2, 7):
        out[f"I_{n}"] = validate_gentle(cyclic_nakayama(n))
    return out


CORPUS = _corpus()


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


@pytest.mark.parametrize("label", sorted(CORPUS))
def test_one_word_per_classified_gp(label):
    a = CORPUS[label]
    words = classified_words(a)
    assert len(words) == len(a.vertices) + sum(
        c.length for c in critical_cycles(a))
    assert all(w.canonical() == w for w in words)


@pytest.mark.parametrize("fld", FIELDS, ids=str)
@pytest.mark.parametrize("name", ALGEBRAS)
def test_word_membership_matches_the_signature(name, fld):
    a = _algebra(name)
    cls = classify_gp(a)
    gps = [projective_rep(a, v, fld) for v in cls.projectives]
    gps += [radical_summand_rep(a, x, fld) for _, x in cls.nonprojective]
    signatures = {signature(g) for g in gps}
    words = classified_words(a)
    for w in enumerate_strings(a, 4):
        m = string_module(a, w, fld)
        assert (w.canonical() in words) == (signature(m) in signatures)


def test_membership_builds_no_hom_system(count_hom_systems):
    a = _algebra("eight_vertex")
    words = classified_words(a)
    claimed = [w for w in enumerate_strings(a, 4) if w.canonical() in words]
    assert set(claimed) == {w for w in words if len(w) <= 4}
    assert sum(count_hom_systems.values()) == 0


def test_each_hom_to_a_projective_is_built_once(count_hom_systems):
    a = _algebra("eight_vertex")
    # the radical summand at j as a string module of its own: GP, so the
    # oracle resolves it and Ext needs dim Hom(M, Lambda)
    w = make_string(a, parse_letters("i,d,a,f,k"))
    m = string_module(a, w)
    cert = gp_oracle(a, m, 2)
    assert cert.verdict == "GP"
    assert w.canonical() in classified_words(a)
    for v in a.vertices:
        assert count_hom_systems[id(m), id(reps.projective_rep(a, v, QQ))] \
            == 1


@pytest.mark.parametrize("fld", FIELDS, ids=str)
def test_orbit_witness_rejects_the_wrong_successor(fld, monkeypatch):
    a = _algebra("eight_vertex")
    real = gp.critical_cycles
    # on 3-cycles the reversed order names the predecessor as successor
    monkeypatch.setattr(gp, "critical_cycles", lambda a: [
        replace(c, arrows=c.arrows[::-1]) for c in real(a)])
    assert {c.length for c in gp.critical_cycles(a)} == {3}
    with pytest.raises(ClassificationMismatchError,
                       match="does not match the next summand"):
        stable_category_table(a, fld)
