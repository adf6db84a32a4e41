"""The exact isomorphism claims: classifier membership by canonical string
word, checked against isomorphism witnesses, and the shift orbit of the
stable category by a checked isomorphism from each syzygy to the next
radical summand.  Also the oracle's one Hom(-, Lambda) system per module
and per resolution step but the last."""

import json

import pytest

from gentlegp import (QQ, ClassificationMismatchError,
                      algebra_from_triangulation, classified_words,
                      critical_cycles, enumerate_strings,
                      gorenstein_dimension, gp_oracle, make_string,
                      parse_letters, parse_presentation, parse_triangulation,
                      projective_rep, radical_summand_rep, receiving_sum,
                      serialize_presentation, stable_category_table,
                      string_module, validate_gentle)
from gentlegp import gp, reps
from gentlegp.cli import run
from gentlegp.families import cyclic_nakayama, projective_line_chain

from conftest import DATA, data_path, field_id
from reference import isomorphism

FIELDS = [QQ, 101]
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
def hom_systems(monkeypatch):
    """The (source, target) module pair of every hom system built."""
    built = []
    real = reps._hom_system

    def recording(m, n):
        built.append((m, n))
        return real(m, n)

    monkeypatch.setattr(reps, "_hom_system", recording)
    return built


@pytest.mark.parametrize("label", sorted(CORPUS))
def test_one_word_per_classified_gp(label):
    a = CORPUS[label]
    words = classified_words(a)
    assert len(words) == len(a.vertices) + sum(
        c.length for c in critical_cycles(a))
    assert all(w.canonical() == w for w in words)


@pytest.mark.parametrize("fld", FIELDS, ids=field_id)
@pytest.mark.parametrize("name", ALGEBRAS)
def test_word_membership_matches_the_signature(name, fld):
    a = _algebra(name)
    gps = [projective_rep(a, v, fld) for v in a.vertices]
    gps += [radical_summand_rep(a, x, fld)
            for c in critical_cycles(a) for x in c.arrows]
    words = classified_words(a)
    for w in enumerate_strings(a, 4):
        # a string module is indecomposable, so no witness decides
        m = string_module(a, w, fld)
        witnesses = [f for f in (isomorphism(m, g) for g in gps) if f]
        for f in witnesses:
            f.check()
        assert (w.canonical() in words) == bool(witnesses)


def test_membership_builds_no_hom_system(hom_systems):
    a = _algebra("eight_vertex")
    words = classified_words(a)
    claimed = [w for w in enumerate_strings(a, 4) if w.canonical() in words]
    assert set(claimed) == {w for w in words if len(w) <= 4}
    assert hom_systems == []


def test_one_hom_system_against_the_regular_module_per_step(hom_systems):
    a = _algebra("eight_vertex")
    # the radical summand at j as a string module of its own: GP, so the
    # oracle resolves it to the Gorenstein dimension 2
    w = make_string(a, parse_letters("i,d,a,f,k"))
    m = string_module(a, w)
    coresolution = gorenstein_dimension(a)
    assert hom_systems == [] and coresolution.length == 2
    cert = gp_oracle(m, coresolution)
    assert (cert.verdict, cert.status) == ("GP", "gorenstein")
    assert w.canonical() in classified_words(a)
    # the embedding test, then one system per resolution step but the
    # last, which the Euler characteristic takes
    assert len(hom_systems) == len(cert.ext_dims)
    assert hom_systems[0][0] is m
    # each against the projectives whose socle meets the source's support
    assert all(target is receiving_sum(source)
               for source, target in hom_systems)


def _systems_per_module(n, tmp_path, capsys, monkeypatch):
    """The set of hom system counts of the modules of one oracle sweep of
    lambda_n, up to 3 letters."""
    f = tmp_path / f"lambda{n}.gentle"
    f.write_text(serialize_presentation(projective_line_chain(n)))
    built = []
    real_system, real_oracle = reps._hom_system, gp.gp_oracle

    def system(m, t):
        built[-1] += 1
        return real_system(m, t)

    def oracle(*args, **kwargs):
        built.append(0)
        return real_oracle(*args, **kwargs)

    monkeypatch.setattr(reps, "_hom_system", system)
    monkeypatch.setattr(gp, "gp_oracle", oracle)
    assert run(["oracle", str(f), "--max-letters", "3"]) == 0
    assert len(json.loads(capsys.readouterr().out)["certificates"]) \
        == len(built)
    return set(built)


def test_hom_systems_per_module_do_not_grow_with_the_quiver(
        tmp_path, capsys, monkeypatch):
    small = _systems_per_module(6, tmp_path, capsys, monkeypatch)
    assert small == _systems_per_module(24, tmp_path, capsys, monkeypatch)
    # the embedding test, then one system per resolution step but the
    # last: d = 1 leaves the embedding test alone
    d = gorenstein_dimension(validate_gentle(projective_line_chain(6))).length
    assert max(small) == max(d, 1) and small == {1}


@pytest.mark.parametrize("fld", FIELDS, ids=field_id)
def test_orbit_witness_rejects_the_wrong_successor(fld, monkeypatch):
    a = _algebra("eight_vertex")
    real = gp.critical_cycles
    # on 3-cycles the reversed order names the predecessor as successor
    monkeypatch.setattr(gp, "critical_cycles", lambda a: [
        c._replace(arrows=c.arrows[::-1]) for c in real(a)])
    assert {c.length for c in gp.critical_cycles(a)} == {3}
    with pytest.raises(ClassificationMismatchError,
                       match="does not match the next summand"):
        stable_category_table(a, fld)
