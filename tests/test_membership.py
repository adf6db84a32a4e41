"""The exact isomorphism claims: classifier membership by canonical string
word, checked against isomorphism witnesses, and the shift orbit of the
stable category by a checked isomorphism from each syzygy to the next
radical summand.  Also the oracle's route to Hom(-, Lambda): no hom
system per module, but one table of the algebra's injective
presentation per algebra and field."""

import json

import pytest

from gentlegp import (QQ, ClassificationMismatchError,
                      algebra_from_triangulation, classified_words,
                      critical_cycles, enumerate_strings,
                      gorenstein_dimension, gp_oracle, make_string,
                      parse_field, parse_letters, parse_presentation,
                      parse_triangulation, projective_rep,
                      radical_summand_rep, serialize_presentation,
                      stable_category_table, string_module, validate_gentle)
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


def test_the_oracle_builds_no_hom_system(hom_systems):
    a = _algebra("eight_vertex")
    # the radical summand at j as a string module of its own: GP, so the
    # oracle resolves it to the Gorenstein dimension 2
    w = make_string(a, parse_letters("i,d,a,f,k"))
    m = string_module(a, w)
    coresolution = gorenstein_dimension(a)
    assert coresolution.length == 2
    cert = gp_oracle(m, coresolution)
    assert (cert.verdict, cert.status) == ("GP", "gorenstein")
    assert w.canonical() in classified_words(a)
    # the embedding test and every Ext step read Hom(-, Lambda) off d^0
    assert len(cert.ext_dims) == 2 and hom_systems == []


def _recorded(argv, n, tmp_path, capsys, monkeypatch):
    """The (source, target) of every hom system and the (algebra, field)
    of every table of the injective presentation that one command builds,
    where argv names lambda_n's file as FILE, and the command's output."""
    f = tmp_path / f"lambda{n}.gentle"
    f.write_text(serialize_presentation(projective_line_chain(n)))
    systems, tables = [], []
    real_system, real_table = reps._hom_system, reps._injective_presentation

    def system(m, t):
        systems.append((m, t))
        return real_system(m, t)

    def table(a, fld):
        tables.append((a, fld))
        return real_table(a, fld)

    monkeypatch.setattr(reps, "_hom_system", system)
    monkeypatch.setattr(reps, "_injective_presentation", table)
    assert run([str(f) if x == "FILE" else x for x in argv]) == 0
    return systems, tables, json.loads(capsys.readouterr().out)


def test_an_oracle_sweep_builds_no_hom_system_and_one_table(
        tmp_path, capsys, monkeypatch):
    for n in (6, 24):
        for field in ("q", "f101"):
            systems, tables, out = _recorded(
                ["--field", field, "oracle", "FILE", "--max-letters", "3"],
                n, tmp_path, capsys, monkeypatch)
            assert out["certificates"] and systems == []
            # once per algebra and field, whatever the number of modules
            assert [fld for _, fld in tables] == [parse_field(field)]
            # dim builds the coresolution but never reads the table
            systems, tables, _ = _recorded(
                ["--field", field, "dim", "FILE"], n, tmp_path, capsys,
                monkeypatch)
            assert systems == tables == []


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
