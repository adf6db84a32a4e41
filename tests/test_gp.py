import pytest
from hypothesis import given, settings, strategies as st

from gentlegp import (QQ, classified_words, critical_cycles,
                      enumerate_strings, gorenstein_dimension, gp_oracle,
                      projective_rep, radical_summand_rep,
                      singularity_descriptor, stable_category_table,
                      string_module, validate_gentle)
from gentlegp.families import cyclic_nakayama, projective_line_chain

from test_cli import A2, EX22, L3, L4, TWOCYCLES, invoke
from test_gentle import gentle_presentations


def test_classify_eight_vertex(eightv):
    cycles = critical_cycles(eightv)
    assert tuple(eightv.vertices) == tuple("12345678")
    assert [arrow for c in cycles for arrow in c.arrows] == [
        "e", "f", "j", "g", "k", "h"]
    assert [c.name for c in cycles] == ["jfe", "hkg"]


def test_classify_no_cycles(a2):
    assert tuple(a2.vertices) == ("1", "2") and critical_cycles(a2) == []


def test_descriptor_eight_vertex(eightv):
    assert singularity_descriptor(eightv) == (3, 3)


def test_descriptor_lambda_family():
    for n in range(2, 6):
        a = validate_gentle(projective_line_chain(n))
        assert singularity_descriptor(a) == (2,) * (n - 1)


def test_oracle_on_radical_summand(eightv):
    cert = gp_oracle(radical_summand_rep(eightv, "g", QQ),
                     gorenstein_dimension(eightv), label="R(g)")
    assert cert.verdict == "GP"
    assert cert.status == "gorenstein" and cert.ext_dims == [0, 0]
    assert cert.obstruction == 0


def test_oracle_on_projective(eightv):
    cert = gp_oracle(projective_rep(eightv, "1", QQ),
                     gorenstein_dimension(eightv))
    assert cert.verdict == "GP" and cert.reason == "projective"
    assert cert.status == "terminated"


def test_oracle_rejects_off_cycle_string(eightv):
    from gentlegp import Letter, make_string

    m = string_module(eightv, make_string(eightv, [Letter("b", True)]))
    cert = gp_oracle(m, gorenstein_dimension(eightv), label="M(b)")
    assert cert.verdict == "not-GP"


def test_oracle_agrees_with_classifier_on_i3(i3):
    # small enough to sweep every string module exhaustively
    d = gorenstein_dimension(i3)
    words = classified_words(i3)
    for w in enumerate_strings(i3, 2 * len(i3.arrows)):
        m = string_module(i3, w)
        cert = gp_oracle(m, d)
        assert cert.verdict in ("GP", "not-GP")
        assert (cert.verdict == "GP") == (w.canonical() in words)


def test_oracle_sweep_eight_vertex_short_words(eightv):
    words = classified_words(eightv)
    d = gorenstein_dimension(eightv)
    for w in enumerate_strings(eightv, 3):
        m = string_module(eightv, w)
        cert = gp_oracle(m, d)
        assert cert.verdict in ("GP", "not-GP")
        assert (cert.verdict == "GP") == (w.canonical() in words)


@settings(max_examples=60, deadline=None)
@given(gentle_presentations(),
       st.sampled_from([QQ, 2, 101]))
def test_oracle_agrees_with_classifier_on_generated_algebras(p, fld):
    # the oracle's linear algebra and the classifier's critical cycles
    # are independent routes to the same GP modules
    a = validate_gentle(p)
    d = gorenstein_dimension(a, fld)
    words = classified_words(a)
    for w in enumerate_strings(a, 3):
        cert = gp_oracle(string_module(a, w, fld), d)
        assert cert.verdict in ("GP", "not-GP")
        assert (cert.verdict == "GP") == (w.canonical() in words), w


def test_oracle_bound_is_the_gorenstein_dimension(eightv, i3, a2):
    # Ext is taken up to max(d, 1): Ext^1 on a self-injective algebra
    for a, d in ((eightv, 2), (i3, 0), (a2, 1)):
        coresolution = gorenstein_dimension(a)
        assert coresolution.length == d
        gp = projective_rep(a, a.vertices[0], QQ)
        assert len(gp_oracle(gp, coresolution).ext_dims) == max(d, 1)


def test_oracle_refuses_finite_projective_dimension_with_ext_zero(
        eightv, monkeypatch):
    from gentlegp import InternalError, Letter, gp, make_string

    # Ext^n(M, Lambda) is nonzero at n = pd M, so a profile that hides it
    # is a bug, not a verdict
    real = gp.ext_profile

    def hollow(m, bound, d, hom_m=None):
        return real(m, bound, d, hom_m)._replace(dims=[0] * bound)

    monkeypatch.setattr(gp, "ext_profile", hollow)
    # M(f,k) embeds into a projective and has projective dimension 1
    m = string_module(eightv, make_string(eightv, [Letter("f", True),
                                                   Letter("k", True)]))
    with pytest.raises(InternalError, match="finite projective dimension"):
        gp_oracle(m, gorenstein_dimension(eightv), label="M(f,k)")


def test_stable_table_eight_vertex(eightv):
    t = stable_category_table(eightv)
    assert [c.arrows for c in t.cycles] == [("e", "f", "j"), ("g", "k", "h")]
    assert len(t.matrix) == 6 and t.is_identity


@settings(max_examples=60, deadline=None)
@given(gentle_presentations(),
       st.sampled_from([QQ, 2, 101]))
def test_stable_table_on_generated_algebras(p, fld):
    # one object per arrow on a critical cycle, each cycle one shift
    # orbit, and the identity as the stable-hom matrix
    a = validate_gentle(p)
    cycles = critical_cycles(a)
    t = stable_category_table(a, fld)
    assert t.cycles == cycles
    assert len(t.matrix) == sum(c.length for c in cycles)
    assert t.is_identity


def test_stable_table_empty_without_cycles(a2):
    t = stable_category_table(a2)
    assert t.cycles == [] and t.matrix == [] and t.is_identity


def test_compare_reflexive_and_symmetric(capsys):
    assert invoke(capsys, "compare", EX22, EX22) == (0, {
        "compatible": True, "descriptor_a": [3, 3], "descriptor_b": [3, 3]})
    _, r1 = invoke(capsys, "compare", EX22, A2)
    _, r2 = invoke(capsys, "compare", A2, EX22)
    assert not r1["compatible"] and not r2["compatible"]
    assert r1["witness_length"] == r2["witness_length"] == 3


def test_compare_lambda3_vs_lambda4(capsys):
    code, r = invoke(capsys, "compare", L3, L4)
    assert code == 0 and r == {"compatible": False, "descriptor_a": [2, 2],
                               "descriptor_b": [2, 2, 2],
                               "witness_length": 2}


def test_compare_eight_vertex_vs_disjoint_three_cycles(capsys):
    code, r = invoke(capsys, "compare", EX22, TWOCYCLES)
    assert code == 0 and r["compatible"]
    assert r["descriptor_a"] == r["descriptor_b"] == [3, 3]


def test_nakayama_whole_cycle_is_gp():
    i4 = validate_gentle(cyclic_nakayama(4))
    [cycle] = critical_cycles(i4)
    assert cycle.length == 4
    d = gorenstein_dimension(i4)
    assert d.length == 0
    for arrow in cycle.arrows:
        cert = gp_oracle(radical_summand_rep(i4, arrow, QQ), d)
        assert cert.verdict == "GP" and cert.ext_dims == [0]
