"""Acceptance gate: ten criteria, one printed pass/fail line each.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the lines as
they happen; under plain ``pytest`` the lines show up for failures.
"""

from gentlegp import (QQ, Letter, classified_words, critical_cycles,
                      embedding_obstruction,
                      enumerate_strings, gorenstein_dimension, gp_oracle,
                      injective_dimension,
                      make_string,
                      parse_triangulation, radical_summand_rep,
                      singularity_descriptor,
                      string_module, syzygy, hom_dim, projective_cover,
                      stable_category_table, validate_gentle,
                      verify_inner_triangle_count, algebra_presentation)
from gentlegp.families import cyclic_nakayama, projective_line_chain
from gentlegp.strings import radical_summand_string

from conftest import ACCEPTANCE_LINES, data_path
from reference import (band_module, contains_peak, is_isomorphic,
                       isomorphism, make_band)
from test_cli import EX22, L3, L4, TWOCYCLES, invoke


def report(number, name, ok):
    line = f"[criterion {number:02d}] {name}: {'PASS' if ok else 'FAIL'}"
    print(line)
    ACCEPTANCE_LINES.append(line)
    assert ok, f"criterion {number} ({name}) failed"


def test_criterion_01_eight_vertex_classification(eightv):
    cycles = critical_cycles(eightv)
    desc = singularity_descriptor(eightv)
    ok = ([(c.arrows, c.length) for c in cycles]
          == [(("e", "f", "j"), 3), (("g", "k", "h"), 3)]
          and tuple(eightv.vertices) == tuple("12345678")
          and [arrow for c in cycles for arrow in c.arrows]
          == ["e", "f", "j", "g", "k", "h"]
          and desc == (3, 3) and sum(desc) == 6)
    report(1, "eight-vertex example: cycles, GP list, descriptor", ok)


def test_criterion_02_radical_summand_dimension_vectors(eightv):
    rk = radical_summand_rep(eightv, "k", QQ)
    rh = radical_summand_rep(eightv, "h", QQ)
    rj = radical_summand_rep(eightv, "j", QQ)
    re_ = radical_summand_rep(eightv, "e", QQ)
    ok = (rk.total_dim == 1 and rk.dims["8"] == 1
          and rh.total_dim == 1 and rh.dims["4"] == 1
          and rj.total_dim == 6
          and radical_summand_string(eightv, "j").vertices == tuple("651278")
          and re_.total_dim == 10
          and re_.dims["2"] == 2 and re_.dims["7"] == 2)
    report(2, "radical-summand dimension vectors", ok)


def test_criterion_03_oracle_classifier_agreement(all_fixture_algebras):
    mismatches = []
    # the rationals up to six letters, F_101 up to four
    for fld, letters in ((QQ, 6), (101, 4)):
        for label, a in sorted(all_fixture_algebras.items()):
            d = gorenstein_dimension(a, fld)
            words = classified_words(a)
            for w in enumerate_strings(a, letters):
                m = string_module(a, w, fld)
                cert = gp_oracle(m, d, label=f"{label}:{w.display()}")
                if (cert.verdict == "GP") != (w.canonical() in words):
                    mismatches.append(f"{fld}:{cert.module_label}")
    ok = not mismatches
    report(3, "oracle agrees with classifier on every fixture sweep", ok)


def test_criterion_04_syzygy_orbits_close(all_fixture_algebras):
    ok = True
    for a in all_fixture_algebras.values():
        for c in critical_cycles(a):
            for i, arrow in enumerate(c.arrows):
                nxt = c.arrows[(i + 1) % c.length]
                r = radical_summand_rep(a, arrow, QQ)
                om = syzygy(projective_cover(r))
                # a witness Omega R(alpha_i) -> R(alpha_{i+1}), checked
                f = isomorphism(om, radical_summand_rep(a, nxt, QQ))
                if f is None:
                    ok = False
                else:
                    f.check()
    report(4, "syzygy orbits close with period = cycle length", ok)


def test_criterion_05_stable_hom_identity(eightv):
    table = stable_category_table(eightv)
    rk = radical_summand_rep(eightv, "k", QQ)
    rj = radical_summand_rep(eightv, "j", QQ)
    arrows = [arrow for c in table.cycles for arrow in c.arrows]
    # the one map R(k) -> R(j) factors through a projective
    ok = (len(arrows) == 6 and table.is_identity
          and hom_dim(rk, rj) == 1
          and table.matrix[arrows.index("k")][arrows.index("j")] == 0)
    report(5, "stable-hom matrix is the 6x6 identity", ok)


def test_criterion_06_lambda_family_descriptors():
    ok = True
    for n in range(2, 6):
        a = validate_gentle(projective_line_chain(n))
        if singularity_descriptor(a) != (2,) * (n - 1):
            ok = False
    report(6, "chain-of-spheres family descriptors are (2,...,2)", ok)


def test_criterion_07_embedding_obstruction(eightv, kron):
    ok = True
    # every string word with a peak fails to embed into a projective
    for w in enumerate_strings(eightv, 4):
        m = string_module(eightv, w)
        if contains_peak(w) and embedding_obstruction(m)[0] == 0:
            ok = False
    # the classified radical summands all embed
    for arrow in "efjghk":
        if embedding_obstruction(
                radical_summand_rep(eightv, arrow, QQ))[0] != 0:
            ok = False
    # a band module is obstructed and rejected by the oracle
    b = make_band(kron, [Letter("alpha", False), Letter("beta", True)])
    bm = band_module(kron, b, 1, 1)
    cert = gp_oracle(bm, gorenstein_dimension(kron), label="band")
    if embedding_obstruction(bm)[0] == 0 or cert.verdict != "not-GP":
        ok = False
    report(7, "peaks and bands obstruct embedding into projectives", ok)


def test_criterion_08_surface_count_check():
    hexagon = parse_triangulation(data_path("hexagon.tri").read_text())
    fan = parse_triangulation(data_path("fan5.tri").read_text())
    hx = verify_inner_triangle_count(hexagon)
    fn = verify_inner_triangle_count(fan)
    ok = (is_isomorphic(algebra_presentation(hexagon), cyclic_nakayama(3))
          and hx.holds and len(hx.triangles) == 1 and hx.descriptor == (3,)
          and fn.holds and len(fn.triangles) == 0 and fn.descriptor == ())
    report(8, "triangulations: inner triangles match descriptors", ok)


def test_criterion_09_derived_invariant_comparison(capsys):
    _, bad = invoke(capsys, "compare", L3, L4)
    _, good = invoke(capsys, "compare", EX22, TWOCYCLES)
    ok = (not bad["compatible"] and bad["witness_length"] == 2
          and good["compatible"]
          and good["descriptor_a"] == good["descriptor_b"] == [3, 3])
    report(9, "derived-invariant comparison distinguishes and matches", ok)


def test_criterion_10_injective_dimensions(all_fixture_algebras):
    ok = all(injective_dimension(validate_gentle(cyclic_nakayama(n))) == 0
             for n in range(2, 5))
    for a in all_fixture_algebras.values():
        try:
            injective_dimension(a)
        except AssertionError:
            ok = False
    report(10, "injective dimensions: selfinjective family 0, all finite", ok)
