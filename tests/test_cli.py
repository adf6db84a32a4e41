import json

import pytest

from gentlegp import serialize_presentation
from gentlegp.cli import run
from gentlegp.families import linear_quiver, projective_line_chain

from conftest import data_path

EX22 = str(data_path("eight_vertex.gentle"))
A2 = str(data_path("a2.gentle"))
L3 = str(data_path("lambda3.gentle"))
L4 = str(data_path("lambda4.gentle"))
NOTGENTLE = str(data_path("notgentle.gentle"))
HEXAGON = str(data_path("hexagon.tri"))
TWOCYCLES = str(data_path("twocycles.gentle"))


def invoke(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_validate_ok(capsys):
    code, out = invoke(capsys, "validate", EX22)
    assert code == 0
    assert out == {"status": "ok", "gentle": True, "dimension": 64}


def test_validate_not_gentle(capsys):
    code, out = invoke(capsys, "validate", NOTGENTLE)
    assert code == 2
    assert out["status"] == "not-gentle"
    axioms = {v["axiom"] for v in out["violations"]}
    assert "G1" in axioms


def test_missing_file(capsys):
    code, out = invoke(capsys, "validate", "/no/such/file.gentle")
    assert code == 2 and out["status"] == "error"


@pytest.mark.parametrize("p", [linear_quiver(460), projective_line_chain(1000)],
                         ids=["A460", "lambda1000"])
def test_validate_too_large_is_input_error(p, tmp_path, capsys):
    # gentle, but the path basis exceeds the library's cap: bad input, not
    # an internal error or a traceback
    f = tmp_path / "big.gentle"
    f.write_text(serialize_presentation(p))
    code, out = invoke(capsys, "validate", str(f))
    assert code == 2
    assert out["status"] == "error" and "path basis" in out["reason"]


def test_syntax_error_reported(tmp_path, capsys):
    bad = tmp_path / "bad.gentle"
    bad.write_text("vertices 1\narrows:\nrelations:")
    code, out = invoke(capsys, "validate", str(bad))
    assert code == 2 and "expected" in out["reason"]


def test_cycles(capsys):
    code, out = invoke(capsys, "cycles", EX22)
    assert code == 0
    assert out["cycles"] == [
        {"arrows": ["e", "f", "j"], "name": "jfe", "length": 3},
        {"arrows": ["g", "k", "h"], "name": "hkg", "length": 3}]


def test_gp(capsys):
    code, out = invoke(capsys, "gp", EX22)
    assert code == 0
    assert out["projectives"] == [str(i) for i in range(1, 9)]
    by_arrow = {d["arrow"]: d for d in out["nonprojective"]}
    assert set(by_arrow) == set("efjghk")
    assert by_arrow["k"]["vertices"] == ["8"] and by_arrow["k"]["dimension"] == 1
    assert by_arrow["j"]["word"] == ["i", "d", "a", "f", "k"]
    assert by_arrow["e"]["dimension"] == 10


def test_dsg(capsys):
    code, out = invoke(capsys, "dsg", EX22)
    assert code == 0
    assert out["descriptor"] == [3, 3]
    assert out["indecomposable_objects"] == 6
    assert out["factors"] == ["2-cluster category of type A1"] * 2


def test_oracle_agreement(capsys):
    code, out = invoke(capsys, "oracle", A2, "--max-letters", "2")
    assert code == 0 and out["agreement"] is True
    verdicts = {c["verdict"] for c in out["certificates"]}
    assert verdicts <= {"GP", "not-GP"}


def test_oracle_eight_vertex_short(capsys):
    code, out = invoke(capsys, "oracle", EX22, "--max-letters", "1")
    assert code == 0 and out["agreement"] is True


def test_stable(capsys):
    code, out = invoke(capsys, "stable", EX22)
    assert code == 0
    assert out["identity"] is True
    assert out["orbits"] == [["e", "f", "j"], ["g", "k", "h"]]
    assert len(out["stable_hom_matrix"]) == 6


def test_stable_passes_field(capsys, monkeypatch):
    from gentlegp import PrimeField, gp

    seen = []
    table = gp.stable_category_table

    def spy(a, fld):
        seen.append(fld)
        return table(a, fld)

    monkeypatch.setattr(gp, "stable_category_table", spy)
    code, out = invoke(capsys, "--field", "f101", "stable", EX22)
    assert code == 0 and out["identity"] is True
    assert seen == [PrimeField(101)]


def test_ext_word(capsys):
    code, out = invoke(capsys, "ext", EX22, "--word", "i,d,a,f,k",
                       "--bound", "9")
    assert code == 0
    assert out["ext_dims"] == [0] * 9
    assert out["status"] == "periodic" and out["period"] == 3
    assert out["certified"] is True


def test_ext_lazy_word(capsys):
    code, out = invoke(capsys, "ext", EX22, "--word", "3", "--bound", "4")
    assert code == 0 and out["word"] == "e_3"
    assert out["status"] == "terminated"


def test_ext_invalid_word(capsys):
    code, out = invoke(capsys, "ext", EX22, "--word", "e,f")
    assert code == 2 and out["status"] == "error"


def test_compare_compatible(capsys):
    code, out = invoke(capsys, "compare", EX22, TWOCYCLES)
    assert code == 0
    assert out == {"compatible": True, "descriptor_a": [3, 3],
                   "descriptor_b": [3, 3]}


def test_compare_incompatible(capsys):
    code, out = invoke(capsys, "compare", L3, L4)
    assert code == 0
    assert out["compatible"] is False and out["witness_length"] == 2


def test_surface(capsys, tmp_path):
    dest = tmp_path / "hex.gentle"
    code, out = invoke(capsys, "surface", HEXAGON,
                       "--emit-algebra", str(dest))
    assert code == 0
    assert out["inner_count"] == 1 and out["count_matches"] is True
    assert out["descriptor"] == [3]
    # emitted DSL parses back into a gentle algebra
    from gentlegp import parse_presentation, validate_gentle

    a = validate_gentle(parse_presentation(dest.read_text()))
    assert len(a.vertices) == 3


def test_dim(capsys):
    code, out = invoke(capsys, "dim", EX22)
    assert code == 0
    assert out == {"dimension": 64, "injective_dimension": 2}


def test_dim_prime_field(capsys):
    code, out = invoke(capsys, "--field", "f101", "dim", EX22)
    assert code == 0 and out["injective_dimension"] == 2


def test_bad_field(capsys):
    code, out = invoke(capsys, "--field", "r64", "dim", EX22)
    assert code == 2 and out["status"] == "error"


def test_output_is_deterministic(capsys):
    _, first = invoke(capsys, "gp", EX22)
    run(["gp", EX22])
    raw1 = capsys.readouterr().out
    run(["gp", EX22])
    raw2 = capsys.readouterr().out
    assert raw1 == raw2
    assert json.loads(raw1) == first


def test_pretty_flag_changes_formatting_not_content(capsys):
    run(["dsg", EX22])
    compact = capsys.readouterr().out
    run(["--pretty", "dsg", EX22])
    pretty = capsys.readouterr().out
    assert compact != pretty
    assert json.loads(compact) == json.loads(pretty)
