import errno
import io
import json
import os
import sys
import time
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from gentlegp import (Arrow, Matrix, ModuleMap, QuiverPresentation,
                      parse_presentation, serialize_presentation,
                      validate_gentle)
from gentlegp.cli import run
from gentlegp.families import (cyclic_nakayama, linear_quiver,
                               projective_line_chain)

from conftest import data_path
from reference import add
from test_cli_golden import _invoke as golden_invoke

EX22 = str(data_path("eight_vertex.gentle"))
A2 = str(data_path("a2.gentle"))
L3 = str(data_path("lambda3.gentle"))
L4 = str(data_path("lambda4.gentle"))
NOTGENTLE = str(data_path("notgentle.gentle"))
TOO_LARGE = "prime field characteristic must be below 2^31"
HEXAGON = str(data_path("hexagon.tri"))
FAN5 = str(data_path("fan5.tri"))
TWOCYCLES = str(data_path("twocycles.gentle"))
DATA = data_path(".")
ALGEBRA_FILES = sorted(p for p in DATA.glob("**/*.gentle")
                       if p.name != "notgentle.gentle")
TRI_FILES = sorted(DATA.glob("**/*.tri"))


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
    assert code == 2 and out == {
        "status": "error",
        "reason": "[Errno 2] No such file or directory: '/no/such/file.gentle'"}


def test_emit_algebra_into_a_missing_directory_exits_2(tmp_path, capsys):
    dest = tmp_path / "missing" / "x.gentle"
    code, out = invoke(capsys, "surface", HEXAGON, "--emit-algebra", str(dest))
    assert code == 2 and out == {
        "status": "error",
        "reason": f"[Errno 2] No such file or directory: '{dest}'"}


class FullDisk(io.StringIO):
    """Standard output on a full disk: every write, or only the flush,
    fails."""

    def __init__(self, failing):
        super().__init__()
        self.failing, self.writes = failing, 0

    def _check(self, method):
        if method == self.failing:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def write(self, s):
        self.writes += 1
        self._check("write")
        return super().write(s)

    def flush(self):
        self._check("flush")


@pytest.mark.parametrize("failing", ["write", "flush"])
def test_a_result_that_cannot_be_written_exits_1(failing, capsys,
                                                 monkeypatch):
    # the input is fine, so this is no bad-input exit; the error goes to
    # stderr once and never back to the broken stream
    stdout = FullDisk(failing)
    monkeypatch.setattr(sys, "stdout", stdout)
    assert run(["validate", EX22]) == 1
    assert stdout.writes == 1
    assert capsys.readouterr().err == (
        "gentlegp: cannot write the result: [Errno 28] No space left on "
        "device\n")


@pytest.mark.parametrize("p", [linear_quiver(460), projective_line_chain(1000)],
                         ids=["A460", "lambda1000"])
def test_dim_too_large_is_input_error(p, tmp_path, capsys):
    # gentle, but its dimension exceeds the library's cap on basis paths:
    # bad input, not an internal error or a traceback
    f = tmp_path / "big.gentle"
    f.write_text(serialize_presentation(p))
    code, out = invoke(capsys, "dim", str(f))
    assert code == 2
    assert out["status"] == "error" and "path basis" in out["reason"]


@pytest.mark.parametrize("argv", [["dim"], ["oracle"], ["stable"],
                                  ["ext", "--word", "1"]], ids=" ".join)
def test_basis_reading_commands_refuse_an_oversized_basis(argv, tmp_path,
                                                          capsys):
    # lambda_1000 has critical cycles, so stable builds modules too
    f = tmp_path / "big.gentle"
    f.write_text(serialize_presentation(projective_line_chain(1000)))
    code, out = invoke(capsys, argv[0], str(f), *argv[1:])
    assert code == 2
    assert out["status"] == "error" and "path basis" in out["reason"]


@pytest.mark.parametrize("argv", [["dim"], ["oracle"], ["stable"],
                                  ["ext", "--word", "1"]], ids=" ".join)
def test_homological_commands_refuse_a_large_algebra_without_cycles(
        argv, tmp_path, capsys):
    # A_460 has no critical cycle, so stable would build no module
    f = tmp_path / "big.gentle"
    f.write_text(serialize_presentation(linear_quiver(460)))
    code, out = invoke(capsys, argv[0], str(f), *argv[1:])
    assert code == 2
    assert out["reason"] == ("path basis exceeds 100000 paths; "
                             "the algebra is too large for this library")


@pytest.mark.parametrize("p, dimension",
                         [(linear_quiver(460), 106030),
                          (projective_line_chain(1000), 1002001)],
                         ids=["A460", "lambda1000"])
def test_validate_counts_the_dimension_of_a_large_algebra(
        p, dimension, tmp_path, capsys):
    # validate builds no path basis, so the cap does not apply to it
    f = tmp_path / "big.gentle"
    f.write_text(serialize_presentation(p))
    code, out = invoke(capsys, "validate", str(f))
    assert code == 0
    assert out == {"status": "ok", "gentle": True, "dimension": dimension}


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


def test_gp_names_each_cycle_once(tmp_path, capsys, monkeypatch):
    # a cycle's name joins all its arrows, so I_n writes it once and each
    # entry cites it by index, not once per arrow on the cycle
    from gentlegp.gentle import CriticalCycle

    path = tmp_path / "i40.gentle"
    path.write_text(serialize_presentation(cyclic_nakayama(40)))
    reads = []
    real = CriticalCycle.name

    def name(cycle):
        reads.append(cycle)
        return real.fget(cycle)

    monkeypatch.setattr(CriticalCycle, "name", property(name))
    code = run(["gp", str(path)])
    raw = capsys.readouterr().out
    out = json.loads(raw)
    cycle = "".join(f"a{i}" for i in range(40, 0, -1))
    assert code == 0 and len(out["nonprojective"]) == 40
    assert raw.count(cycle) == 1 and out["cycles"] == [cycle]
    assert {d["cycle"] for d in out["nonprojective"]} == {0}
    assert len(reads) == 1


def test_gp_cites_the_cycle_of_each_arrow(capsys):
    # eight_vertex has two critical cycles: each entry's index reads the
    # name of the cycle that `cycles` lists with the entry's arrow
    _, out = invoke(capsys, "gp", EX22)
    _, listed = invoke(capsys, "cycles", EX22)
    owner = {arrow: c["name"] for c in listed["cycles"]
             for arrow in c["arrows"]}
    assert len(out["nonprojective"]) == len(owner) == 6
    assert out["cycles"] == [c["name"] for c in listed["cycles"]]
    assert {d["arrow"]: out["cycles"][d["cycle"]]
            for d in out["nonprojective"]} == owner


@pytest.mark.parametrize("source", ALGEBRA_FILES + TRI_FILES,
                         ids=lambda p: p.relative_to(DATA).as_posix())
def test_commands_read_one_classification(source, tmp_path, capsys):
    # gp, cycles, stable and dsg all report the critical cycles, in the
    # order cycles lists them
    path = str(source)
    if source.suffix == ".tri":
        path = str(tmp_path / "algebra.gentle")
        assert invoke(capsys, "surface", str(source),
                      "--emit-algebra", path)[0] == 0
    results = [invoke(capsys, *argv) for argv in (
        ["cycles", path], ["gp", path], ["--field", "q", "stable", path],
        ["dsg", path])]
    assert [code for code, _ in results] == [0] * 4
    listed, gp, stable, dsg = (out for _, out in results)
    arrows = [c["arrows"] for c in listed["cycles"]]
    names = [c["name"] for c in listed["cycles"]]
    assert gp["cycles"] == names
    for entry in gp["nonprojective"]:
        assert entry["arrow"] in arrows[entry["cycle"]]
    assert sorted(e["arrow"] for e in gp["nonprojective"]) == sorted(
        arrow for cycle in arrows for arrow in cycle)
    assert stable["orbits"] == arrows
    assert stable["objects"] == [{"cycle": name, "arrow": arrow}
                                 for name, cycle in zip(names, arrows)
                                 for arrow in cycle]
    assert dsg["descriptor"] == sorted(len(cycle) for cycle in arrows)
    assert dsg["indecomposable_objects"] == len(gp["nonprojective"])


def test_gp_output_is_linear_in_the_cycle_length(tmp_path, capsys):
    # one name per cycle: I_200 prints about twice what I_100 does (4.19
    # times while every entry repeated its cycle's name)
    sizes = []
    for n in (100, 200):
        path = tmp_path / f"i{n}.gentle"
        path.write_text(serialize_presentation(cyclic_nakayama(n)))
        assert run(["gp", str(path)]) == 0
        sizes.append(len(capsys.readouterr().out.encode()))
    assert sizes[1] < 2.5 * sizes[0]


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


def test_oracle_disagreement_exits_1(capsys, monkeypatch):
    from gentlegp import gp

    # a classifier that claims nothing is GP disagrees with every GP verdict
    monkeypatch.setattr(gp, "classified_words", lambda a: frozenset())
    code, out = invoke(capsys, "oracle", EX22, "--max-letters", "4")
    assert code == 1 and out["agreement"] is False
    assert any(c["verdict"] == "GP" for c in out["certificates"])


def test_oracle_takes_no_bound(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["oracle", EX22, "--bound", "3"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --bound 3" in capsys.readouterr().err


# the least prime and the largest below 2^31 are fields too
@pytest.mark.parametrize("field", ["q", "f101", "f2", "f2147483647"])
def test_gorenstein_dimension_is_two_sided_and_bounds_the_oracle(
        field, tmp_path, capsys):
    from gentlegp import (gorenstein_dimension, injective_dimension,
                          opposite, parse_field)

    files = ALGEBRA_FILES[:]
    for tri in TRI_FILES:
        emitted = tmp_path / f"{tri.stem}.gentle"
        code, _ = invoke(capsys, "surface", str(tri),
                         "--emit-algebra", str(emitted))
        assert code == 0
        files.append(emitted)
    fld = parse_field(field)
    for f in files:
        a = validate_gentle(parse_presentation(f.read_text()))
        d = gorenstein_dimension(a, fld).length
        assert d == injective_dimension(a, fld) == injective_dimension(
            validate_gentle(opposite(a.presentation)), fld)
        code, out = invoke(capsys, "--field", field, "dim", str(f))
        assert code == 0 and out["injective_dimension"] == d
        code, out = invoke(capsys, "--field", field, "oracle", str(f),
                           "--max-letters", "1")
        assert code == 0 and out["bound"] == max(d, 1)


def test_unequal_one_sided_injective_dimensions_exit_1(capsys, monkeypatch):
    from gentlegp import reps

    sides = iter([2, 1])
    monkeypatch.setattr(reps, "injective_coresolution",
                        lambda a, fld: reps.Coresolution(next(sides), ()))
    code, out = invoke(capsys, "oracle", EX22, "--max-letters", "1")
    assert code == 1
    assert out == {"status": "internal-error",
                   "reason": "injective dimensions 2 and 1 of the algebra "
                             "and its opposite differ"}


def test_internal_invariant_failure_exits_1(capsys, monkeypatch):
    from gentlegp import reps

    real = reps._subrepresentation

    def drop_an_arrow_target(m, bases):
        # a subspace the first nonzero arrow maps out of
        bases = {v: ([{i: 1} for i in range(d)], list(range(d)))
                 for v, d in m.dims.items()}
        arr = next(x for x in m.algebra.arrows if x.name in m.mats)
        bases[arr.target] = ([], [])
        return real(m, bases)

    monkeypatch.setattr(reps, "_subrepresentation", drop_an_arrow_target)
    code, out = invoke(capsys, "dim", EX22)
    assert code == 1
    assert out == {"status": "internal-error",
                   "reason": "subspace not closed under arrow action"}


def test_stable(capsys):
    code, out = invoke(capsys, "stable", EX22)
    assert code == 0
    assert out["identity"] is True
    assert out["orbits"] == [["e", "f", "j"], ["g", "k", "h"]]
    assert len(out["stable_hom_matrix"]) == 6


def _no_witness(real):
    """isomorphism finding nothing."""
    return lambda x, y: None


def _twisted_witness(real):
    """isomorphism with its block at the source of a nonzero arrow
    doubled, so that it no longer commutes with that arrow."""
    def twisted(x, y):
        f = real(x, y)
        arr = next((a for a in x.algebra.arrows if a.name in x.mats), None)
        if arr is not None:
            for row in f.blocks[arr.source].rows:
                for k, c in row.items():
                    row[k] = add(x.field, c, c)
        return f
    return twisted


def _zero_witness(real):
    """isomorphism returning the zero map, a module map of square but
    singular blocks."""
    return lambda x, y: ModuleMap(x, y, {v: Matrix.zeros(x.field, d, d)
                                         for v, d in x.dims.items()})


def _witness_of_another_pair(real):
    """isomorphism returning the identity of its target instead."""
    return lambda x, y: real(y, y)


def _doubled_diagonal(real):
    """hom_dim reading twice the dimension of every module's Hom to
    itself."""
    def doubled(m, n):
        d = real(m, n)
        return 2 * d if n is m else d
    return doubled


@pytest.mark.parametrize("name, patch, reason", [
    ("isomorphism", _no_witness, "does not match the next summand"),
    ("isomorphism", _twisted_witness, "does not match the next summand"),
    ("isomorphism", _zero_witness, "does not match the next summand"),
    ("isomorphism", _witness_of_another_pair,
     "does not match the next summand"),
    ("hom_dim", _doubled_diagonal, "is not the identity"),
], ids=["no-witness", "witness-not-a-map", "witness-singular",
        "witness-of-another-pair", "matrix-not-identity"])
def test_a_failed_stable_certificate_exits_1(name, patch, reason, eightv,
                                             capsys, monkeypatch):
    from gentlegp import ClassificationMismatchError, gp

    monkeypatch.setattr(gp, name, patch(getattr(gp, name)))
    with pytest.raises(ClassificationMismatchError, match=reason):
        gp.stable_category_table(eightv)
    code, out = invoke(capsys, "stable", EX22)
    assert code == 1
    assert out["status"] == "internal-error" and reason in out["reason"]


def test_stable_passes_field(capsys, monkeypatch):
    from gentlegp import gp

    seen = []
    table = gp.stable_category_table

    def spy(a, fld):
        seen.append(fld)
        return table(a, fld)

    monkeypatch.setattr(gp, "stable_category_table", spy)
    code, out = invoke(capsys, "--field", "f101", "stable", EX22)
    assert code == 0 and out["identity"] is True
    assert seen == [101] and type(seen[0]) is int


def test_ext_word(capsys):
    code, out = invoke(capsys, "ext", EX22, "--word", "i,d,a,f,k",
                       "--bound", "9")
    assert code == 0
    assert out["ext_dims"] == [0] * 9
    assert len(out["syzygy_dim_vectors"]) == 10
    assert out["status"] == "gorenstein" and "period" not in out
    assert out["certified"] is True


def test_ext_bound_defaults_to_the_gorenstein_dimension(capsys):
    code, out = invoke(capsys, "ext", EX22, "--word", "i,d,a,f,k")
    assert code == 0 and out["ext_dims"] == [0, 0]
    code, out = invoke(capsys, "ext", EX22, "--word", "i,d,a,f,k",
                       "--bound", "1")
    assert out["status"] == "checked-to-bound" and out["certified"] is False


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


def _nakayama_union(lengths):
    """The disjoint union of cyclic_nakayama(n) for n in lengths, the
    names of the k-th copy prefixed c{k}_."""
    vertices, arrows, relations = [], [], set()
    for k, n in enumerate(lengths):
        p, name = cyclic_nakayama(n), f"c{k}_".__add__
        vertices += map(name, p.vertices)
        arrows += [Arrow(name(x.name), name(x.source), name(x.target))
                   for x in p.arrows]
        relations |= {(name(b), name(a)) for b, a in p.relations}
    return QuiverPresentation(tuple(vertices), tuple(arrows),
                              frozenset(relations))


def _run_json(*argv):
    # capsys, a fixture per test, would be shared by every example
    code, out = golden_invoke(list(argv))
    return code, json.loads(out)


# multisets of critical-cycle lengths
LENGTHS = st.lists(st.integers(1, 5), max_size=6)


@settings(max_examples=60, deadline=None)
@given(la=LENGTHS, lb=LENGTHS)
def test_compare_witnesses_the_least_length_whose_multiplicity_differs(
        la, lb, tmp_path_factory):
    # each I_n is one critical n-cycle, so the union's descriptor is la
    paths = [tmp_path_factory.getbasetemp() / f"union_{side}.gentle"
             for side in "ab"]
    for path, ls in zip(paths, (la, lb)):
        path.write_text(serialize_presentation(_nakayama_union(ls)))
    ca, cb = Counter(la), Counter(lb)
    code, out = _run_json("compare", *map(str, paths))
    assert code == 0 and out.pop("compatible") == (ca == cb)
    assert out.pop("descriptor_a") == sorted(la)
    assert out.pop("descriptor_b") == sorted(lb)
    differing = [n for n in ca | cb if ca[n] != cb[n]]
    assert out == ({"witness_length": min(differing)} if differing else {})
    assert _run_json("dsg", str(paths[0])) == (0, {
        "descriptor": sorted(la),
        "factors": [f"{n - 1}-cluster category of type A1"
                    for n in sorted(la)],
        "indecomposable_objects": sum(la)})


def test_surface(capsys, tmp_path):
    dest = tmp_path / "hex.gentle"
    code, out = invoke(capsys, "surface", HEXAGON,
                       "--emit-algebra", str(dest))
    assert code == 0
    assert out["inner_count"] == 1 and out["count_matches"] is True
    assert out["descriptor"] == [3]
    # emitted DSL parses back into a gentle algebra
    a = validate_gentle(parse_presentation(dest.read_text()))
    assert len(a.vertices) == 3


@pytest.mark.parametrize("arc, renamed, offending", [
    ("x13", "arrows13", "arrows13"),
    ("x14", "relations14", "relations14_x13"),
    ("x13", "x-13", "x-13"),
    ("x13", "x 13", "x 13"),
    ("x13", "x:13", "x:13")])
def test_surface_refuses_to_emit_what_does_not_parse_back(
        capsys, tmp_path, arc, renamed, offending):
    tri = tmp_path / "fan5.tri"
    tri.write_text(data_path("fan5.tri").read_text().replace(arc, renamed))
    code, out = invoke(capsys, "surface", str(tri))
    assert code == 0 and out["inner_count"] == 0
    dest = tmp_path / "fan5.gentle"
    code, out = invoke(capsys, "surface", str(tri),
                       "--emit-algebra", str(dest))
    assert code == 2 and out["status"] == "error"
    assert repr(offending) in out["reason"]
    assert not dest.exists()


def test_surface_with_a_twisted_gluing_is_not_gentle(capsys, tmp_path):
    # the annulus with the inner triangle's sides in the other orientation:
    # the two arrows between x and y compose both ways with no relation
    twisted = tmp_path / "twisted.tri"
    twisted.write_text("arcs: x, y;\nboundary: o, i;\n"
                       "triangles: (o,x,y); (i,y,x)\n")
    code, out = invoke(capsys, "surface", str(twisted))
    assert code == 2
    assert out == {"status": "not-gentle",
                   "violations": [{"axiom": "infinite-dimensional",
                                   "witness": ["x_y", "y_x"]}]}


def test_dim(capsys):
    code, out = invoke(capsys, "dim", EX22)
    assert code == 0
    assert out == {"dimension": 64, "injective_dimension": 2}


def test_dim_prime_field(capsys):
    code, out = invoke(capsys, "--field", "f101", "dim", EX22)
    assert code == 0 and out["injective_dimension"] == 2


def test_dim_and_oracle_resolve_past_64_steps(capsys):
    # radical-square-zero A_70: every composition of two arrows is a
    # relation, so its injective dimension reaches the bound of one per
    # arrow, 69
    a70 = str(data_path("families/a70_rad2.gentle"))
    code, out = invoke(capsys, "dim", a70)
    assert (code, out["injective_dimension"]) == (0, 69)
    code, out = invoke(capsys, "oracle", a70, "--max-letters", "2")
    assert (code, out["bound"], out["agreement"]) == (0, 69, True)


# the algebra of a single triangle: no vertices, no arrows, dimension 0
ZERO_ALGEBRA = "vertices: \narrows: \nrelations: \n"


@pytest.mark.parametrize("field", ["q", "f101"])
def test_dim_of_the_zero_algebra(field, tmp_path, capsys):
    f = tmp_path / "zero.gentle"
    f.write_text(ZERO_ALGEBRA)
    code, out = invoke(capsys, "--field", field, "dim", str(f))
    assert code == 0
    assert out == {"dimension": 0, "injective_dimension": 0}


@pytest.mark.parametrize("field", ["q", "f101"])
def test_oracle_on_the_zero_algebra(field, tmp_path, capsys):
    f = tmp_path / "zero.gentle"
    f.write_text(ZERO_ALGEBRA)
    code, out = invoke(capsys, "--field", field, "oracle", str(f))
    assert code == 0
    assert out["agreement"] is True and out["bound"] == 1
    assert out["certificates"] == []


def test_dim_of_the_algebra_a_single_triangle_emits(tmp_path, capsys):
    tri, emitted = tmp_path / "triangle.tri", tmp_path / "triangle.gentle"
    tri.write_text("arcs: ; boundary: a, b, c; triangles: (a,b,c)\n")
    code, _ = invoke(capsys, "surface", str(tri),
                     "--emit-algebra", str(emitted))
    assert code == 0 and emitted.read_text() == ZERO_ALGEBRA
    code, out = invoke(capsys, "dim", str(emitted))
    assert code == 0
    assert out == {"dimension": 0, "injective_dimension": 0}


def test_bad_field(capsys):
    code, out = invoke(capsys, "--field", "r64", "dim", EX22)
    assert code == 2 and out["status"] == "error"


@pytest.mark.parametrize("argv, reason", [
    (("--field", "f6", "dim", EX22), "6 is not prime"),
    (("ext", EX22, "--word", "i,d,a,f,k", "--bound", "-3"),
     "bound must be positive"),
    (("ext", EX22, "--word", "a,b"),
     "invalid string word: direct letters a,b form a relation"),
    (("oracle", A2, "--max-letters", "-2"), "max_letters must be nonnegative"),
    # a digit that int() rejects, a p too large for a float square root, a
    # p too long to convert, and a prime too large for trial division
    (("--field", "f\u00b2", "dim", A2), "unrecognized field spec 'f\u00b2'"),
    (("--field", "f1" + "0" * 401, "dim", A2), TOO_LARGE),
    (("--field", "f" + "9" * 5000, "dim", A2), TOO_LARGE),
    (("--field", "f2305843009213693951", "dim", A2), TOO_LARGE),
    # a bound of 0 is given, not left to the default
    (("ext", EX22, "--word", "i,d,a,f,k", "--bound", "0"),
     "bound must be positive"),
    (("ext", EX22, "--word", "a,,b"), "empty letter in word"),
    # as many digits as a p below 2^31, but larger
    (("--field", "f2147483648", "dim", A2), TOO_LARGE),
    # every command parses the field before it reads its input, even one
    # that computes over no field
    *[(("--field", "f6", command, *files), "6 is not prime")
      for command, *files in [("validate", EX22), ("cycles", EX22),
                              ("gp", EX22), ("dsg", EX22),
                              ("compare", EX22, A2), ("surface", FAN5),
                              ("dim", "missing.gentle")]],
    # every characteristic the field's constructor refused, and an
    # 11-digit p
    *[(("--field", f"f{p}", "dim", A2), f"{p} is not prime")
      for p in (0, 1, 4)],
    (("--field", "f12345678901", "dim", A2), TOO_LARGE),
])
def test_input_errors_exit_2(argv, reason, capsys):
    start = time.perf_counter()
    code = run(list(argv))
    assert time.perf_counter() - start < 1
    assert code == 2
    assert capsys.readouterr().out == json.dumps(
        {"reason": reason, "status": "error"}, separators=(",", ":")) + "\n"


@pytest.mark.parametrize("command, name, text, reason", [
    ("validate", "dup.gentle",
     "vertices: 1, 2\narrows: a: 1 -> 2; a: 2 -> 1\nrelations:\n",
     "duplicate arrow id 'a'"),
    ("validate", "source.gentle", "vertices: 1\narrows: a: x -> 1\nrelations:\n",
     "arrow 'a' has undeclared source 'x'"),
    ("surface", "both.tri", "arcs: x; boundary: x, b, c; triangles: (x,b,c)\n",
     "an arc id appears in both arc lists"),
    ("surface", "twice.tri",
     "arcs: x, x; boundary: b1,b2,b3,b4; triangles: (b1,b2,x); (x,b3,b4)\n",
     "duplicate arc id 'x'"),
    ("surface", "twice-boundary.tri",
     "arcs: x; boundary: b1,b2,b3,b1; triangles: (b1,b2,x); (x,b3,b4)\n",
     "duplicate arc id 'b1'"),
], ids=["duplicate-arrow", "undeclared-source", "arc-in-both-lists",
        "arc-twice-in-arcs", "arc-twice-in-boundary"])
def test_invalid_files_exit_2(command, name, text, reason, tmp_path, capsys):
    f = tmp_path / name
    f.write_text(text)
    code, out = invoke(capsys, command, str(f))
    assert code == 2 and out == {"status": "error", "reason": reason}


@pytest.mark.parametrize("argv, reason", [
    (("oracle", EX22, "--max-letters", "-1"), "max_letters must be nonnegative"),
    (("ext", EX22, "--word", "i,d,a,f,k", "--bound", "0"),
     "bound must be positive"),
])
def test_bad_input_exits_before_the_coresolution(argv, reason, capsys,
                                                 monkeypatch):
    from gentlegp import reps

    def refuse(a, fld):
        raise AssertionError("the coresolution was computed")

    monkeypatch.setattr(reps, "gorenstein_dimension", refuse)
    code, out = invoke(capsys, *argv)
    assert code == 2
    assert out == {"status": "error", "reason": reason}


def test_huge_max_letters_stops_when_strings_run_out(capsys):
    # A_2 has finitely many strings, so the sweep ends with the last one
    start = time.perf_counter()
    code, huge = invoke(capsys, "oracle", A2, "--max-letters", str(10 ** 12))
    assert time.perf_counter() - start < 1
    _, small = invoke(capsys, "oracle", A2, "--max-letters", "6")
    assert code == 0
    assert huge["certificates"] == small["certificates"]


def test_undecodable_input_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "latin1.gentle"
    bad.write_bytes(b"vertices: \xe9\n")
    code, out = invoke(capsys, "validate", str(bad))
    assert code == 2 and out == {
        "status": "error",
        "reason": "'utf-8' codec can't decode byte 0xe9 in position 10: "
                  "invalid continuation byte"}


def test_bare_value_error_is_internal(capsys, monkeypatch):
    from gentlegp import linalg

    def broken(*args):
        raise ValueError("rows of unequal length")

    # a shape bug inside the kernel is no fault of the input
    monkeypatch.setattr(linalg, "echelon", broken)
    code, out = invoke(capsys, "dim", EX22)
    assert code == 1
    assert out == {"status": "internal-error",
                   "reason": "rows of unequal length"}


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
