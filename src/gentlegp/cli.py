"""Command-line front end with machine-readable JSON output.

Exit codes: 0 ok; 2 not gentle / invalid / too large input; 1 internal
assertion failure (the combinatorial classification and the homological
oracle disagree, which would be a bug).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import gentle, gp, quiver, reps, strings, surface
from .linalg import parse_field


def _emit(payload, pretty):
    if pretty:
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        print(json.dumps(payload, sort_keys=True, separators=(",", ":")))


def _load_algebra(path):
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    return gentle.validate_gentle(quiver.parse_presentation(text))


def _violation_payload(violations):
    return [{"axiom": v.axiom, "witness": list(v.witness)} for v in violations]


def _cycle_payload(c):
    return {"arrows": list(c.arrows), "name": c.name, "length": c.length}


def cmd_validate(args):
    with open(args.file, encoding="utf-8") as fh:
        p = quiver.parse_presentation(fh.read())
    violations = gentle.gentle_violations(p)
    if violations:
        _emit({"status": "not-gentle",
               "violations": _violation_payload(violations)}, args.pretty)
        return 2
    a = gentle.validate_gentle(p)
    _emit({"status": "ok", "gentle": True, "dimension": a.dimension()},
          args.pretty)
    return 0


def cmd_cycles(args):
    a = _load_algebra(args.file)
    cycles = gentle.critical_cycles(a)
    _emit({"cycles": [_cycle_payload(c) for c in cycles]}, args.pretty)
    return 0


def cmd_gp(args):
    a = _load_algebra(args.file)
    cls = gp.classify_gp(a)
    nonproj = []
    for cycle, arrow in cls.nonprojective:
        verts = gentle.radical_summand_vertices(a, arrow)
        nonproj.append({
            "arrow": arrow,
            "cycle": cycle.name,
            "word": list(gentle.radical_summand_word(a, arrow)),
            "vertices": verts,
            "dimension": len(verts),
        })
    _emit({"projectives": sorted(cls.projectives),
           "nonprojective": sorted(nonproj, key=lambda d: d["arrow"])},
          args.pretty)
    return 0


def cmd_dsg(args):
    a = _load_algebra(args.file)
    d = gp.singularity_descriptor(a)
    _emit({"descriptor": list(d.cycle_lengths),
           "factors": d.factor_labels(),
           "indecomposable_objects": d.object_count}, args.pretty)
    return 0


def cmd_oracle(args):
    a = _load_algebra(args.file)
    fld = parse_field(args.field)
    bound = args.bound if args.bound else gp.default_ext_bound(a)
    certificates = []
    agreement = True
    for w in strings.enumerate_strings(a, args.max_letters):
        m = strings.string_module(a, w, fld)
        cert = gp.gp_oracle(a, m, bound, label=w.display())
        claimed = gp.classifier_membership(a, m)
        if cert.verdict == "inconclusive-to-bound":
            agreement = False
        elif (cert.verdict == "GP") != claimed:
            agreement = False
        certificates.append({
            "module": cert.module_label,
            "verdict": cert.verdict,
            "classifier": "GP" if claimed else "not-GP",
            "period": cert.period,
            "status": cert.status,
            "obstruction": cert.obstruction,
            "reason": cert.reason,
        })
    certificates.sort(key=lambda c: c["module"])
    _emit({"agreement": agreement, "bound": bound,
           "max_letters": args.max_letters,
           "certificates": certificates}, args.pretty)
    return 0 if agreement else 1


def cmd_stable(args):
    a = _load_algebra(args.file)
    table = gp.stable_category_table(a, parse_field(args.field))
    _emit({"objects": [{"cycle": c, "arrow": arrow}
                       for c, arrow in table.objects],
           "orbits": table.orbits,
           "stable_hom_matrix": table.matrix,
           "identity": table.is_identity}, args.pretty)
    return 0


def cmd_ext(args):
    a = _load_algebra(args.file)
    fld = parse_field(args.field)
    letters = strings.parse_letters(args.word)
    if len(letters) == 1 and letters[0].direct and \
            letters[0].arrow not in a.arrow_map and \
            letters[0].arrow in a.vertices:
        w = strings.lazy_word(a, letters[0].arrow)
    else:
        w = strings.make_string(a, letters)
    m = strings.string_module(a, w, fld)
    bound = args.bound if args.bound else gp.default_ext_bound(a)
    profile = reps.ext_profile(m, bound)
    _emit({"word": w.display(),
           "ext_dims": profile.dims,
           "syzygy_dim_vectors": [list(dv) for dv in profile.syzygy_dim_vectors],
           "period": profile.period,
           "status": profile.status,
           "certified": profile.certified}, args.pretty)
    return 0


def cmd_compare(args):
    a = _load_algebra(args.file_a)
    b = _load_algebra(args.file_b)
    report = gp.compare_derived_invariant(a, b)
    payload = {"compatible": report.compatible,
               "descriptor_a": list(report.left),
               "descriptor_b": list(report.right)}
    if not report.compatible:
        payload["witness_length"] = report.witness_length
    _emit(payload, args.pretty)
    return 0


def cmd_surface(args):
    with open(args.file, encoding="utf-8") as fh:
        t = surface.parse_triangulation(fh.read())
    report = surface.verify_inner_triangle_count(t)
    inner = surface.inner_triangles(t)
    a = surface.algebra_from_triangulation(t)
    if args.emit_algebra:
        with open(args.emit_algebra, "w", encoding="utf-8") as fh:
            fh.write(quiver.serialize_presentation(a.presentation))
    _emit({"inner_triangles": [list(tri) for tri in inner.triangles],
           "inner_count": inner.count,
           "descriptor": list(report.descriptor),
           "count_matches": report.holds}, args.pretty)
    return 0


def cmd_dim(args):
    a = _load_algebra(args.file)
    fld = parse_field(args.field)
    _emit({"dimension": a.dimension(),
           "injective_dimension": reps.injective_dimension(a, fld)},
          args.pretty)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="gentlegp",
        description="Gorenstein-projective classification for gentle algebras")
    parser.add_argument("--pretty", action="store_true",
                        help="indent JSON output")
    parser.add_argument("--field", default="q",
                        help="working field: q (rationals) or f<p>")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        return p

    add("validate", cmd_validate,
        help="gentleness verdict with violations").add_argument("file")
    add("cycles", cmd_cycles,
        help="critical cycles with lengths").add_argument("file")
    add("gp", cmd_gp,
        help="indecomposable Gorenstein-projectives").add_argument("file")
    add("dsg", cmd_dsg,
        help="singularity-category descriptor").add_argument("file")

    p = add("oracle", cmd_oracle,
            help="homological oracle sweep vs the classifier")
    p.add_argument("file")
    p.add_argument("--max-letters", type=int, default=6)
    p.add_argument("--bound", type=int, default=0)

    add("stable", cmd_stable,
        help="stable category objects, orbits, hom matrix").add_argument("file")

    p = add("ext", cmd_ext, help="Ext profile of a string module")
    p.add_argument("file")
    p.add_argument("--word", required=True,
                   help="comma-separated letters, a or a^-1; a bare vertex "
                        "id denotes the lazy word")
    p.add_argument("--bound", type=int, default=0)

    p = add("compare", cmd_compare,
            help="derived-invariant comparison of two algebras")
    p.add_argument("file_a")
    p.add_argument("file_b")

    p = add("surface", cmd_surface,
            help="inner-triangle report for a triangulation")
    p.add_argument("file")
    p.add_argument("--emit-algebra", default=None)

    add("dim", cmd_dim,
        help="algebra dimension and injective dimension").add_argument("file")
    return parser


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except gentle.NotGentleError as exc:
        _emit({"status": "not-gentle",
               "violations": _violation_payload(exc.violations)}, args.pretty)
        return 2
    except (quiver.QuiverError, surface.TriangulationError, ValueError,
            OSError) as exc:
        _emit({"status": "error", "reason": str(exc)}, args.pretty)
        return 2
    except AssertionError as exc:
        _emit({"status": "internal-error", "reason": str(exc)}, args.pretty)
        return 1


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
