"""Command-line front end with machine-readable JSON output.

Each ``cmd_*`` handler returns (exit code, payload); ``run`` alone writes
the payload and picks the exit code: 0 ok; 2 bad input (an ``InputError``:
not gentle, invalid, unreadable or too large); 1 internal failure
(classifier and oracle disagree, an invariant failed, any other error that
is not the input's fault: a bug) or a result that could not be written.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import gentle, gp, quiver, reps, strings, surface
from .linalg import parse_field


def _read(path):
    """The text of an input file; one that cannot be read or decoded is
    bad input."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise quiver.InputError(str(exc)) from None


def _load_algebra(path):
    return gentle.validate_gentle(quiver.parse_presentation(_read(path)))


def cmd_validate(args):
    a = _load_algebra(args.file)
    return 0, {"status": "ok", "gentle": True, "dimension": a.dimension()}


def cmd_cycles(args):
    a = _load_algebra(args.file)
    return 0, {"cycles": [{"arrows": list(c.arrows), "name": c.name,
                           "length": c.length}
                          for c in gentle.critical_cycles(a)]}


def cmd_gp(args):
    a = _load_algebra(args.file)
    cycles = gentle.critical_cycles(a)
    target = {b.name: b.target for b in a.arrows}
    nonproj = []
    for i, cycle in enumerate(cycles):
        for arrow in cycle.arrows:
            # the radical summand's word, a chain of allowed continuations
            word = gentle.radical_summand_word(a, arrow)
            vertices = [target[n] for n in (arrow, *word)]
            nonproj.append({
                "arrow": arrow,
                "cycle": i,
                "word": word,
                "vertices": vertices,
                "dimension": len(vertices),
            })
    # a name joins the whole cycle: written once, cited by index
    return 0, {"projectives": sorted(a.vertices),
               "cycles": [c.name for c in cycles],
               "nonprojective": sorted(nonproj, key=lambda d: d["arrow"])}


def cmd_dsg(args):
    a = _load_algebra(args.file)
    d = gp.singularity_descriptor(a)
    return 0, {"descriptor": list(d),
               "factors": [f"{n - 1}-cluster category of type A1" for n in d],
               "indecomposable_objects": sum(d)}


def cmd_oracle(args):
    a = _load_algebra(args.file)
    # refuse an oversized algebra and any bad input before the
    # coresolution and the sweep build projectives
    a.check_basis_size()
    sweep = strings.enumerate_strings(a, args.max_letters)
    coresolution = reps.gorenstein_dimension(a, args.field)
    words = gp.classified_words(a)
    certificates = []
    disagreement = False
    for w in sweep:
        m = reps.string_module(a, w, args.field)
        cert = gp.gp_oracle(m, coresolution, label=w.display())
        # the sweep holds one canonical word per {w, w^-1}
        claimed = w in words
        disagreement |= (cert.verdict == "GP") != claimed
        certificates.append({
            "module": cert.module_label,
            "verdict": cert.verdict,
            "classifier": "GP" if claimed else "not-GP",
            "status": cert.status,
            "obstruction": cert.obstruction,
            "reason": cert.reason,
        })
    certificates.sort(key=lambda c: c["module"])
    return 1 if disagreement else 0, {
        "agreement": not disagreement,
        "bound": coresolution.bound,
        "max_letters": args.max_letters,
        "certificates": certificates}


def cmd_stable(args):
    a = _load_algebra(args.file)
    # refused like the other commands that build projectives, even when no
    # critical cycle leaves a module to build
    a.check_basis_size()
    table = gp.stable_category_table(a, args.field)
    return 0, {"objects": [{"cycle": c.name, "arrow": arrow}
                           for c in table.cycles for arrow in c.arrows],
               "orbits": [list(c.arrows) for c in table.cycles],
               "stable_hom_matrix": table.matrix,
               "identity": table.is_identity}


def cmd_ext(args):
    a = _load_algebra(args.file)
    letters = strings.parse_letters(args.word)
    if len(letters) == 1 and letters[0].direct and \
            letters[0].arrow not in a.arrow_map and \
            letters[0].arrow in a.vertices:
        w = strings.lazy_word(a, letters[0].arrow)
    else:
        w = strings.make_string(a, letters)
    if args.bound is not None:
        reps.check_bound(args.bound)
    m = reps.string_module(a, w, args.field)
    coresolution = reps.gorenstein_dimension(a, args.field)
    bound = coresolution.bound if args.bound is None else args.bound
    profile = reps.ext_profile(m, bound, coresolution)
    return 0, {"word": w.display(),
               "ext_dims": profile.dims,
               "syzygy_dim_vectors": [list(dv)
                                      for dv in profile.syzygy_dim_vectors],
               "status": profile.status,
               "certified": profile.certified}


def cmd_compare(args):
    # file_a loads first, so its error is the one reported
    a, b = _load_algebra(args.file_a), _load_algebra(args.file_b)
    da, db = gp.singularity_descriptor(a), gp.singularity_descriptor(b)
    # derived-equivalent algebras have equal descriptors
    payload = {"compatible": da == db, "descriptor_a": list(da),
               "descriptor_b": list(db)}
    if da != db:
        payload["witness_length"] = min(
            n for n in {*da, *db} if da.count(n) != db.count(n))
    return 0, payload


def _reads_back(vertices, arrows=(), relations=frozenset()):
    """Whether the DSL text of this presentation parses back to it."""
    p = quiver.QuiverPresentation(vertices, arrows, relations)
    try:
        return quiver.parse_presentation(quiver.serialize_presentation(p)) == p
    except quiver.InputError:
        return False


def cmd_surface(args):
    t = surface.parse_triangulation(_read(args.file))
    report = surface.verify_inner_triangle_count(t)
    if args.emit_algebra:
        p = surface.algebra_presentation(t)
        if not _reads_back(p.vertices, p.arrows, p.relations):
            # name the first id that does not read back alone
            bad = next(x for x, *alone in [(v, (v,)) for v in p.vertices] + [
                (b.name, tuple(dict.fromkeys(b[1:])), (b,)) for b in p.arrows]
                if not _reads_back(*alone))
            raise quiver.InputError(f"the DSL cannot read the id {bad!r} back")
        try:
            with open(args.emit_algebra, "w", encoding="utf-8") as fh:
                fh.write(quiver.serialize_presentation(p))
        except OSError as exc:
            raise quiver.InputError(str(exc)) from None
    return 0, {"inner_triangles": [list(tri) for tri in report.triangles],
               "inner_count": len(report.triangles),
               "descriptor": list(report.descriptor),
               "count_matches": report.holds}


def cmd_dim(args):
    a = _load_algebra(args.file)
    return 0, {"dimension": a.dimension(),
               "injective_dimension": reps.injective_dimension(a, args.field)}


def _subcommands():
    """Name -> (handler, help, arguments as (flags, options)), in the
    order --help lists them."""
    file = (("file",), {})
    word_help = ("comma-separated letters, a or a^-1; a bare vertex id "
                 "denotes the lazy word")
    return {
        "validate": (cmd_validate, "gentleness verdict with violations",
                     [file]),
        "cycles": (cmd_cycles, "critical cycles with lengths", [file]),
        "gp": (cmd_gp, "indecomposable Gorenstein-projectives", [file]),
        "dsg": (cmd_dsg, "singularity-category descriptor", [file]),
        "oracle": (cmd_oracle, "homological oracle sweep vs the classifier",
                   [file, (("--max-letters",), {"type": int, "default": 6})]),
        "stable": (cmd_stable, "stable category objects, orbits, hom matrix",
                   [file]),
        "ext": (cmd_ext, "Ext profile of a string module",
                [file, (("--word",), {"required": True, "help": word_help}),
                 (("--bound",), {"type": int, "default": None})]),
        "compare": (cmd_compare, "derived-invariant comparison of two algebras",
                    [(("file_a",), {}), (("file_b",), {})]),
        "surface": (cmd_surface, "inner-triangle report for a triangulation",
                    [file, (("--emit-algebra",), {"default": None})]),
        "dim": (cmd_dim, "algebra dimension and injective dimension", [file]),
    }


def build_parser(command=None):
    """The argument parser.  Given the name of a subcommand, it registers
    only that one, which parses every command line naming it the same way;
    otherwise all of them."""
    parser = argparse.ArgumentParser(
        prog="gentlegp",
        description="Gorenstein-projective classification for gentle algebras")
    parser.add_argument("--pretty", action="store_true",
                        help="indent JSON output")
    parser.add_argument("--field", default="q",
                        help="working field: q (rationals) or f<p>")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = _subcommands()
    if command in commands:
        # usage lines still list every subcommand
        sub.metavar = "{" + ",".join(commands) + "}"
        commands = {command: commands[command]}
    for name, (fn, help_text, arguments) in commands.items():
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(fn=fn)
        for flags, options in arguments:
            p.add_argument(*flags, **options)
    return parser


def _command_named(argv):
    """The token argparse reads as the subcommand when only --pretty and
    --field come before it, else None."""
    i = 0
    while i < len(argv) and (argv[i] in ("--pretty", "--field")
                             or argv[i].startswith("--field=")):
        i += 2 if argv[i] == "--field" else 1
    return argv[i] if i < len(argv) else None


def run(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(_command_named(argv)).parse_args(argv)
    try:
        # every command refuses a bad field before it reads its input
        args.field = parse_field(args.field)
        code, payload = args.fn(args)
    except gentle.NotGentleError as exc:
        code, payload = 2, {"status": "not-gentle", "violations": [
            {"axiom": v.axiom, "witness": list(v.witness)}
            for v in exc.violations]}
    except quiver.InputError as exc:
        code, payload = 2, {"status": "error", "reason": str(exc)}
    except (AssertionError, ValueError) as exc:
        code, payload = 1, {"status": "internal-error", "reason": str(exc)}
    if args.pretty:
        text = json.dumps(payload, sort_keys=True, indent=2)
    else:
        text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    try:
        sys.stdout.write(text + "\n")
        sys.stdout.flush()
    except OSError as exc:
        # a full disk or a closed pipe: the result is lost, not the input
        # at fault
        sys.stderr.write(f"gentlegp: cannot write the result: {exc}\n")
        return 1
    return code


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
