"""Byte-identical CLI output against an earlier revision, in one command.

    python tests/differential.py REV

exports REV's ``src/`` with ``git archive`` into a temporary directory and
runs one fixed command matrix against that tree and against the working
tree's ``src/``:

- every command of the CLI golden corpus (``test_cli_golden._commands``);
- every command the benchmark's three workloads make for seeds 1-3, on
  inputs that ``bench/workloads.py`` writes once for both trees;
- ``surface --emit-algebra`` on every ``.tri`` under ``tests/data/``,
  where the written file's bytes count as part of the output;
- ``validate`` on each text of ``tests/data/parse_errors_golden.json``
  and ``surface`` on each text of ``tests/data/tri_errors_golden.json``,
  each written to a file;
- ``validate`` and ``dim`` with the bad fields ``f6``, ``f0`` and ``x``;
- ``dim``, ``stable`` and ``oracle --max-letters 4`` over ``f2`` and
  ``f5``, where 1 + 1 and 1 + 1 + 1 + 1 + 1 vanish, on every ``.gentle``
  under ``tests/data/``;
- ``ext`` on every string of at most 2 letters, one per {w, w^-1}, of
  each top-level ``.gentle`` fixture, over ``q`` and ``f101``, with no
  ``--bound`` and with ``--bound`` 1 to 4;
- ``ext`` with its default bound, the Gorenstein dimension, on every
  string of at most 2 letters of each ``.gentle`` under ``families/`` and
  ``loops/`` (392 strings), over ``q`` and ``f101``: ``a70_rad2`` has
  d = 69, so each of its modules is resolved deep;
- ``compare`` on every ordered pair of distinct ``.gentle`` files under
  ``tests/data/``.

A command the golden corpus already runs is run once.

Each tree runs in one child interpreter that imports ``gentlegp`` from
that tree's ``src/`` alone and clears ``reps.projective_rep``'s cache
before each command, since that cache keeps every algebra it sees.  The
harness prints one summary line, names the changed JSON fields of up to
five differing commands, and exits 1 on any difference.  The whole
matrix takes about 15 s on 2 CPUs.
"""

import argparse
import importlib.util
import json
import os
import subprocess
import sys
import tempfile
from itertools import permutations
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# the harness writes the inputs with the working tree's gentlegp
sys.path.insert(0, str(SRC))

import test_cli_golden as golden  # noqa: E402
from gentlegp import (InputError, enumerate_strings,  # noqa: E402
                      parse_presentation, validate_gentle)

DATA = Path(__file__).resolve().parent / "data"
WORKLOADS = ("oracle-sweep", "resolve-ladder", "combinatorial-ladder")
SEEDS = (1, 2, 3)
# stands for the path a command writes; each tree gets its own
EMIT = "{emit}"
SHOWN = 5

CHILD = r"""
import io, json, os, sys
from contextlib import redirect_stdout

src, jobs = sys.argv[1:]
sys.path.insert(0, src)
import gentlegp.cli, gentlegp.reps

here = os.path.realpath(os.path.dirname(gentlegp.__file__))
if here != os.path.realpath(os.path.join(src, "gentlegp")):
    sys.exit(f"imported gentlegp from {here}, not from {src}")
with open(jobs, encoding="utf-8") as fh:
    job = json.load(fh)
results = []
for argv, emit in job["commands"]:
    gentlegp.reps.projective_rep.cache_clear()
    buf = io.StringIO()
    try:
        with redirect_stdout(buf):
            code = gentlegp.cli.run(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:
        code = f"raised {type(exc).__name__}: {exc}"
    written = None
    if emit and os.path.exists(emit):
        with open(emit, encoding="utf-8", newline="") as fh:
            written = fh.read()
    results.append([code, buf.getvalue(), written])
with open(job["results"], "w", encoding="utf-8") as fh:
    json.dump(results, fh)
"""


def export(rev, dest):
    """REV's src/ under dest, as git archive writes it; returns its path."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev, "src"],
                             check=True, stdout=subprocess.PIPE).stdout
    Path(dest).mkdir(parents=True)
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return Path(dest) / "src"


def _load_workloads():
    """bench/workloads.py, imported from its file without writing there."""
    spec = importlib.util.spec_from_file_location(
        "workloads", ROOT / "bench" / "workloads.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    sys.dont_write_bytecode = True
    spec.loader.exec_module(module)
    return module


def command_matrix(inputs):
    """The fixed matrix as (key, argv) pairs, the workloads' inputs
    written under inputs."""
    cmds = [(golden._key(argv), golden._resolve(argv))
            for argv in golden._commands()]
    workloads = _load_workloads()
    for name in WORKLOADS:
        for seed in SEEDS:
            workdir = Path(inputs) / f"{name}-{seed}"
            for c in workloads.build(name, seed, workdir):
                key = " ".join(c.argv).replace(f"{workdir}{os.sep}", "")
                cmds.append((f"{name}/{seed}: {key}", list(c.argv)))
    for tri in sorted(DATA.glob("**/*.tri")):
        name = tri.relative_to(DATA).as_posix()
        cmds.append((f"surface {name} --emit-algebra",
                     ["surface", str(tri), "--emit-algebra", EMIT]))
    # malformed input: each text of the two error goldens, as a file
    for golden_name, sub, suffix in (("parse_errors_golden", "validate",
                                      ".gentle"),
                                     ("tri_errors_golden", "surface", ".tri")):
        cases = json.loads((DATA / f"{golden_name}.json").read_text(
            encoding="utf-8"))
        for i, case in enumerate(cases):
            path = Path(inputs) / golden_name / f"{i}{suffix}"
            path.parent.mkdir(parents=True, exist_ok=True)
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write(case["text"])
            cmds.append((f"{sub} {golden_name}[{i}]", [sub, str(path)]))
    for field in ("f6", "f0", "x"):
        for sub in ("validate", "dim"):
            cmds.append((f"--field {field} {sub} eight_vertex.gentle",
                         ["--field", field, sub,
                          str(DATA / "eight_vertex.gentle")]))
    named = []  # argv with file names relative to DATA
    everything = [path.relative_to(DATA).as_posix()
                  for path in sorted(DATA.glob("**/*.gentle"))]
    for field in ("f2", "f5"):
        for name in everything:
            for sub in (["dim"], ["stable"], ["oracle", "--max-letters", "4"]):
                named.append(["--field", field, sub[0], name, *sub[1:]])
    top = sorted(p.name for p in DATA.glob("*.gentle"))
    deep = [p.relative_to(DATA).as_posix()
            for sub in ("families", "loops")
            for p in sorted((DATA / sub).glob("*.gentle"))]
    for name in top + deep:
        try:
            a = validate_gentle(parse_presentation((DATA / name).read_text()))
        except InputError:
            continue
        # cmd_ext reads a lone vertex name as its lazy word
        words = [w.display() if w.letters else w.vertices[0]
                 for w in enumerate_strings(a, 2)]
        bounds = [[]] if name in deep else \
            [[], *(["--bound", str(b)] for b in range(1, 5))]
        for field in ("q", "f101"):
            for word in words:
                for bound in bounds:
                    named.append(["--field", field, "ext", name,
                                  "--word", word, *bound])
    named += [["compare", left, right]
              for left, right in permutations(everything, 2)]
    cmds += [(" ".join(argv), [str(DATA / x) if x.endswith(".gentle") else x
                               for x in argv]) for argv in named]
    return list(dict(cmds).items())


def run_trees(srcs, commands, workdir):
    """[exit code, stdout, text written] per command for each src, each
    tree in one child interpreter; the children run side by side."""
    children = []
    for i, src in enumerate(srcs):
        out = Path(workdir) / f"tree{i}"
        out.mkdir(parents=True)
        jobs, results = out / "jobs.json", out / "results.json"
        emits = [str(out / f"{j}.gentle") if EMIT in argv else None
                 for j, (_, argv) in enumerate(commands)]
        jobs.write_text(json.dumps({"results": str(results), "commands": [
            [[x.replace(EMIT, emit) if emit else x for x in argv], emit]
            for (_, argv), emit in zip(commands, emits)]}), encoding="utf-8")
        children.append((subprocess.Popen(
            [sys.executable, "-I", "-c", CHILD, str(src), str(jobs)]),
            results))
    outcomes = []
    for child, results in children:
        if child.wait():
            raise RuntimeError(f"a child interpreter exited {child.returncode}")
        outcomes.append(json.loads(results.read_text(encoding="utf-8")))
    return outcomes


def _fields(old, new):
    """The changed JSON fields of one command's stdout, or "stdout" when
    either side is not JSON, and "written file" when that differs."""
    try:
        fields = sorted(golden._changed_fields(json.loads(old[1]),
                                               json.loads(new[1])))
    except json.JSONDecodeError:
        fields = ["stdout"] if old[1] != new[1] else []
    return fields + (["written file"] if old[2] != new[2] else [])


def report(label, commands, old, new):
    """The summary line and up to SHOWN lines naming differing commands,
    and the keys of every command that differs."""
    same_out = sum(o[1:] == n[1:] for o, n in zip(old, new))
    same_exit = sum(o[0] == n[0] for o, n in zip(old, new))
    lines = [f"differential {label}: {len(commands)} commands, {same_out} "
             f"identical stdout, {same_exit} identical exit codes"]
    differing = [(key, o, n) for (key, _), o, n in zip(commands, old, new)
                 if o != n]
    for key, o, n in differing[:SHOWN]:
        exits = "" if o[0] == n[0] else f"exit {o[0]} -> {n[0]}; "
        lines.append(f"  {key}: {exits}changed {', '.join(_fields(o, n))}")
    return lines, [key for key, _, _ in differing]


def differential(label, old_src, new_src, commands, workdir):
    old, new = run_trees([old_src, new_src], commands, workdir)
    return report(label, commands, old, new)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", help="the revision to compare with")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        old_src = export(args.rev, Path(tmp) / "rev")
        commands = command_matrix(Path(tmp) / "inputs")
        lines, differing = differential(args.rev, old_src, SRC, commands,
                                        Path(tmp) / "runs")
    print("\n".join(lines))
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
