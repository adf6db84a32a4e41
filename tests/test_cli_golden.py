"""Byte-identical CLI output on a fixed corpus.

Every command below runs through ``gentlegp.cli.run`` and must reproduce
the exit code and the exact stdout stored in ``data/cli_golden.json``.
A refactor that changes any byte of the JSON fails here.

To re-record the corpus (only when an output change is intended):

    PYTHONPATH=src python tests/test_cli_golden.py --record

Before it writes, the recorder prints every command whose output changed,
with the fields that changed in it, and a count per field.
"""

import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from gentlegp.cli import run

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "cli_golden.json"

GENTLE = sorted(p.name for p in DATA.glob("*.gentle"))
TRI = sorted(p.name for p in DATA.glob("*.tri"))
# A_12, lambda_5, I_6, the octagon2 triangulation's algebra and that of a
# fixed 40-gon triangulation with 13 inner triangles (37 vertices, 49
# arrows), written with serialize_presentation from gentlegp.families and
# surface.algebra_presentation, and A_70 with radical square zero, whose
# injective dimension is 69
FAMILIES = sorted(f"families/{p.name}"
                  for p in (DATA / "families").glob("*.gentle"))
# algebras with a loop, whose commutation equations meet one unknown twice
LOOPS = sorted(f"loops/{p.name}" for p in (DATA / "loops").glob("*.gentle"))


def _commands():
    cmds = []
    for name in GENTLE:
        for sub in ("validate", "cycles", "gp", "dsg"):
            cmds.append([sub, name])
    for field in ("q", "f101"):
        for name in GENTLE:
            cmds.append(["--field", field, "stable", name])
            cmds.append(["--field", field, "dim", name])
            cmds.append(["--field", field, "oracle", name,
                         "--max-letters", "4"])
        for word in ("i,d,a,f,k", "3", "c,g,f^-1", "b^-1,e^-1,i,d"):
            cmds.append(["--field", field, "ext", "eight_vertex.gentle",
                         "--word", word, "--bound", "6"])
        cmds.append(["--field", field, "ext", "lambda3.gentle",
                     "--word", "c1,b1^-1", "--bound", "6"])
    for left, right in (("lambda3.gentle", "lambda4.gentle"),
                        ("eight_vertex.gentle", "twocycles.gentle"),
                        ("i3.gentle", "a2.gentle")):
        cmds.append(["compare", left, right])
    for name in TRI:
        cmds.append(["surface", name])
    for name in FAMILIES:
        for sub in ("validate", "cycles", "gp", "dsg"):
            cmds.append([sub, name])
        for field in ("q", "f101"):
            cmds.append(["--field", field, "stable", name])
            cmds.append(["--field", field, "dim", name])
            cmds.append(["--field", field, "oracle", name,
                         "--max-letters", "3"])
    for name in LOOPS:
        for sub in ("validate", "cycles", "gp", "dsg"):
            cmds.append([sub, name])
        for field in ("q", "f101"):
            cmds.append(["--field", field, "stable", name])
            cmds.append(["--field", field, "dim", name])
            cmds.append(["--field", field, "oracle", name,
                         "--max-letters", "4"])
    # small characteristic, where 1 + 1 and 1 + 1 + 1 + 1 + 1 vanish
    for field in ("f2", "f5"):
        for name in ("eight_vertex.gentle", "families/lambda5.gentle"):
            cmds.append(["--field", field, "stable", name])
            cmds.append(["--field", field, "oracle", name,
                         "--max-letters", "4"])
    return cmds


COMMANDS = _commands()


def _key(argv):
    return " ".join(argv)


def _resolve(argv):
    files = set(GENTLE) | set(TRI) | set(FAMILIES) | set(LOOPS)
    return [str(DATA / a) if a in files else a for a in argv]


def _invoke(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = run(_resolve(argv))
    return code, buf.getvalue()


def _golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("argv", COMMANDS, ids=_key)
def test_cli_output_is_byte_identical(argv):
    expected = _golden()[_key(argv)]
    code, out = _invoke(argv)
    assert code == expected["exit"]
    assert out == expected["stdout"]


def test_corpus_covers_every_command():
    assert set(_golden()) == {_key(argv) for argv in COMMANDS}


# the value of a key one side lacks, unequal to every JSON value (null too)
_ABSENT = object()


def _changed_fields(old, new, path=""):
    """The paths at which two decoded JSON values differ, list indices
    written as [] so the cells of one column share a path."""
    if isinstance(old, dict) and isinstance(new, dict):
        return {p for k in sorted(old.keys() | new.keys())
                for p in _changed_fields(old.get(k, _ABSENT),
                                         new.get(k, _ABSENT),
                                         f"{path}.{k}" if path else k)}
    if isinstance(old, list) and isinstance(new, list) \
            and len(old) == len(new):
        return {p for x, y in zip(old, new)
                for p in _changed_fields(x, y, f"{path}[]")}
    return set() if old == new else {path}


def _decoded(entry):
    """An entry with each JSON output parsed, other text kept as is."""
    out = {}
    for key, value in entry.items():
        try:
            out[key] = json.loads(value) if isinstance(value, str) else value
        except json.JSONDecodeError:
            out[key] = value
    return out


def report_changes(path, corpus):
    """Print each key whose entry differs from the corpus recorded at
    path, with the fields that changed, then a count of keys per field."""
    old = json.loads(path.read_text(encoding="utf-8")) if path.exists() \
        else {}
    counts = {}
    for key in sorted(old.keys() | corpus.keys()):
        if key not in old or key not in corpus:
            print(f"{key}: {'added' if key in corpus else 'removed'}")
            continue
        fields = sorted(_changed_fields(_decoded(old[key]),
                                        _decoded(corpus[key])))
        if fields:
            print(f"{key}: {', '.join(fields)}")
            for f in fields:
                counts[f] = counts.get(f, 0) + 1
    for f, n in sorted(counts.items()):
        print(f"  {f}: changed in {n} entries")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_cli_golden.py --record")
    corpus = {}
    for argv in COMMANDS:
        code, out = _invoke(argv)
        corpus[_key(argv)] = {"exit": code, "stdout": out}
    report_changes(GOLDEN, corpus)
    GOLDEN.write_text(json.dumps(corpus, indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
    print(f"recorded {len(corpus)} commands to {GOLDEN}")
