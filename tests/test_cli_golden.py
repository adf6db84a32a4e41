"""Byte-identical CLI output on a fixed corpus.

Every command below runs through ``gentlegp.cli.run`` and must reproduce
the exit code and the exact stdout stored in ``data/cli_golden.json``.
A refactor that changes any byte of the JSON fails here.

To re-record the corpus (only when an output change is intended):

    PYTHONPATH=src python tests/test_cli_golden.py --record
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
# A_12, lambda_5, I_6 and the octagon2 triangulation's algebra, written with
# serialize_presentation from gentlegp.families and surface.algebra_presentation
FAMILIES = sorted(f"families/{p.name}"
                  for p in (DATA / "families").glob("*.gentle"))


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
    return cmds


COMMANDS = _commands()


def _key(argv):
    return " ".join(argv)


def _resolve(argv):
    files = set(GENTLE) | set(TRI) | set(FAMILIES)
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


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_cli_golden.py --record")
    corpus = {}
    for argv in COMMANDS:
        code, out = _invoke(argv)
        corpus[_key(argv)] = {"exit": code, "stdout": out}
    GOLDEN.write_text(json.dumps(corpus, indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
    print(f"recorded {len(corpus)} commands to {GOLDEN}")
