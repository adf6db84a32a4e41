"""Byte-identical help and usage errors from the command-line parser.

``cli.run`` registers only the subcommand its argv names; these command
lines must print exactly what the parser with every subcommand printed,
stored in ``data/cli_parser_golden.json``.

To re-record (only when a change of the help text is intended):

    PYTHONPATH=src python tests/test_cli_parser.py --record

Like the CLI golden recorder, it first prints what changed.
"""

import contextlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

from gentlegp import cli

GOLDEN = Path(__file__).parent / "data" / "cli_parser_golden.json"

COMMANDS = [
    [],
    ["--help"],
    ["-h"],
    ["dim", "--help"],
    ["bogus"],
    ["dim"],
    ["oracle", "--help"],
    ["--field", "f101", "ext", "--help"],
    ["ext", "missing.gentle"],
    ["compare", "only_one.gentle"],
    ["--pretty", "dim", "x.gentle", "--bogus"],
    ["--field"],
    ["--field", "--pretty", "dim", "x.gentle"],
    ["--field=q", "surface", "--help"],
    ["--pretty", "--help", "dim"],
    ["dim", "x.gentle", "--help"],
]


def _invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.run(argv)
        except SystemExit as exc:
            code = exc.code
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_parser_output_is_byte_identical(argv, monkeypatch):
    # argparse wraps its help to the terminal width
    monkeypatch.setenv("COLUMNS", "80")
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))[" ".join(argv)]
    assert _invoke(argv) == expected


def test_build_parser_registers_every_subcommand():
    sub = next(a for a in cli.build_parser()._actions
               if a.dest == "command")
    assert list(sub.choices) == ["validate", "cycles", "gp", "dsg", "oracle",
                                 "stable", "ext", "compare", "surface", "dim"]


def test_run_registers_only_the_named_subcommand(monkeypatch):
    built = []
    real = cli.build_parser

    def recording(command=None):
        parser = real(command)
        built.append(list(next(a for a in parser._actions
                               if a.dest == "command").choices))
        return parser

    monkeypatch.setattr(cli, "build_parser", recording)
    with pytest.raises(SystemExit):
        cli.run(["--field", "f101", "--pretty", "dim", "--help"])
    with pytest.raises(SystemExit):
        cli.run(["--field=q", "--help"])
    assert built[0] == ["dim"] and len(built[1]) == 10


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_cli_parser.py --record")
    os.environ["COLUMNS"] = "80"
    corpus = {" ".join(argv): _invoke(argv) for argv in COMMANDS}
    from test_cli_golden import report_changes

    report_changes(GOLDEN, corpus)
    GOLDEN.write_text(json.dumps(corpus, indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
    print(f"recorded {len(corpus)} command lines to {GOLDEN}")
