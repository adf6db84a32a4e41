"""The differential harness on a two-command matrix: two copies of the
working tree's src/ agree, and one byte changed in gp's output is flagged
on gp alone."""

import shutil

import differential
from conftest import DATA


def test_the_harness_flags_exactly_the_command_whose_output_changed(
        tmp_path):
    srcs = [tmp_path / tree / "src" for tree in ("old", "new")]
    for src in srcs:
        shutil.copytree(differential.SRC, src,
                        ignore=shutil.ignore_patterns("__pycache__"))
    commands = [("gp eight_vertex.gentle",
                 ["gp", str(DATA / "eight_vertex.gentle")]),
                ("validate a2.gentle", ["validate", str(DATA / "a2.gentle")])]

    lines, differing = differential.differential(
        "copy", *srcs, commands, tmp_path / "identical")
    assert lines == ["differential copy: 2 commands, 2 identical stdout, "
                     "2 identical exit codes"]
    assert differing == []

    # one byte of cmd_gp's output: a key spelled with a capital E
    cli = srcs[1] / "gentlegp" / "cli.py"
    text = cli.read_text()
    assert text.count('"nonprojective": sorted(') == 1
    cli.write_text(text.replace('"nonprojective": sorted(',
                                '"nonprojectivE": sorted('))
    lines, differing = differential.differential(
        "copy", *srcs, commands, tmp_path / "changed")
    assert lines == ["differential copy: 2 commands, 1 identical stdout, "
                     "2 identical exit codes",
                     "  gp eight_vertex.gentle: changed nonprojectivE, "
                     "nonprojective"]
    assert differing == ["gp eight_vertex.gentle"]
