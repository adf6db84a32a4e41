"""Parse errors of the quiver DSL, pinned byte for byte.

Each text in ``CASES`` is parsed; a rejected one must raise the exception
class, message, line and column stored in ``data/parse_errors_golden.json``,
an accepted one must serialize to the stored presentation.

To re-record (only when a change of the error messages is intended):

    PYTHONPATH=src python tests/test_parse_errors.py --record
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from gentlegp import QuiverError, parse_presentation, serialize_presentation

GOLDEN = Path(__file__).parent / "data" / "parse_errors_golden.json"

HEAD = "vertices: 1, 2\narrows: a: 1 -> 2\n"

CASES = [
    # a missing ':' or '->'
    "vertices 1\narrows:\nrelations:",
    "vertices: 1\narrows a: 1 -> 1\nrelations:",
    HEAD + "relations b*a",
    "vertices: 1, 2\narrows: a 1 -> 2\nrelations:",
    "vertices: 1, 2\narrows: a: 1 2\nrelations:",
    "vertices: 1, 2\narrows: a: 1 - > 2\nrelations:",
    "vertices: 1, 2\narrows: a: 1 --> 2\nrelations:",
    HEAD + "relations: a a",
    # a bad identifier in each section
    "vertices: -1\narrows:\nrelations:",
    "vertices: 1, @\narrows:\nrelations:",
    "vertices: 1,,2\narrows:\nrelations:",
    "vertices:\xa0\xe9\narrows:\nrelations:",
    "vertices: 1\narrows: (a): 1 -> 1\nrelations:",
    "vertices: 1, 2\narrows: a: -> 2\nrelations:",
    "vertices: 1, 2\narrows: a: 1 -> ?\nrelations:",
    "vertices: 1\narrows: a: 1 -> 1\nrelations: *a",
    "vertices: 1\narrows: a: 1 -> 1\nrelations: a*!",
    # comments before the error, and errors on later lines
    "# header\n# more\nvertices: 1 # c\narrows: a: 1 => 1\nrelations:",
    "vertices: 1, 2 # x\n\n   arrows: # none yet\n  a: 1 -> 2;\n"
    "  b 2 -> 1\nrelations:",
    "vertices:\t1,\r\n2\r\narrows:\ta: 1 ->\x0b2\r\nrelations: x",
    "# nothing but a comment\n",
    "",
    # trailing input
    "vertices: 1\narrows:\nrelations:\nextra",
    HEAD + "relations: ; junk",
    "vertices: 1, 2, 3\narrows: a: 1 -> 2; b: 2 -> 3\nrelations: b*a b*c",
    "vertices: 1\narrows: a: 1 -> 1;; b: 1 -> 1\nrelations:",
    # empty and missing sections
    "vertices:\narrows:\nrelations:",
    "vertices: ;\narrows: ;\nrelations: ;",
    "vertices: 1",
    "vertices: 1\narrows:",
    "arrows: a: 1 -> 2\nvertices: 1, 2\nrelations:",
    # identifiers that begin with a section keyword
    "vertices: arrows1\narrows:\nrelations:",
    "vertices: a, arrows1\narrows:\nrelations:",
    "verticesX: 1\narrows:\nrelations:",
    "vertices: 1\narrows: relationsA: 1 -> 1\nrelations:",
    # duplicate relations, also ahead of a later syntax error
    "vertices: 1, 2, 3\narrows: a: 1 -> 2; b: 2 -> 3\nrelations: b*a, b*a",
    "vertices: 1, 2, 3\narrows: a: 1 -> 2; b: 2 -> 3\nrelations: b*a, b*a, !",
    # rejected after parsing
    "vertices: 1\narrows: a: 1 -> 2\nrelations:",
    "vertices: 1, 1\narrows:\nrelations:",
    # accepted despite comments, a trailing comma and odd spacing
    "vertices: ab#c\n, d\narrows:a:ab->d\nrelations:",
    "vertices: 1\narrows: a: 1 -> 1 # loop\nrelations: a*a, # trailing\n",
    # two faulty relations: the least one is named, whatever the hash seed
    "vertices: 1, 2\narrows: a: 1 -> 2; b: 1 -> 2\nrelations: c*a, b*a",
]


def _outcome(text):
    try:
        p = parse_presentation(text)
    except QuiverError as exc:
        return {"error": type(exc).__name__, "message": str(exc),
                "line": getattr(exc, "line", None),
                "column": getattr(exc, "column", None)}
    return {"parsed": serialize_presentation(p)}


@pytest.mark.parametrize("index", range(len(CASES)))
def test_parse_outcome_matches_golden(index):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert golden[index]["text"] == CASES[index]
    assert {"text": CASES[index], **_outcome(CASES[index])} == golden[index]


def test_validate_names_one_fault_under_every_hash_seed(tmp_path):
    # frozenset order follows the string hash seed; the message must not
    f = tmp_path / "faults.gentle"
    f.write_text("vertices: 1, 2\narrows: a: 1 -> 2\n"
                 "relations: b*a, c*a, d*a, a*e\n")
    outs = {subprocess.run(
        [sys.executable, "-m", "gentlegp.cli", "validate", str(f)],
        capture_output=True, text=True, timeout=60, check=False,
        env={**os.environ, "PYTHONHASHSEED": str(seed),
             "PYTHONPATH": str(Path(__file__).parent.parent / "src")}).stdout
        for seed in range(1, 6)}
    assert len(outs) == 1 and "relation a*e references" in outs.pop()


_PIECES = ["vertices", "arrows", "relations", ":", ";", ",", "*", "->", "-",
           " ", "\n", "\t", "# c\n", "a", "b", "1", "2", "arrows1", "@"]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(_PIECES), max_size=30))
def test_any_text_parses_or_raises_a_quiver_error(pieces):
    text = "".join(pieces)
    outcome = _outcome(text)
    if "line" in outcome and outcome["line"] is not None:
        # the reported position lies inside the text or just past its end
        lines = text.split("\n")
        assert 1 <= outcome["line"] <= len(lines)
        assert 1 <= outcome["column"] <= len(lines[outcome["line"] - 1]) + 1


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_parse_errors.py --record")
    corpus = [{"text": text, **_outcome(text)} for text in CASES]
    GOLDEN.write_text(json.dumps(corpus, indent=1) + "\n", encoding="utf-8")
    print(f"recorded {len(corpus)} texts to {GOLDEN}")
