"""Errors of the triangulation reader, pinned byte for byte.

Each text in ``CASES`` is read; a rejected one must raise the exception
class and message stored in ``data/tri_errors_golden.json``, an accepted
one must serialize to the stored triangulation.

To re-record (only when a change of the error messages is intended):

    PYTHONPATH=src python tests/test_tri_errors.py --record
"""

import json
import sys
from pathlib import Path

import pytest

from gentlegp import InputError, parse_triangulation, serialize_triangulation

GOLDEN = Path(__file__).parent / "data" / "tri_errors_golden.json"

HEXAGON = ("arcs: x, y, z;\nboundary: b1, b2, b3, b4, b5, b6;\n"
           "triangles: (x,y,z); (b1,b2,x); (b3,b4,y); (b5,b6,z)\n")

CASES = [
    # text before 'arcs:' other than whitespace and comments
    "garbage here (a,b,c)\n" + HEXAGON,
    "\ufeff" + HEXAGON,
    "x" + HEXAGON,
    "boundary: q\n" + HEXAGON,
    # accepted after whitespace and comments
    "  # hexagon\n\n\t" + HEXAGON,
    # a missing section
    HEXAGON.replace("arcs:", "arcs"),
    HEXAGON.replace("boundary:", ""),
    HEXAGON.replace("triangles:", "triangles"),
    "",
    "# only a comment\n",
    # sections out of order
    "boundary: b1;\narcs: x;\ntriangles: (x,b1,x)\n",
    # unparsed triangle text
    HEXAGON.replace("(b5,b6,z)", "(b5,b6)"),
    HEXAGON.replace("(b5,b6,z)", "(b5,b6,z"),
    HEXAGON + "junk\n",
    HEXAGON.replace("(x,y,z)", "(x,(y),z)"),
    # duplicate arcs and an arc in both lists
    HEXAGON.replace("arcs: x, y, z", "arcs: x, y, z, y"),
    HEXAGON.replace("b6;", "b6, b1;"),
    HEXAGON.replace("b6;", "b6, x;"),
    # faults of the triangles themselves
    HEXAGON.replace("(x,y,z)", "(x,y,y)"),
    HEXAGON.replace("(x,y,z)", "(x,y,w)"),
    HEXAGON.replace("(b5,b6,z)", "(b5,b6,y)"),
    HEXAGON.replace("(b1,b2,x)", "(b1,b1,x)"),
    HEXAGON.replace("(b3,b4,y)", "(b3,b2,y)"),
    HEXAGON.replace("(x,y,z)", "( ,y,z)"),
    # self-folded, with every arc in as many triangles as it should be
    "arcs: x;\nboundary: b1;\ntriangles: (x,x,b1)\n",
    # accepted despite odd spacing, trailing separators and comments
    "arcs:x,y,z,;boundary:b1,b2,b3,b4,b5,b6 ; triangles :"
    " ( x , y , z ) , (b1, b2, x);(b3,b4,y) # c\n; (b5,b6,z);\n",
    "arcs: ;\nboundary: b1, b2, b3;\ntriangles: (b1,b2,b3)\n",
]


def _outcome(text):
    try:
        t = parse_triangulation(text)
    except InputError as exc:
        return {"error": type(exc).__name__, "message": str(exc)}
    return {"parsed": serialize_triangulation(t)}


@pytest.mark.parametrize("index", range(len(CASES)))
def test_triangulation_outcome_matches_golden(index):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert golden[index]["text"] == CASES[index]
    assert {"text": CASES[index], **_outcome(CASES[index])} == golden[index]


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_tri_errors.py --record")
    corpus = [{"text": text, **_outcome(text)} for text in CASES]
    GOLDEN.write_text(json.dumps(corpus, indent=1) + "\n", encoding="utf-8")
    print(f"recorded {len(corpus)} texts to {GOLDEN}")
