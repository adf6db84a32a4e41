"""Seeded inputs, command lists and output checks for the three workloads.

The generator writes ``.gentle`` and ``.tri`` files into a work directory;
the program under test only ever sees those files, through its CLI.  The
expected answers come from closed forms and from small counters written
here (path counts, string counts, inner triangles), never from the code
under test.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

from gentlegp import families, quiver, surface

WORKLOADS = {
    "oracle-sweep": "oracle and stable over Q and F_101 on fixtures and seeded "
                    "10-20-gon surface algebras: many small hom systems per "
                    "command on warm caches",
    "resolve-ladder": "dim over Q and F_101 on size ladders: few large dense "
                      "products and eliminations per command on cold caches",
    "combinatorial-ladder": "validate/cycles/gp/dsg/compare/surface on 50- to "
                            "600-gons and growing families: no linear algebra "
                            "at all",
}

FIELDS = ("q", "f101")


@dataclass(frozen=True)
class Algebra:
    """One generated input algebra and what the benchmark knows about it."""

    family: str                # ladder family for the scaling fit
    path: str
    presentation: object
    dimension: int             # own count of relation-free paths
    cycle_lengths: tuple       # sorted critical-cycle lengths
    injective_dimension: int | None = None


@dataclass(frozen=True)
class Command:
    argv: tuple
    kind: str                  # CLI subcommand
    field: str                 # value given to --field
    family: str
    size: int                  # algebra dimension, the x of the scaling fit
    expect: dict = field(default_factory=dict, compare=False)

    @property
    def label(self):
        return f"{self.kind}:{self.family}:{self.size}:{self.field}"


# ---------------------------------------------------------------- counters

def count_paths(p) -> int:
    """Relation-free paths of a presentation, lazy paths included."""
    out = {}
    for a in p.arrows:
        out.setdefault(a.source, []).append(a)
    memo = {}
    for root in p.arrows:
        stack = [root]
        while stack:
            a = stack[-1]
            if a.name in memo:
                stack.pop()
                continue
            nxt = [b for b in out.get(a.target, ())
                   if (b.name, a.name) not in p.relations]
            todo = [b for b in nxt if b.name not in memo]
            if todo:
                stack.extend(todo)
            else:
                memo[a.name] = 1 + sum(memo[b.name] for b in nxt)
                stack.pop()
    return len(p.vertices) + sum(memo.values())


def count_strings(p, max_letters: int) -> int:
    """String modules with at most ``max_letters`` letters, one per
    {w, w^-1} pair, lazy strings included.  No word of positive length is
    its own inverse, so the pairs number half the valid walks."""
    ends = {a.name: (a.source, a.target) for a in p.arrows}
    letters = [(a.name, d) for a in p.arrows for d in (True, False)]

    def start(l):
        return ends[l[0]][0 if l[1] else 1]

    def end(l):
        return ends[l[0]][1 if l[1] else 0]

    def follows(l, m):
        if end(l) != start(m):
            return False
        if l[1] and m[1]:
            return (m[0], l[0]) not in p.relations
        if not l[1] and not m[1]:
            return (l[0], m[0]) not in p.relations
        return l[0] != m[0]

    succ = {l: [m for m in letters if follows(l, m)] for l in letters}
    walks = {l: 1 for l in letters}
    total = 0
    for length in range(1, max_letters + 1):
        total += sum(walks.values())
        if length == max_letters:
            break
        nxt = dict.fromkeys(letters, 0)
        for l, c in walks.items():
            for m in succ[l]:
                nxt[m] += c
        walks = nxt
    return len(p.vertices) + total // 2


def critical_lengths(p) -> tuple:
    """Lengths of the cycles of the partial permutation 'arrow -> the arrow
    it forms a relation with'; these are the critical cycles."""
    succ = {earlier: later for later, earlier in p.relations}
    lengths = []
    seen = set()
    for start in sorted(succ):
        chain = []
        cur = start
        while cur in succ and cur not in seen and cur not in chain:
            chain.append(cur)
            cur = succ[cur]
        if cur in chain:
            lengths.append(len(chain) - chain.index(cur))
        seen.update(chain)
    return tuple(sorted(lengths))


# ---------------------------------------------------------------- generator

def polygon_triangles(rng: random.Random, n: int):
    """A random triangulation of the n-gon with vertices 0..n-1, by
    recursively splitting off the triangle over a base edge with a random
    apex.  Triangles are vertex triples a < b < c."""
    triangles = []
    stack = [(0, n - 1)]
    while stack:
        lo, hi = stack.pop()
        if hi - lo < 2:
            continue
        apex = rng.randint(lo + 1, hi - 1)
        triangles.append((lo, apex, hi))
        stack.append((apex, hi))
        stack.append((lo, apex))
    return triangles


def polygon_triangulation(rng: random.Random, n: int):
    """(Triangulation, number of inner triangles) for a random n-gon
    triangulation, validated by ``make_triangulation``."""
    def side(i, j):
        if j == i + 1:
            return f"b{i}"
        if (i, j) == (0, n - 1):
            return f"b{n - 1}"
        return f"x{i}_{j}"

    tris = polygon_triangles(rng, n)
    diagonals = sorted({(i, j) for a, b, c in tris
                        for i, j in ((a, b), (b, c), (a, c))
                        if side(i, j).startswith("x")})
    t = surface.make_triangulation(
        [side(i, j) for i, j in diagonals],
        [f"b{i}" for i in range(n)],
        [(side(a, b), side(b, c), side(a, c)) for a, b, c in tris])
    inner = sum(1 for a, b, c in tris
                if b - a > 1 and c - b > 1 and (a, c) != (0, n - 1))
    return t, inner


def two_cycles():
    """Two disjoint oriented 3-cycles with radical square zero."""
    vertices = tuple(str(i) for i in range(1, 7))
    arrows, relations = [], set()
    for tag, base in (("a", 0), ("b", 3)):
        for i in range(1, 4):
            arrows.append(quiver.Arrow(f"{tag}{i}", str(base + i),
                                       str(base + i % 3 + 1)))
            relations.add((f"{tag}{i % 3 + 1}", f"{tag}{i}"))
    return quiver.QuiverPresentation(vertices, tuple(arrows),
                                     frozenset(relations))


class InputWriter:
    """Writes generated inputs into one directory."""

    def __init__(self, workdir: Path):
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)

    def algebra(self, name, family, p, injdim=None) -> Algebra:
        path = self.workdir / f"{name}.gentle"
        path.write_text(quiver.serialize_presentation(p), encoding="utf-8")
        return Algebra(family, str(path), p, count_paths(p),
                       critical_lengths(p), injdim)

    def surface(self, name, rng, n):
        """(path of the .tri file, inner count, Algebra of the surface).

        Of POLYGON_DRAWS random triangulations it keeps the one whose
        algebra has the median dimension, so that seeds change the shape
        more than the amount of work."""
        draws = []
        for _ in range(POLYGON_DRAWS):
            t, inner = polygon_triangulation(rng, n)
            p = surface.algebra_presentation(t)
            draws.append((count_paths(p), len(draws), t, inner))
        _, _, t, inner = sorted(draws)[POLYGON_DRAWS // 2]
        path = self.workdir / f"{name}.tri"
        path.write_text(surface.serialize_triangulation(t), encoding="utf-8")
        alg = self.algebra(name, "polygon", surface.algebra_presentation(t),
                           injdim=1)
        return str(path), inner, alg


# A_n, lambda_n and I_n with their closed forms: (presentation, dimension,
# critical-cycle lengths, injective dimension).
def linear(n):
    return families.linear_quiver(n), n * (n + 1) // 2, (), 1


def lam(n):
    return families.projective_line_chain(n), (n + 1) ** 2, (2,) * (n - 1), 1


def cyclic(n):
    return families.cyclic_nakayama(n), 2 * n, (n,), 0


FAMILIES = {"A_n": linear, "lambda_n": lam, "I_n": cyclic}


def family_algebra(w: InputWriter, family, n) -> Algebra:
    p, dim, lengths, injdim = FAMILIES[family](n)
    alg = w.algebra(f"{family}{n}", family, p, injdim)
    if (alg.dimension, alg.cycle_lengths) != (dim, lengths):
        raise RuntimeError(f"generator disagrees with the closed form "
                           f"for {family} n={n}")
    return alg


def _cmd(kind, fld, alg: Algebra, *extra, files=None, **expect):
    files = files if files is not None else (alg.path,)
    return Command(("--field", fld, kind, *files, *extra), kind, fld,
                   alg.family, alg.dimension, expect)


POLYGON_DRAWS = 5

# Sizes are set by the time budget of one pass (see README.md); none of
# them is chosen to avoid a defect.
ORACLE_LETTERS = {"eight_vertex": 5, "lambda_n": 4, "two_cycles": 8,
                  "I_n": 8, "polygon": 4}
ORACLE_POLYGONS = (10, 12, 14, 16, 18, 20)
RESOLVE_A = (4, 6, 8, 10, 12, 14, 16, 18)
RESOLVE_LAMBDA = (2, 3, 4, 5, 6, 7, 8, 9)
RESOLVE_POLYGONS = (30, 33, 36, 40)
SURFACE_POLYGONS = (50, 100, 200, 400, 600)
ALGEBRA_POLYGONS = (50, 100, 200, 400)
COMBINATORIAL_FAMILIES = {"A_n": (25, 50, 100, 150),
                          "lambda_n": (10, 20, 40, 60),
                          "I_n": (50, 100, 200, 400)}


def oracle_sweep(w: InputWriter, rng: random.Random):
    fixtures = [w.algebra("eight_vertex", "eight_vertex",
                          families.eight_vertex_example()),
                w.algebra("two_cycles", "two_cycles", two_cycles()),
                family_algebra(w, "I_n", 3)]
    fixtures += [family_algebra(w, "lambda_n", n) for n in (3, 4, 5, 6)]
    fixtures += [w.surface(f"poly{n}", rng, n)[2] for n in ORACLE_POLYGONS]
    cmds = []
    for alg in fixtures:
        letters = ORACLE_LETTERS[alg.family]
        for fld in FIELDS:
            cmds.append(_cmd("oracle", fld, alg, "--max-letters", str(letters),
                             max_letters=letters,
                             certificates=count_strings(alg.presentation,
                                                        letters)))
            cmds.append(_cmd("stable", fld, alg,
                             objects=sum(alg.cycle_lengths),
                             orbits=len(alg.cycle_lengths)))
    return cmds


def resolve_ladder(w: InputWriter, rng: random.Random):
    algebras = [w.algebra("eight_vertex", "eight_vertex",
                          families.eight_vertex_example(), injdim=2)]
    algebras += [family_algebra(w, "A_n", n) for n in RESOLVE_A]
    algebras += [family_algebra(w, "lambda_n", n) for n in RESOLVE_LAMBDA]
    algebras += [w.surface(f"poly{n}", rng, n)[2] for n in RESOLVE_POLYGONS]
    return [_cmd("dim", fld, alg, dimension=alg.dimension,
                 injective_dimension=alg.injective_dimension)
            for alg in algebras for fld in FIELDS]


def _combinatorial(fld, alg: Algebra):
    lengths = list(alg.cycle_lengths)
    return [
        _cmd("validate", fld, alg, dimension=alg.dimension),
        _cmd("cycles", fld, alg, lengths=lengths),
        _cmd("gp", fld, alg, projectives=sorted(alg.presentation.vertices),
             nonprojective=sum(lengths)),
        _cmd("dsg", fld, alg, descriptor=lengths),
    ]


def combinatorial_ladder(w: InputWriter, rng: random.Random):
    # every command runs once per --field value; the commands ignore the
    # field, so the two per-field rates are a built-in null comparison
    cmds = []
    polygons = []
    for n in SURFACE_POLYGONS:
        tri_path, inner, alg = w.surface(f"poly{n}", rng, n)
        cmds += [_cmd("surface", fld, alg, files=(tri_path,),
                      inner_count=inner) for fld in FIELDS]
        if n in ALGEBRA_POLYGONS:
            polygons.append(alg)
    algebras = polygons + [family_algebra(w, family, n)
                           for family, sizes in COMBINATORIAL_FAMILIES.items()
                           for n in sizes]
    cmds += [c for alg in algebras for fld in FIELDS
             for c in _combinatorial(fld, alg)]
    # compare each polygon with the next one up the ladder, the last with A_n
    partners = polygons[1:] + [family_algebra(w, "A_n", 10)]
    cmds += [_cmd("compare", fld, alg, files=(alg.path, other.path),
                  descriptor_a=list(alg.cycle_lengths),
                  descriptor_b=list(other.cycle_lengths))
             for alg, other in zip(polygons, partners) for fld in FIELDS]
    return cmds


GENERATORS = {"oracle-sweep": oracle_sweep,
            "resolve-ladder": resolve_ladder,
            "combinatorial-ladder": combinatorial_ladder}


def build(workload: str, seed: int, workdir: Path):
    """Write the workload's inputs for ``seed`` and return its commands."""
    rng = random.Random(f"{workload}/{seed}")
    return GENERATORS[workload](InputWriter(workdir), rng)


# ---------------------------------------------------------------- checks

def check(cmd: Command, payload) -> str | None:
    """None when the parsed CLI output has the expected fields, otherwise
    a one-line reason.  Fields are compared, not bytes."""
    try:
        return CHECKS[cmd.kind](cmd.expect, payload)
    except (KeyError, TypeError, ValueError) as exc:
        return f"malformed output: {exc!r}"


def _oracle(e, out):
    certs = out["certificates"]
    if out["agreement"] is not True:
        return "agreement is not true"
    if out["max_letters"] != e["max_letters"]:
        return f"max_letters {out['max_letters']} != {e['max_letters']}"
    if len(certs) != e["certificates"]:
        return f"{len(certs)} certificates, expected {e['certificates']}"
    inconclusive = sum(c["verdict"] == "inconclusive-to-bound" for c in certs)
    if inconclusive:
        return f"{inconclusive} inconclusive-to-bound verdicts"
    if any(c["verdict"] != c["classifier"] for c in certs):
        return "a verdict differs from the classifier"
    return None


def _stable(e, out):
    n = e["objects"]
    if out["identity"] is not True:
        return "identity is not true"
    if len(out["objects"]) != n or len(out["orbits"]) != e["orbits"]:
        return (f"{len(out['objects'])} objects in {len(out['orbits'])} "
                f"orbits, expected {n} in {e['orbits']}")
    if out["stable_hom_matrix"] != [[int(i == j) for j in range(n)]
                                    for i in range(n)]:
        return "stable-hom matrix is not the identity"
    return None


def _fields(**names):
    """A check comparing output fields with expected values."""
    def run(e, out):
        for key, ekey in names.items():
            if out[key] != e[ekey]:
                return f"{key} = {out[key]!r}, expected {e[ekey]!r}"
        return None
    return run


def _cycles(e, out):
    got = sorted(c["length"] for c in out["cycles"])
    if got != e["lengths"]:
        return f"cycle lengths {got}, expected {e['lengths']}"
    return None


def _gp(e, out):
    if out["projectives"] != e["projectives"]:
        return "projectives differ from the vertex list"
    if len(out["nonprojective"]) != e["nonprojective"]:
        return (f"{len(out['nonprojective'])} non-projective GPs, "
                f"expected {e['nonprojective']}")
    return None


def _validate(e, out):
    if out["status"] != "ok" or out["gentle"] is not True:
        return f"status {out['status']!r}"
    return _fields(dimension="dimension")(e, out)


def _dsg(e, out):
    if out["descriptor"] != e["descriptor"]:
        return f"descriptor {out['descriptor']}, expected {e['descriptor']}"
    if out["indecomposable_objects"] != sum(e["descriptor"]):
        return "indecomposable_objects is not the sum of the descriptor"
    return None


def _compare(e, out):
    problem = _fields(descriptor_a="descriptor_a",
                      descriptor_b="descriptor_b")(e, out)
    if problem is None and out["compatible"] != (e["descriptor_a"]
                                                 == e["descriptor_b"]):
        problem = f"compatible = {out['compatible']}"
    return problem


def _surface(e, out):
    if out["count_matches"] is not True:
        return "count_matches is not true"
    if out["inner_count"] != e["inner_count"]:
        return f"inner_count {out['inner_count']}, expected {e['inner_count']}"
    if out["descriptor"] != [3] * e["inner_count"]:
        return "descriptor is not one 3 per inner triangle"
    return None


CHECKS = {"oracle": _oracle, "stable": _stable,
          "dim": _fields(dimension="dimension",
                         injective_dimension="injective_dimension"),
          "validate": _validate, "cycles": _cycles, "gp": _gp, "dsg": _dsg,
          "compare": _compare, "surface": _surface}
