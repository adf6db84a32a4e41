"""Reference routines the tests compare the program against.

The program needs none of them: a brute-force presentation isomorphism,
the token-by-token DSL reader, the triangulation reader and the gentle
axioms checked arrow by arrow, as the program did before it read and
checked its input in bulk, field arithmetic, dense rows, identity
matrices and matrices side by side for the dense references, a
dense-style linear solve, the path basis of an algebra, its critical
cycles by exhaustive search, the string rule read off the relations with
the words and refusals it gives make_string and enumerate_strings, the
peak test on string words, band modules, the module axioms, the
coordinate summands of a module, the socle index of an algebra's
projectives read off its threads with the receiving sum it gives, and
the full commutation system of Hom(M, N), every block cell an unknown.
On that system rest explicit hom bases, hom dimensions, an isomorphism
search that returns a witness, the embedding obstruction computed one
indecomposable projective at a time, and an Ext profile that resolves
every step, with no Euler characteristic.
"""

import re
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice, permutations

from gentlegp.gentle import GentleViolation
from gentlegp.linalg import Matrix, QQ, echelon, kernel_vectors
from gentlegp.quiver import (Arrow, DSLSyntaxError, InputError,
                             PresentationError)
from gentlegp.reps import (ExtProfile, ModuleMap, Representation,
                           direct_sum, projective_rep, regular_rep,
                           resolution)
from gentlegp.strings import Letter, StringWord
from gentlegp.surface import TriangulationError


# ------------------------------------------------ presentation isomorphism

def _vertex_invariant(p, v):
    return (len(p.arrows_out(v)), len(p.arrows_in(v)))


def canonical_key(p):
    """A key invariant under renaming of vertices and arrows.

    Brute-force over vertex bijections compatible with degree invariants;
    fine at the sizes the tests use (at most 8 vertices).
    """
    by_inv = {}
    for v in p.vertices:
        by_inv.setdefault(_vertex_invariant(p, v), []).append(v)
    groups = sorted(by_inv.items())
    best = None
    for perm_parts in _group_permutations([vs for _, vs in groups]):
        order = [v for part in perm_parts for v in part]
        vidx = {v: i for i, v in enumerate(order)}
        edges = sorted((vidx[a.source], vidx[a.target]) for a in p.arrows)
        # parallel arrows are interchangeable a priori; minimize over their
        # orderings so relations involving them canonicalize too
        by_edge = {}
        for a in sorted(p.arrows, key=lambda a: (vidx[a.source], vidx[a.target])):
            by_edge.setdefault((vidx[a.source], vidx[a.target]), []).append(a.name)
        edge_groups = [names for _, names in sorted(by_edge.items())]
        for parts in _group_permutations(edge_groups):
            aidx = {}
            for part in parts:
                for name in part:
                    aidx[name] = len(aidx)
            rels = sorted((aidx[b], aidx[a]) for b, a in p.relations)
            key = (len(p.vertices), tuple(edges), tuple(rels))
            if best is None or key < best:
                best = key
    return best


def _group_permutations(groups):
    if not groups:
        yield []
        return
    head, rest = groups[0], groups[1:]
    for perm in permutations(head):
        for tail in _group_permutations(rest):
            yield [list(perm)] + tail


def is_isomorphic(p, q):
    """Presentation isomorphism up to relabeling of vertices and arrows."""
    if len(p.vertices) != len(q.vertices) or len(p.arrows) != len(q.arrows):
        return False
    if len(p.relations) != len(q.relations):
        return False
    return canonical_key(p) == canonical_key(q)


# ------------------------------------------------- parsing and validation
# The one-token-at-a-time readers and the one-arrow-at-a-time checks the
# program's bulk passes are compared against.  The readers return plain
# tuples, checked here, so no check of the program's stands in for them.

_TOKEN = re.compile(r"(?:\s|#[^\n]*)*([A-Za-z0-9_.']+|->|.|\Z)", re.S)
_IDENT_CHARS = frozenset(
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789_.'")


def parse_presentation(text):
    """(vertices, arrows, relations) of a DSL text, token by token; each
    error names its line and column."""
    toks = _TOKEN.findall(text)

    def fail(message, i, offset=0):
        pos = next(islice(_TOKEN.finditer(text), i, None)).start(1) + offset
        line = text.count("\n", 0, pos) + 1
        raise DSLSyntaxError(message, line, pos - text.rfind("\n", 0, pos))

    def expect(i, literal):
        if toks[i] != literal:
            fail(f"expected {literal!r}", i)

    def ident(i, what):
        if toks[i][:1] not in _IDENT_CHARS:
            fail(f"expected {what}", i)
        return toks[i]

    def header(i, keyword):
        if toks[i] != keyword:
            if toks[i].startswith(keyword):
                fail("expected ':'", i, len(keyword))
            fail(f"expected {keyword!r}", i)
        expect(i + 1, ":")
        return i + 2

    i = header(0, "vertices")
    vertices = []
    while toks[i] not in ("", ";") and not toks[i].startswith("arrows"):
        vertices.append(ident(i, "vertex id"))
        i += 1
        if toks[i] != ",":
            break
        i += 1
    i = header(i + (toks[i] == ";"), "arrows")

    arrows = []
    while toks[i] not in ("", ";") and not toks[i].startswith("relations"):
        name = ident(i, "arrow id")
        expect(i + 1, ":")
        src = ident(i + 2, "source vertex")
        expect(i + 3, "->")
        arrows.append(Arrow(name, src, ident(i + 4, "target vertex")))
        i += 5
        if toks[i] != ";":
            break
        i += 1
    i = header(i + (toks[i] == ";"), "relations")

    relations = set()
    while toks[i] not in ("", ";"):
        later = ident(i, "arrow id")
        expect(i + 1, "*")
        pair = (later, ident(i + 2, "arrow id"))
        if pair in relations:
            raise PresentationError(f"duplicate relation {pair[0]}*{pair[1]}")
        relations.add(pair)
        i += 3
        if toks[i] != ",":
            break
        i += 1
    i += toks[i] == ";"
    if toks[i]:
        fail("unexpected trailing input", i)
    return check_presentation(tuple(vertices), tuple(arrows),
                              frozenset(relations))


def check_presentation(vertices, arrows, relations):
    """The presentation's parts, once every id is declared once and every
    relation composes; else the PresentationError of the first fault,
    the relations walked in sorted order."""
    seen_v = set()
    for v in vertices:
        if v in seen_v:
            raise PresentationError(f"duplicate vertex id {v!r}")
        seen_v.add(v)
    seen_a = {}
    for a in arrows:
        if a.name in seen_a:
            raise PresentationError(f"duplicate arrow id {a.name!r}")
        if a.source not in seen_v:
            raise PresentationError(
                f"arrow {a.name!r} has undeclared source {a.source!r}")
        if a.target not in seen_v:
            raise PresentationError(
                f"arrow {a.name!r} has undeclared target {a.target!r}")
        seen_a[a.name] = a
    for later, earlier in sorted(relations):
        if later not in seen_a or earlier not in seen_a:
            raise PresentationError(
                f"relation {later}*{earlier} references an unknown arrow")
        if seen_a[earlier].target != seen_a[later].source:
            raise PresentationError(
                f"relation {later}*{earlier} is not composable: "
                f"target({earlier}) = {seen_a[earlier].target!r} but "
                f"source({later}) = {seen_a[later].source!r}")
    return vertices, arrows, relations


_SECTION = re.compile(
    r"arcs\s*:(?P<arcs>.*?);?\s*boundary\s*:(?P<boundary>.*?);?\s*"
    r"triangles\s*:(?P<triangles>.*)", re.S)
_TRIANGLE = re.compile(
    r"\(\s*([^(),]+?)\s*,\s*([^(),]+?)\s*,\s*([^(),]+?)\s*\)")


def parse_triangulation(text):
    """(internal arcs, boundary arcs, triangles) of a triangulation text:
    one search for the sections, a findall for the triangles and a sub for
    what lies around them.  Only whitespace and comments may come before
    'arcs:'."""
    body = "\n".join(line.split("#", 1)[0] for line in text.splitlines())
    m = _SECTION.search(body)
    if not m:
        raise TriangulationError(
            "expected sections 'arcs:', 'boundary:', 'triangles:'")
    if body[:m.start()].strip():
        raise TriangulationError("unexpected text before 'arcs:': "
                                 f"{body[:m.start()].strip()!r}")
    internal = [s.strip() for s in m.group("arcs").split(",") if s.strip()]
    boundary = [s.strip() for s in m.group("boundary").split(",")
                if s.strip()]
    tri_text = m.group("triangles")
    triangles = [tuple(g.strip() for g in t)
                 for t in _TRIANGLE.findall(tri_text)]
    leftover = _TRIANGLE.sub("", tri_text).replace(";", "").replace(
        ",", "").strip()
    if leftover:
        raise TriangulationError(f"unparsed triangle text: {leftover!r}")
    return check_triangulation(tuple(internal), tuple(boundary),
                               tuple(triangles))


def check_triangulation(internal, boundary, triangles):
    """The triangulation's parts, once each arc is named once and lies in
    as many triangles as it should; else the first fault's
    TriangulationError."""
    for ids in (internal, boundary):
        seen = set()
        for arc in ids:
            if arc in seen:
                raise TriangulationError(f"duplicate arc id {arc!r}")
            seen.add(arc)
    arcs = set(internal) | set(boundary)
    if len(arcs) != len(internal) + len(boundary):
        raise TriangulationError("an arc id appears in both arc lists")
    counts = {a: 0 for a in arcs}
    for tri in triangles:
        if len(set(tri)) != 3:
            raise TriangulationError(
                f"self-folded triangle {tri}: sides must be distinct")
        for side in tri:
            if side not in counts:
                raise TriangulationError(f"unknown arc {side!r} in {tri}")
            counts[side] += 1
    for arc in internal:
        if counts[arc] != 2:
            raise TriangulationError(
                f"internal arc {arc!r} lies in {counts[arc]} triangles, "
                "expected 2")
    for arc in boundary:
        if counts[arc] != 1:
            raise TriangulationError(
                f"boundary segment {arc!r} lies in {counts[arc]} triangles, "
                "expected 1")
    return internal, boundary, triangles


def gentle_violations(p):
    """Every violation of the gentle axioms, each with a witness, read off
    the relations arrow by arrow."""
    violations = []
    for v in p.vertices:
        if len(p.arrows_out(v)) > 2 or len(p.arrows_in(v)) > 2:
            violations.append(GentleViolation("G1", (v,)))
    n_succ = Counter(e for (l, e) in p.relations)
    n_pred = Counter(l for (l, e) in p.relations)
    for b in p.arrows:
        if n_succ[b.name] > 1 or n_pred[b.name] > 1:
            violations.append(GentleViolation("G3", (b.name,)))
    succ = {b.name: [a.name for a in p.arrows_out(b.target)
                     if (a.name, b.name) not in p.relations]
            for b in p.arrows}
    for b in p.arrows:
        pred = [a.name for a in p.arrows_in(b.source)
                if (b.name, a.name) not in p.relations]
        if len(succ[b.name]) > 1 or len(pred) > 1:
            violations.append(GentleViolation("G4", (b.name,)))
    cycle = _find_cycle(succ)
    if cycle is not None:
        violations.append(GentleViolation("infinite-dimensional",
                                          tuple(cycle)))
    return violations


def _find_cycle(succ):
    """A cycle of allowed compositions, by depth-first search over the
    arrows in declaration order, or None."""
    color = {name: 0 for name in succ}
    for root in succ:
        if color[root]:
            continue
        color[root] = 1
        stack_path = [root]
        pending = [iter(succ[root])]
        while pending:
            for w in pending[-1]:
                if color[w] == 1:
                    return stack_path[stack_path.index(w):]
                if color[w] == 0:
                    color[w] = 1
                    stack_path.append(w)
                    pending.append(iter(succ[w]))
                    break
            else:
                color[stack_path.pop()] = 2
                pending.pop()
    return None


def continuation(p):
    """Arrow name -> the first arrow out of its target that it composes
    with to no relation, or None."""
    return {a.name: next((b.name for b in p.arrows_out(a.target)
                          if (b.name, a.name) not in p.relations), None)
            for a in p.arrows}


# ----------------------------------------------------- fields and matrices

def of(p, x):
    """The image of a rational in the field of characteristic p: over
    F_p, a/b goes to a times the inverse of b mod p."""
    x = Fraction(x)
    if not p:
        return x
    if x.denominator % p == 0:
        raise InputError(f"{x} has no image in F_{p}")
    return x.numerator * pow(x.denominator, -1, p) % p


def add(p, a, b):
    return (a + b) % p if p else a + b


def sub(p, a, b):
    return (a - b) % p if p else a - b


def mul(p, a, b):
    return a * b % p if p else a * b


def div(p, a, b):
    # over Q an integral element is an int, and int / int is a float
    return a * pow(b, -1, p) % p if p else Fraction(a) / b


def from_rows(p, rows):
    """The Matrix of dense rows, lists of entries."""
    rows = [[of(p, x) for x in r] for r in rows]
    ncols = len(rows[0]) if rows else 0
    if any(len(r) != ncols for r in rows):
        raise ValueError("rows of unequal length")
    return Matrix(p, len(rows), ncols,
                  [{j: x for j, x in enumerate(r) if x} for r in rows])


def identity(field, n):
    return Matrix(field, n, n, [{i: 1} for i in range(n)])


def hstack(field, mats):
    """The Matrix of the given matrices side by side."""
    mats = list(mats)
    if not mats:
        return Matrix.zeros(field, 0, 0)
    nrows = mats[0].nrows
    if any(m.nrows != nrows for m in mats):
        raise ValueError("hstack: row counts differ")
    rows = [{} for _ in range(nrows)]
    offset = 0
    for m in mats:
        for row, mrow in zip(rows, m.rows):
            row.update((offset + j, x) for j, x in mrow.items())
        offset += m.ncols
    return Matrix(field, nrows, offset, rows)


# ------------------------------------------------------------ linear solve

def column(field, entries):
    """The one-column Matrix of a list of entries."""
    entries = [of(field, x) for x in entries]
    return Matrix(field, len(entries), 1,
                  [{0: x} if x else {} for x in entries])


def solve(a, b):
    """Solve a @ X = b, where b is a column vector given as a list or a
    Matrix of right-hand sides; X has the same kind as b.  None if some
    column has no solution."""
    F = a.field
    vector = not isinstance(b, Matrix)
    rhs = column(F, b) if vector else b
    if rhs.nrows != a.nrows:
        raise ValueError("dimension mismatch in solve")
    n = a.ncols
    # the rows of [a | rhs]; echelon leaves them unchanged.  A pivot on a
    # right-hand side marks a row 0 = nonzero
    rows = [{**r, **{n + j: x for j, x in s.items()}} if s else r
            for r, s in zip(a.rows, rhs.rows)]
    prows, pivots = echelon(F, rows, n + rhs.ncols)
    if pivots and pivots[-1] >= n:
        return None
    x = [{} for _ in range(n)]
    for prow, pc in zip(prows, pivots):
        x[pc] = {j - n: v for j, v in prow.items() if j >= n}
    x = Matrix(F, n, rhs.ncols, x)
    return [row.get(0, 0) for row in x.rows] if vector else x


# ------------------------------------------------------------- path basis

@dataclass(frozen=True)
class Path:
    """A path in the quiver; arrows listed in traversal order.  An empty
    arrow tuple with source == target is the lazy path e_v."""

    arrows: tuple[str, ...]
    source: str
    target: str

    def __len__(self):
        return len(self.arrows)


def path_basis(a):
    """All relation-free paths of the algebra, lazy paths included, by
    breadth-first extension.  Finite because validation rejected
    relation-free cycles."""
    p = a.presentation
    basis = [Path((), v, v) for v in p.vertices]
    frontier = [Path((arr.name,), arr.source, arr.target) for arr in p.arrows]
    while frontier:
        basis.extend(frontier)
        nxt = []
        for path in frontier:
            last = path.arrows[-1]
            for arr in p.arrows_out(path.target):
                if (arr.name, last) not in p.relations:
                    nxt.append(Path(path.arrows + (arr.name,),
                                    path.source, arr.target))
        frontier = nxt
    basis.sort(key=lambda q: (len(q.arrows), q.source, q.arrows))
    return tuple(basis)


def critical_cycles(a):
    """The repetition-free cycles of arrows whose consecutive compositions
    are all relations, each as a tuple from its least arrow, sorted.  A
    depth-first search over the arrows that does not assume G3."""
    later = {x.name: [b for b, e in a.relations if e == x.name]
             for x in a.arrows}
    cycles = []

    def extend(path):
        for b in later[path[-1]]:
            if b == path[0]:
                cycles.append(tuple(path))
            elif b > path[0] and b not in path:
                extend(path + [b])

    for x in later:
        extend([x])
    return sorted(cycles)


# ------------------------------------------------------------------ words

def _letter_endpoints(a, letter):
    arr = a.arrow_map.get(letter.arrow)
    if arr is None:
        raise PresentationError(f"unknown arrow {letter.arrow!r}")
    return (arr.source, arr.target) if letter.direct else (arr.target, arr.source)


def check_string(a, letters):
    """Validity of a letter sequence, with the first failure reason, read
    off the relations themselves rather than the algebra's allowed
    continuations."""
    letters = tuple(letters)
    if not letters:
        return True, None
    prev_end = None
    for i, l in enumerate(letters):
        start, end = _letter_endpoints(a, l)
        if prev_end is not None and start != prev_end:
            return False, f"letters {i} and {i+1} do not form a walk"
        prev_end = end
        if i == 0:
            continue
        p = letters[i - 1]
        if p.arrow == l.arrow and p.direct != l.direct:
            return False, f"letter {i+1} immediately undoes letter {i}"
        if p.direct and l.direct:
            if (l.arrow, p.arrow) in a.relations:
                return False, (f"direct letters {p.arrow},{l.arrow} "
                               f"form a relation")
        elif not p.direct and not l.direct:
            if (p.arrow, l.arrow) in a.relations:
                return False, (f"inverse letters {p.arrow}^-1,{l.arrow}^-1 "
                               f"reverse a relation")
    return True, None


def string_outcome(a, letters):
    """What make_string should give for letters, by check_string: the
    word, or the type and text of the exception it should raise."""
    try:
        ok, reason = check_string(a, letters)
    except PresentationError as err:
        return type(err), str(err)
    if not ok:
        return InputError, f"invalid string word: {reason}"
    if not letters:
        return InputError, "use lazy_word for empty words"
    ends = [_letter_endpoints(a, l) for l in letters]
    return StringWord(tuple(letters),
                      (ends[0][0],) + tuple(end for _, end in ends))


def strings_by_search(a, max_letters):
    """The strings of at most max_letters letters, one per {w, w^-1}
    pair, lazy words included, in enumerate_strings' order: each word
    check_string accepts is extended by every letter, and each accepted
    word replaced by the smaller of it and its inverse."""
    alphabet = [Letter(arr.name, d) for arr in a.arrows for d in (True, False)]
    words = {StringWord((), (v,)) for v in a.vertices}
    layer = [()]
    for _ in range(max_letters):
        layer = [w + (l,) for w in layer for l in alphabet
                 if check_string(a, w + (l,))[0]]
        for letters in layer:
            word = string_outcome(a, letters)
            words.add(min(word, word.inverse(), key=StringWord.sort_key))
    return sorted(words, key=lambda w: (len(w.letters), w.sort_key(),
                                        w.vertices))


def contains_peak(w):
    """True iff two distinct arrows of the walk point into a common
    vertex: a direct letter immediately followed by an inverse one."""
    for p, l in zip(w.letters, w.letters[1:]):
        if p.direct and not l.direct:
            return True
    return False


# ------------------------------------------------------------------ bands

@dataclass(frozen=True)
class BandWord:
    """A cyclic word: letter i connects vertex i-1 to vertex i, indices
    mod the length; every rotation is a valid string, both letter
    directions occur, and the word is not a proper power."""

    letters: tuple
    vertices: tuple[str, ...]  # one per letter; vertex i = end of letter i


def make_band(a, letters):
    letters = tuple(letters)
    if len(letters) < 2:
        raise InputError("a band needs at least two letters")
    if all(l.direct for l in letters) or not any(l.direct for l in letters):
        raise InputError("a band must mix direct and inverse letters")
    n = len(letters)
    for d in range(1, n):
        if n % d == 0 and letters[d:] + letters[:d] == letters:
            raise InputError("a band must not be a proper power")
    for r in range(n):
        rot = letters[r:] + letters[:r]
        ok, reason = check_string(a, rot)
        if not ok:
            raise InputError(f"rotation {r} is not a string: {reason}")
        # cyclic closure: last letter must compose with the first
        ok, reason = check_string(a, (rot[-1], rot[0]))
        if not ok:
            raise InputError(f"cyclic closure fails: {reason}")
    walk = string_outcome(a, letters).vertices
    if walk[-1] != walk[0]:
        raise InputError("band walk does not close up")
    return BandWord(letters, walk[1:])


def band_module(a, b, lam, size, field=QQ):
    """Band representation: every letter acts by the identity between
    adjacent blocks except a designated direct letter, which acts by the
    size x size Jordan block with eigenvalue lam.

    The designated letter is the lexicographically least direct letter of
    the word (ties broken by position)."""
    lam = of(field, lam)
    if lam == 0:
        raise InputError("band parameter must be nonzero")
    if size < 1:
        raise InputError("band size must be positive")
    n = len(b.letters)
    special = min((i for i in range(n) if b.letters[i].direct),
                  key=lambda i: b.letters[i].arrow)

    dims = {}  # the band's support
    block_base = []  # base offset of block i inside its vertex
    for i in range(n):
        v = b.vertices[i]
        block_base.append(dims.get(v, 0) * size)
        dims[v] = dims.get(v, 0) + 1
    dims = {v: d * size for v, d in dims.items()}

    jordan = Matrix.zeros(field, size, size)
    for i in range(size):
        jordan.rows[i][i] = lam
        if i + 1 < size:
            jordan.rows[i][i + 1] = 1

    amap = a.arrow_map
    mats = {l.arrow: Matrix.zeros(field, dims[amap[l.arrow].target],
                                  dims[amap[l.arrow].source])
            for l in b.letters}
    for i, l in enumerate(b.letters):
        prev_block = (i - 1) % n
        if l.direct:
            src_block, dst_block = prev_block, i
        else:
            src_block, dst_block = i, prev_block
        block = jordan if i == special else identity(field, size)
        m = mats[l.arrow]
        r0 = block_base[dst_block]
        c0 = block_base[src_block]
        # the blocks of distinct letters never overlap
        for r, row in enumerate(block.rows):
            m.rows[r0 + r].update((c0 + c, x) for c, x in row.items())
    return Representation(a, field, dims, mats)


# -------------------------------------------------------------- modules

def check_module(m):
    """Raise ValueError unless M is stored on its support (no zero
    dimension, no all-zero matrix, no matrix at an arrow with an end
    outside dims), every arrow's matrix has the shape of its ends and
    every relation acts by zero."""
    amap = m.algebra.arrow_map
    for v, d in m.dims.items():
        if not d:
            raise ValueError(f"vertex {v}: zero dimension stored")
    for name, x in m.mats.items():
        arr = amap[name]
        if arr.source not in m.dims or arr.target not in m.dims:
            raise ValueError(f"arrow {name}: stored off the support")
        if (x.nrows, x.ncols) != (m.dims[arr.target], m.dims[arr.source]):
            raise ValueError(f"arrow {name}: matrix shape mismatch")
        if not any(x.rows):
            raise ValueError(f"arrow {name}: zero matrix stored")
    for later, earlier in m.algebra.relations:
        if later in m.mats and earlier in m.mats and \
                any(m.mats[later].mul(m.mats[earlier]).rows):
            raise ValueError(f"relation {later}*{earlier} not satisfied")


# ------------------------------------------------------------------ homs

def hom_system(m, n):
    """The full commutation system of Hom(M, N): every cell of every block
    B_v (N_v x M_v) where M and N are both nonzero is an unknown, numbered
    row-major, vertices in algebra order.  Returns (rows, cells): one
    sparse row per nonzero entry (i, j) of N_a B_s - B_t M_a, for every
    arrow a: s -> t, and the (vertex, N-row, M-column) cell of each
    unknown.  An arrow that M or N does not store acts by 0."""
    if m.algebra.presentation != n.algebra.presentation:
        raise ValueError("modules over different algebras")
    fld = m.field
    offsets, cells = {}, []
    for v in m.algebra.vertices:
        if m.dims.get(v) and n.dims.get(v):
            offsets[v] = len(cells)
            cells.extend((v, i, k) for i in range(n.dims[v])
                         for k in range(m.dims[v]))
    rows = []
    for arr in m.algebra.arrows:
        s, t = arr.source, arr.target
        na = n.mats.get(arr.name) if s in offsets else None
        ma = m.mats.get(arr.name) if t in offsets else None
        if na is None and ma is None:
            continue
        ms, mt = m.dims.get(s, 0), m.dims.get(t, 0)
        columns = ma.transpose().rows if ma is not None else None
        for i in range(n.dims.get(t, 0)):
            for j in range(ms):
                row = {}
                if na is not None:
                    for k, c in na.rows[i].items():
                        idx = offsets[s] + k * ms + j
                        row[idx] = add(fld, row.get(idx, 0), c)
                if columns is not None:
                    for k, c in columns[j].items():
                        idx = offsets[t] + i * mt + k
                        row[idx] = sub(fld, row.get(idx, 0), c)
                row = {idx: c for idx, c in row.items() if c}
                if row:
                    rows.append(row)
    return rows, cells


def hom_vectors(m, n):
    """A basis of Hom(M, N) as kernel vectors of the full system, and the
    cell of every unknown."""
    rows, cells = hom_system(m, n)
    return list(kernel_vectors(m.field, rows, len(cells)).values()), cells


def hom_dim(m, n):
    """dim Hom(M, N), from the full system."""
    rows, cells = hom_system(m, n)
    return len(cells) - len(echelon(m.field, rows, len(cells), False)[1])


def hom_basis(m, n):
    """A basis of Hom(M, N), as module maps."""
    vectors, cells = hom_vectors(m, n)
    maps = []
    for vec in vectors:
        blocks = {v: Matrix.zeros(m.field, n.dims.get(v, 0), d)
                  for v, d in m.dims.items()}
        for idx, x in vec.items():
            v, i, k = cells[idx]
            blocks[v].rows[i][k] = x
        maps.append(ModuleMap(m, n, blocks))
    return maps


def isomorphism(x, y):
    """An isomorphism x -> y, or None: the first map of the full system's
    hom basis whose blocks are all square and of full rank.  For an
    indecomposable x, None means x and y are not isomorphic: End(x) is
    local, so if x and y are isomorphic the non-isomorphisms x -> y form a
    proper subspace of Hom(x, y), which holds no basis."""
    if x.dim_vector() != y.dim_vector():
        return None
    for f in hom_basis(x, y):
        if all(b.nrows == b.ncols == len(echelon(x.field, b.rows, b.ncols,
                                                 False)[1])
               for b in f.blocks.values()):
            return f
    return None


def coordinate_summands(m):
    """The coordinate summands of M: the connected parts of its basis,
    joined wherever an arrow matrix has a nonzero entry, each as a module
    on its basis vectors in their order.  No arrow leaves a part, so M is
    the direct sum of its coordinate summands."""
    amap = m.algebra.arrow_map
    parent = {(v, i): (v, i) for v, d in m.dims.items() for i in range(d)}

    def root(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for name, mat in m.mats.items():
        arr = amap[name]
        for i, row in enumerate(mat.rows):
            for j in row:
                parent[root((arr.source, j))] = root((arr.target, i))
    parts = {}
    for x in parent:
        parts.setdefault(root(x), []).append(x)
    summands = []
    for basis in parts.values():
        slots = {}  # vertex -> {index in M: index in the part}
        for v, i in basis:
            at_v = slots.setdefault(v, {})
            at_v[i] = len(at_v)
        mats = {}
        for name, mat in m.mats.items():
            arr = amap[name]
            src, tgt = slots.get(arr.source), slots.get(arr.target)
            if src is None or tgt is None:
                continue
            rows = [{src[j]: c for j, c in mat.rows[i].items()} for i in tgt]
            if any(rows):
                mats[name] = Matrix(m.field, len(tgt), len(src), rows)
        summands.append(Representation(
            m.algebra, m.field, {v: len(s) for v, s in slots.items()}, mats))
    return summands


def socle_index(a):
    """Vertex w -> the vertices u, in algebra order, with w in the socle
    of P_u.  That socle is the target of the last arrow of the thread
    through each arrow out of u, or u itself when u is a sink."""
    index = {v: [] for v in a.vertices}
    for u in a.vertices:
        ends = []
        for b in a.presentation.arrows_out(u):
            last = b.name
            while a.continuation[last] is not None:
                last = a.continuation[last]
            ends.append(a.arrow_map[last].target)
        for w in dict.fromkeys(ends or [u]):
            index[w].append(u)
    return {w: tuple(us) for w, us in index.items()}


def receiving_sum(m):
    """The direct sum, in algebra order, of the indecomposable projectives
    P_u whose socle meets the support of M.  A nonzero map M -> P_u has a
    submodule of P_u as image, which meets soc P_u, so the other summands
    of Lambda receive no map."""
    a, index = m.algebra, socle_index(m.algebra)
    receiving = {u for w in m.support for u in index[w]}
    return direct_sum(a, m.field, [projective_rep(a, u, m.field)
                                   for u in a.vertices if u in receiving])[0]


def embedding_obstruction(m):
    """The dimension of the common kernel of all maps to indecomposable
    projectives, one hom system per projective P_v, and dim Hom(M, Lambda),
    the total size of their hom bases."""
    a = m.algebra
    fld = m.field
    stacked = {w: [] for w in m.dims}  # block rows of all maps, per vertex
    homs = 0
    for v in a.vertices:
        vectors, cells = hom_vectors(m, projective_rep(a, v, fld))
        homs += len(vectors)
        for vec in vectors:
            rows = {}
            for idx, x in vec.items():
                w, i, k = cells[idx]
                rows.setdefault((w, i), {})[k] = x
            for (w, _), row in rows.items():
                stacked[w].append(row)
    return sum(m.dims[w] - len(echelon(fld, rows, m.dims[w], False)[1])
               if rows else m.dims[w] for w, rows in stacked.items()), homs


def ext_profile(m, bound, d):
    """dim Ext^i(M, Lambda) for i = 1..bound, by dimension shifting along
    bound steps of the minimal resolution, each with a hom system against
    the whole regular module: from 0 -> Omega X -> P -> X -> 0,
    dim Ext^1(X, Lambda) = h(Omega X) - h(P) + h(X) with h = dim Hom(-,
    Lambda).  d is the Gorenstein dimension; the status is that of
    reps.ext_profile."""
    regular = regular_rep(m.algebra, m.field)
    dims = []
    dimvecs = [m.dim_vector()]
    hx = hom_dim(m, regular)
    for cover, x in islice(resolution(m), bound):
        hp = sum(regular.dims[v] for v in cover.summands)
        hx, hprev = hom_dim(x, regular), hx
        dims.append(hx - hp + hprev)
        dimvecs.append(x.dim_vector())
    if x.is_zero():
        dims.extend([0] * (bound - len(dims)))
        status = "terminated"
    else:
        status = "gorenstein" if bound >= d else "checked-to-bound"
    return ExtProfile(dims, dimvecs, status)
