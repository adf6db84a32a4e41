"""Reference routines the tests compare the program against.

The program needs none of them: a brute-force presentation isomorphism,
a dense-style linear solve, the peak test on string words, a module
signature that tells apart the modules the tests compare, and the
embedding obstruction computed one indecomposable projective at a time.
"""

from itertools import permutations

from gentlegp.linalg import Matrix, echelon
from gentlegp.reps import (_hom_vectors, hom_dim, projective_rep,
                           radical_summand_rep)


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


# ------------------------------------------------------------ linear solve

def column(field, entries):
    """The one-column Matrix of a list of entries."""
    entries = [field.of(x) for x in entries]
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
    # the rows of [a | rhs]; echelon leaves them unchanged
    rows = [{**r, **{n + j: x for j, x in s.items()}} if s else r
            for r, s in zip(a.rows, rhs.rows)]
    prows, pivots, rest = echelon(F, rows, n)
    if rest:
        return None
    x = [{} for _ in range(n)]
    for prow, pc in zip(prows, pivots):
        x[pc] = {j - n: v for j, v in prow.items() if j >= n}
    x = Matrix(F, n, rhs.ncols, x)
    return [row.get(0, F.zero) for row in x.rows] if vector else x


# ------------------------------------------------------------------ words

def contains_peak(w):
    """True iff two distinct arrows of the walk point into a common
    vertex: a direct letter immediately followed by an inverse one."""
    for p, l in zip(w.letters, w.letters[1:]):
        if p.direct and not l.direct:
            return True
    return False


# -------------------------------------------------------------- modules

def signature(m):
    """An isomorphism invariant of M: its dimension vector, dim Hom(M, P_v)
    for every vertex v and dim Hom(M, R(a)) for every arrow a, where R(a)
    is the radical summand generated by a.  It separates the finitely many
    modules the tests compare with it."""
    a = m.algebra
    homs = tuple(hom_dim(m, projective_rep(a, v, m.field))
                 for v in a.vertices)
    rad = tuple(hom_dim(m, radical_summand_rep(a, arr.name, m.field))
                for arr in a.arrows)
    return m.dim_vector(), homs, rad


def embedding_obstruction(m):
    """The dimension of the common kernel of all maps to indecomposable
    projectives, one hom system per projective P_v, and dim Hom(M, Lambda),
    the total size of their hom bases."""
    a = m.algebra
    fld = m.field
    stacked = {w: [] for w in a.vertices}  # block rows of all maps, per vertex
    homs = 0
    for v in a.vertices:
        vectors, cells = _hom_vectors(m, projective_rep(a, v, fld))
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
