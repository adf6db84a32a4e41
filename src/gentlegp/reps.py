"""Representations of a gentle algebra and the homological toolbox:
string modules, hom spaces, isomorphisms, top generators, projective
covers, syzygies, Ext against the regular module, and the
submodule-of-projective obstruction.  This is the one module that turns
string words into matrices."""

from __future__ import annotations

from collections import Counter
from functools import cached_property, lru_cache
from itertools import groupby, islice
from operator import itemgetter
from typing import NamedTuple

from .gentle import GentleAlgebra
from .linalg import Matrix, QQ, _combine, echelon, kernel_vectors
from .quiver import InputError
from .strings import StringWord, projective_word, radical_summand_string


class InternalError(AssertionError):
    """An invariant of the computation failed on valid input: a bug in
    the library, never a fault of the input."""


class Representation:
    """Finite dimensional left module, stored on its support: dims holds
    the vertices where M is nonzero and mats the arrows that act by a
    nonzero matrix; an absent vertex or arrow is 0.  The constructor
    stores what it is given; every builder here stores only the
    support."""

    def __init__(self, algebra: GentleAlgebra, fld, dims, mats):
        self.algebra = algebra
        self.field = fld
        self.dims = dict(dims)
        self.mats = dict(mats)

    @property
    def total_dim(self):
        return sum(self.dims.values())

    @cached_property
    def support(self):
        """The vertices where M is nonzero, in algebra order."""
        return tuple(sorted((v for v, d in self.dims.items() if d),
                            key=self.algebra.vertex_index.__getitem__))

    @cached_property
    def columns(self):
        """The columns of each arrow matrix that M stores, by arrow."""
        return {name: mat.transpose().rows for name, mat in self.mats.items()}

    def dim_vector(self):
        return tuple(self.dims.get(v, 0) for v in self.algebra.vertices)

    def is_zero(self):
        return self.total_dim == 0


class ModuleMap(NamedTuple):
    source: Representation
    target: Representation
    blocks: dict

    def check(self):
        """Raise ValueError unless each block is target dim x source dim
        at its vertex and the blocks commute with every arrow that either
        side stores; both sides of any other arrow are 0."""
        src, tgt, blocks = self.source, self.target, self.blocks
        for v, b in blocks.items():
            if (b.nrows, b.ncols) != (tgt.dims.get(v, 0), src.dims.get(v, 0)):
                raise ValueError(f"block at {v} has the wrong shape")
        amap = src.algebra.arrow_map
        for name in dict.fromkeys([*src.mats, *tgt.mats]):
            arr = amap[name]
            lhs = _product(tgt.mats.get(name), blocks.get(arr.source))
            rhs = _product(blocks.get(arr.target), src.mats.get(name))
            if lhs != rhs:
                raise ValueError(f"map does not commute with arrow {name}")

    def is_isomorphism(self):
        """Is this a module map with square blocks of full rank?"""
        try:
            self.check()
        except ValueError:
            return False
        return self.source.dims == self.target.dims and all(
            (b := self.blocks.get(v)) and b.rank() == d
            for v, d in self.source.dims.items())


def _product(x, y):
    """The nonzero rows of x y by index, with an absent factor as 0."""
    if x is None or y is None:
        return {}
    return {i: row for i, row in enumerate(x.mul(y).rows) if row}


def direct_sum(a: GentleAlgebra, fld, reps):
    """Block-diagonal direct sum of modules over a and fld, on the union
    of their supports; returns (rep, per-summand offsets, each over that
    summand's support).  The empty sum is the zero module."""
    if len(reps) == 1:  # one summand is its own sum
        return reps[0], [dict.fromkeys(reps[0].dims, 0)]
    dims, offsets = {}, []
    for r in reps:
        offsets.append({v: dims.get(v, 0) for v in r.dims})
        for v, d in r.dims.items():
            dims[v] = dims.get(v, 0) + d
    mats = {}
    amap = a.arrow_map
    for r, off in zip(reps, offsets):
        for name, x in r.mats.items():
            arr = amap[name]
            m = mats.get(name)
            if m is None:
                m = mats[name] = Matrix.zeros(fld, dims[arr.target],
                                              dims[arr.source])
            r0, c0 = off[arr.target], off[arr.source]
            for i, row in enumerate(x.rows):
                m.rows[r0 + i] = {c0 + j: y for j, y in row.items()}
    return Representation(a, fld, dims, mats), offsets


def walk_slots(w: StringWord):
    """The dimensions of the string module of w on its support, the walk's
    vertices, and the slot of each walk vertex within the space at its
    vertex."""
    dims = {}
    slots = []
    for v in w.vertices:
        slots.append(dims.get(v, 0))
        dims[v] = slots[-1] + 1
    return dims, slots


def string_module(a: GentleAlgebra, w: StringWord, field=QQ) -> Representation:
    """The representation with one basis vector per walk vertex; it
    stores the walk's vertices and the letters' arrows."""
    dims, slots = walk_slots(w)
    amap = a.arrow_map
    mats = {}
    for i, l in enumerate(w.letters):
        src, dst = (i, i + 1) if l.direct else (i + 1, i)
        m = mats.get(l.arrow)
        if m is None:
            arr = amap[l.arrow]
            m = mats[l.arrow] = Matrix.zeros(field, dims[arr.target],
                                             dims[arr.source])
        m.rows[slots[dst]][slots[src]] = 1
    return Representation(a, field, dims, mats)


@lru_cache(maxsize=None)
def projective_rep(a: GentleAlgebra, v: str, fld, /) -> Representation:
    """The indecomposable projective at v, as the string module of its
    word (gentle projectives are string modules)."""
    a.check_basis_size()
    return string_module(a, projective_word(a, v)[0], fld)


def regular_rep(a: GentleAlgebra, fld, /) -> Representation:
    """The regular module, the direct sum of every P_v in algebra order,
    built once per field in the algebra's memo."""
    regular = a.memo.get((fld, "regular"))
    if regular is None:
        regular = a.memo[fld, "regular"] = direct_sum(
            a, fld, [projective_rep(a, v, fld) for v in a.vertices])[0]
    return regular


def _hom_system(m: Representation, n: Representation):
    """Sparse commutation system for Hom(M, N): (rows, cells), a dict from
    unknown to coefficient per nonzero equation and the (vertex, N-row,
    M-column) cell of each unknown.  Every cell of the blocks B_v (N_v x
    M_v) where M and N are both nonzero is an unknown, row-major, vertices
    in algebra order, and each entry (i, j) of N_a B_s - B_t M_a, for each
    arrow a: s -> t, is an equation."""
    if m.algebra is not n.algebra and \
            m.algebra.presentation != n.algebra.presentation:
        raise ValueError("modules over different algebras")
    # every cell, row-major, and the index of each block's first cell
    offsets, where = {}, []
    for v in m.support:
        if n.dims.get(v):
            offsets[v] = len(where)
            where += [(v, i, k) for i in range(n.dims[v])
                      for k in range(m.dims[v])]
    if not offsets:
        return [], []
    pres = m.algebra.presentation
    p = m.field
    # equations of arrows with neither end among the blocks read 0 = 0
    arrows = [arr for v in offsets for arr in pres.arrows_out(v)]
    arrows += [arr for v in offsets for arr in pres.arrows_in(v)
               if arr.source not in offsets]
    equations = []
    for arr in arrows:
        s, t = arr.source, arr.target
        # an arrow that M or N does not store acts by 0
        na = n.mats.get(arr.name) if s in offsets else None
        ma = m.mats.get(arr.name) if t in offsets else None
        eqs = {}
        if na is not None:
            base, width = offsets[s], m.dims[s]
            for i, row in enumerate(na.rows):
                for k, c in row.items():
                    for j in range(width):
                        eqs.setdefault((i, j), {})[base + k * width + j] = c
        if ma is not None:
            base, width = offsets[t], m.dims[t]
            for k, row in enumerate(ma.rows):
                for j, c in row.items():
                    for i in range(n.dims[t]):
                        eq = eqs.setdefault((i, j), {})
                        idx = base + i * width + k
                        # a loop meets its own unknown from both sides
                        total = eq.pop(idx, 0) - c
                        if p:
                            total %= p
                        if total:
                            eq[idx] = total
        equations.extend(eq for eq in eqs.values() if eq)
    return equations, where


def hom_dim(m: Representation, n: Representation) -> int:
    rows, cells = _hom_system(m, n)
    if not cells:
        return 0
    return len(cells) - len(echelon(m.field, rows, len(cells), False)[1])


def _hom_vectors(m: Representation, n: Representation):
    """A basis of Hom(M, N) as sparse kernel vectors of its system, and
    the (vertex, row, column) block cell of every unknown."""
    rows, cells = _hom_system(m, n)
    if not cells:
        return [], []
    return list(kernel_vectors(m.field, rows, len(cells)).values()), cells


def isomorphism(x: Representation, y: Representation) -> ModuleMap | None:
    """An isomorphism x -> y, or None: the identity if x and y have equal
    content, else the first hom basis map that is one.  For indecomposable
    x, None decides: End(x) is local, so if x and y are isomorphic the
    non-isomorphisms x -> y form a proper subspace, which holds no basis."""
    if x.dims != y.dims:
        return None
    if x.mats == y.mats:
        return ModuleMap(x, y, {v: Matrix(x.field, d, d, [
            {i: 1} for i in range(d)]) for v, d in x.dims.items()})
    vectors, cells = _hom_vectors(x, y)
    for vec in vectors:
        f = ModuleMap(x, y, {v: Matrix.zeros(x.field, d, d)
                             for v, d in x.dims.items()})
        for idx, c in vec.items():
            v, i, k = cells[idx]
            f.blocks[v].rows[i][k] = c
        if f.is_isomorphism():
            return f
    return None


def top_generators(m: Representation):
    """Standard basis vectors completing the radical to all of M, as
    (vertex, index) pairs; they generate M and present its top.  A greedy
    completion picks e_c unless it lies in rad M_v + <e_0, ..., e_{c-1}>,
    that is, unless some radical vector has its last nonzero coordinate
    at c: the pivots of the echelon form of the columns of the arrows into
    v, which span the radical at v, with the coordinates reversed."""
    arrows_in = m.algebra.presentation.arrows_in
    gens = []
    for v in m.support:
        last = m.dims[v] - 1
        rows = [{last - i: x for i, x in col.items()}
                for arr in arrows_in(v) if arr.name in m.columns
                for col in m.columns[arr.name]]
        ends = {last - c for c in echelon(m.field, rows, last + 1, False)[1]}
        gens.extend((v, c) for c in range(last + 1) if c not in ends)
    return gens


def _subrepresentation(m: Representation, bases):
    """Subrepresentation spanned by per-vertex bases closed under the
    arrow actions.  A basis is a pair (vectors, positions) of sparse
    vectors and columns: vector r is 1 at positions[r] and 0 at every
    other listed position, so a vector of the span has its coordinates
    at those positions.  A vertex missing from bases has the zero
    subspace; the result stores only its nonzero dims and blocks."""
    a = m.algebra
    fld = m.field
    dims = {v: len(vectors) for v, (vectors, _) in bases.items() if vectors}
    mats = {}
    for name, mat in m.mats.items():
        arr = a.arrow_map[name]
        if arr.source not in dims:
            continue
        columns = mat.transpose().rows
        targets, positions = bases.get(arr.target, ((), ()))
        index = {c: r for r, c in enumerate(positions)}
        rows = [{} for _ in targets]
        for j, x in enumerate(bases[arr.source][0]):
            image = _combine(x, columns, fld)
            coords = {index[c]: y for c, y in image.items() if c in index}
            if _combine(coords, targets, fld) != image:
                raise InternalError("subspace not closed under arrow action")
            for r, c in coords.items():
                rows[r][j] = c
        if any(rows):
            mats[name] = Matrix(fld, len(rows), dims[arr.source], rows)
    return Representation(a, fld, dims, mats)


class Cover(NamedTuple):
    projective: Representation
    summands: tuple  # vertex per indecomposable summand
    pi: ModuleMap
    tops: tuple  # per summand, the column of its top at its vertex


def projective_cover(m: Representation) -> Cover:
    """Minimal projective cover built on a basis of the top."""
    a = m.algebra
    fld = m.field
    # an arrow maps the sparse vector x to the combination of its columns;
    # one that M does not store maps it to 0
    columns = m.columns
    gens = top_generators(m)
    p, offsets = direct_sum(a, fld,
                            [projective_rep(a, v, fld) for v, _ in gens])
    blocks = {v: Matrix.zeros(fld, m.dims.get(v, 0), d)
              for v, d in p.dims.items()}

    def image(x, arrow):
        return _combine(x, columns[arrow], fld) if arrow in columns else {}

    walks = {}  # vertex -> its projective's word, top and slots
    tops = []
    for (v, k), off in zip(gens, offsets):
        if v not in walks:
            word, top = projective_word(a, v)
            walks[v] = word, top, walk_slots(word)[1]
        word, top, slots = walks[v]
        # the generator sits on the top; every letter points away from it
        images = [None] * len(slots)
        images[top] = {k: 1}
        for i in range(top - 1, -1, -1):
            images[i] = image(images[i + 1], word.letters[i].arrow)
        for i in range(top, len(word)):
            images[i + 1] = image(images[i], word.letters[i].arrow)
        for w, slot, x in zip(word.vertices, slots, images):
            col = off[w] + slot
            for i, entry in x.items():
                blocks[w].rows[i][col] = entry
        tops.append(off[v] + slots[top])
    pi = ModuleMap(p, m, blocks)
    # surjectivity: generators were a basis of the top
    for v in m.support:
        if v not in blocks or blocks[v].rank() != m.dims[v]:
            raise InternalError("projective cover not surjective")
    return Cover(p, tuple(v for v, _ in gens), pi, tuple(tops))


def syzygy(cover: Cover) -> Representation:
    """Kernel of the minimal projective cover; zero for projectives.  The
    cover is onto, so it is bijective where P_v and M_v have equal dims.
    The kernel keeps its basis as its inclusion into the cover:
    ``inclusion[v][i]`` is basis vector i at v, a sparse vector in the
    cover's coordinates."""
    p, m = cover.projective, cover.pi.target
    kernels = {v: kernel_vectors(p.field, cover.pi.blocks[v].rows, p.dims[v])
               for v in p.support if p.dims[v] > m.dims.get(v, 0)}
    # minimality: the kernel lies in the radical of the cover, spanned by
    # every basis vector of the summands' words but their tops
    for v, col in zip(cover.summands, cover.tops):
        if any(col in x for x in kernels.get(v, {}).values()):
            raise InternalError("cover kernel escapes the radical")
    bases = {v: (list(k.values()), list(k)) for v, k in kernels.items()}
    omega = _subrepresentation(p, bases)
    omega.inclusion = {v: vectors for v, (vectors, _) in bases.items()}
    return omega


def resolution(m: Representation):
    """The minimal projective resolution of M, one (cover, syzygy) pair
    per step, stopping right after the first zero syzygy: the zero module
    has one step, its cover the empty sum."""
    while True:
        cover = projective_cover(m)
        m = syzygy(cover)
        yield cover, m
        if m.is_zero():
            return


def radical_summand_rep(a: GentleAlgebra, arrow_name: str, fld, /):
    """The left ideal generated by an arrow, as a string representation."""
    return string_module(a, radical_summand_string(a, arrow_name), fld)


class ExtProfile(NamedTuple):
    dims: list  # dims[i-1] = dim Ext^i(M, regular module)
    syzygy_dim_vectors: list
    status: str  # terminated | gorenstein | checked-to-bound

    @property
    def all_zero(self):
        return all(d == 0 for d in self.dims)

    @property
    def certified(self):
        """Every nonzero Ext^i(M, Lambda) is among the dims."""
        return self.status != "checked-to-bound"


def ext_profile(m: Representation, bound: int, coresolution: Coresolution,
                hom_m: int | None = None) -> ExtProfile:
    """dim Ext^i(M, Lambda) for i = 1..bound via dimension shifting along
    the minimal resolution: from 0 -> Omega X -> P -> X -> 0,

        dim Ext^1(X, Lambda) = h(Omega X) - h(P) + h(X),

    with h = dim Hom(-, Lambda), and Ext^i(M, -) = Ext^1(Omega^{i-1} M, -).
    Stops early only when a syzygy vanishes (status terminated).  The
    coresolution is gorenstein_dimension's, of length d: Ext^i(M, Lambda)
    = 0 for every i > d, so a profile reaching d is complete (status
    gorenstein).  Then X = Omega^{bound-1} M has Ext^{>=2}(X, Lambda) = 0,
    and the last step is h(X) - <dim X, euler> with no cover or kernel;
    Omega X has the dimension vector of the cover of X's top
    less that of X.  A caller that knows dim Hom(M, Lambda) passes it as
    hom_m."""
    check_bound(bound)
    a = m.algebra
    regular = regular_rep(a, m.field)
    dims = []
    dimvecs = [m.dim_vector()]
    hx = _hom_lambda(m) if hom_m is None else hom_m
    full = bound - 1 if bound >= coresolution.length else bound
    x, ended = m, False
    for cover, x in islice(resolution(m), full):
        # dim Hom(P_v, Lambda) = dim of Lambda at v
        hp = sum(regular.dims[v] for v in cover.summands)
        hx, hprev = _hom_lambda(x), hx
        dims.append(hx - hp + hprev)
        dimvecs.append(x.dim_vector())
        ended = x.is_zero()
    if not ended and len(dims) < bound:
        dims.append(hx - _pairing(x, coresolution.euler))
        tops = Counter()
        for v, _ in top_generators(x):
            tops.update(projective_rep(a, v, m.field).dims)
        omega = tuple(tops[u] - x.dims.get(u, 0) for u in a.vertices)
        dimvecs.append(omega)
        ended = not any(omega)
    if ended:
        dims.extend([0] * (bound - len(dims)))
        status = "terminated"
    else:
        status = "gorenstein" if bound >= coresolution.length \
            else "checked-to-bound"
    return ExtProfile(dims, dimvecs, status)


def check_bound(bound: int):
    """Refuse an Ext bound below 1."""
    if bound < 1:
        raise InputError("bound must be positive")


def _hom_lambda_system(m: Representation):
    """The system of Hom(M, Lambda) read off d^0: I^0 -> I^1, the first
    differential of the algebra's injective coresolution.  Hom(M, -) is
    left exact, so Hom(M, Lambda) is the kernel of Hom(M, I^0) -> Hom(M,
    I^1), that is of (+)_k D(M_{v_k}) -> (+)_j D(M_{w_j}): the unknowns
    are the coordinates of the functionals phi_k on M_{v_k}, and summand
    j of I^1 gives one equation per basis vector y of M_{w_j}, the sum of
    c phi_k(M(p) y) over its entries (k, p, c).  Returns (rows, cells),
    with cell (v_k, k, b) of each unknown, b the first unknown of phi_k:
    unknown b + i is coordinate i of phi_k."""
    a, p = m.algebra, m.field
    table = a.memo.get((p, "d0"))
    if table is None:
        table = a.memo[p, "d0"] = _injective_presentation(a, p)
    at, by_vertex = table
    cells, base = [], {}
    for v in m.support:
        for k in at.get(v, ()):
            base[k] = len(cells)
            cells += [(v, k, base[k])] * m.dims[v]
    if not cells:  # M vanishes at every vertex of I^0
        return [], cells
    columns = m.columns
    rows = []
    for w in m.support:
        for y in range(m.dims[w] if w in by_vertex else 0):
            images = {}  # path -> M(path) y, each path walked once
            for entries in by_vertex[w]:
                row = {}
                for k, path, c in entries:
                    if k not in base:
                        continue
                    x = images.get(path)
                    if x is None:
                        # walk y along the path, stopping at the first zero
                        x = {y: 1}
                        for arrow in path:
                            if not (x := _combine(x, columns[arrow], p)
                                    if arrow in columns else {}):
                                break
                        images[path] = x
                    b = base[k]
                    for i, z in x.items():
                        row[b + i] = row.get(b + i, 0) + c * z
                row = {i: r for i, z in row.items()
                       if (r := z % p if p else z)}
                if row:
                    rows.append(row)
    return rows, cells


def _hom_lambda(m: Representation) -> int:
    """dim Hom(M, Lambda)."""
    rows, cells = _hom_lambda_system(m)
    return len(cells) - len(echelon(m.field, rows, len(cells), False)[1])


def _pairing(m: Representation, euler) -> int:
    """<dim M, euler>, over the support of M."""
    index = m.algebra.vertex_index
    return sum(d * euler[index[v]] for v, d in m.dims.items())


def embedding_obstruction(m: Representation):
    """The dimension of the common kernel of all maps M -> Lambda, zero
    exactly when M embeds into a projective module, and dim Hom(M, Lambda).
    A map vanishes at x in M_w when its functionals phi_k vanish on M(q) x
    for every path q from w to v_k, so the common kernel is the largest
    submodule of M inside K, where K_w is cut out by the functionals of
    the Hom basis at v_k = w.  Pulling those back along M's arrows until
    no rank grows gives the annihilator of that submodule at each vertex."""
    p = m.field
    rows, cells = _hom_lambda_system(m)
    vectors = kernel_vectors(p, rows, len(cells)).values()
    functionals = {w: [] for w in m.support}
    for vec in vectors:
        parts = {}
        for idx, x in vec.items():
            v, k, b = cells[idx]
            parts.setdefault((v, k), {})[idx - b] = x
        for (v, _), phi in parts.items():
            functionals[v].append(phi)
    ranked = {w: fs and echelon(p, fs, m.dims[w], False)[0]
              for w, fs in functionals.items()}
    pending = [w for w, fs in ranked.items() if fs]
    arrows_in = m.algebra.presentation.arrows_in
    while pending:
        t = pending.pop()
        for arr in arrows_in(t):
            s = arr.source
            if arr.name not in m.mats or len(ranked[s]) == m.dims[s]:
                continue
            rows_t = m.mats[arr.name].rows
            pulled = [g for phi in ranked[t]
                      if (g := _combine(phi, rows_t, p))]
            grown = echelon(p, ranked[s] + pulled, m.dims[s], False)[0]
            if len(grown) > len(ranked[s]):
                ranked[s] = grown
                pending.append(s)
    return sum(m.dims[w] - len(fs) for w, fs in ranked.items()), len(vectors)


class Coresolution(NamedTuple):
    """The minimal injective coresolution 0 -> Lambda -> I^0 -> ... -> I^n
    -> 0 of the algebra over itself, by its length n, the injective
    dimension, and its Euler characteristic: euler[v] is the alternating
    sum over i of the multiplicity of I_v in I^i, in algebra order.  As
    dim Hom(X, I_v) = dim X_v, every module X has

        sum_i (-1)^i dim Ext^i(X, Lambda) = <dim X, euler>."""
    length: int
    euler: tuple

    @property
    def bound(self):
        """max(n, 1): a GP test checks Ext^i(M, Lambda) for 1 <= i <=
        bound, and Ext^1 even over a selfinjective algebra."""
        return max(self.length, 1)


def _injective_dimension_bound(a: GentleAlgebra) -> int:
    """|Q_1|: Geiss-Reiten bound id Lambda by max(1, the longest path of
    relations on no cycle of relations), and by G3 it repeats no arrow."""
    return len(a.arrows)


def injective_coresolution(a: GentleAlgebra, fld=QQ) -> Coresolution:
    """The algebra's injective coresolution over itself, read off the
    minimal projective resolution of the dual of the regular module over
    the opposite algebra: the dual of the projective at v over it is the
    injective I_v.  A resolution longer than the bound on the injective
    dimension is a bug, not a feature of the input."""
    regular = regular_rep(a, fld)
    dual_mats = {name: m.transpose() for name, m in regular.mats.items()}
    x = Representation(a.opposite, fld, regular.dims, dual_mats)
    euler = dict.fromkeys(a.vertices, 0)
    bound = _injective_dimension_bound(a)
    tops = []
    for length, (cover, _) in enumerate(islice(resolution(x), bound + 2)):
        for v in cover.summands:
            euler[v] += -1 if length % 2 else 1
        if length == 0:
            first = cover.summands
        elif length == 1:
            # the top of each summand maps to a basis vector of the first
            # syzygy, whose inclusion reads it in the first cover
            inclusion, blocks = cover.pi.target.inclusion, cover.pi.blocks
            tops = [(w, inclusion[w][next(i for i, row in enumerate(
                blocks[w].rows) if col in row)])
                for w, col in zip(cover.summands, cover.tops)]
    a.memo[fld, "d0 tops"] = first, tops
    if length > bound:
        raise InternalError(
            "resolution of the dual regular module exceeded "
            f"{bound + 1} steps; an injective dimension above {bound}, "
            "the number of arrows, breaks the Geiss-Reiten bound")
    return Coresolution(length, tuple(euler.values()))


def _injective_presentation(a: GentleAlgebra, fld):
    """d^0: I^0 -> I^1 read as paths, from the first two covers of the
    dual of the regular module over the opposite algebra, which
    injective_coresolution keeps: the vertices v_k of I^0 = (+)_k I_{v_k},
    and per vertex w the summands I_w of I^1, each a list of entries
    (k, p, c).  The top of such a summand maps to the sum of c times the
    path p, from w to v_k, in the first cover, the sum of the projectives
    at v_k over the opposite algebra, whose words' letters point away
    from their tops there and towards them here."""
    if (fld, "d0 tops") not in a.memo:
        injective_coresolution(a, fld)
    first, tops = a.memo[fld, "d0 tops"]
    # the first cover lists its summands by vertex, as top_generators
    # finds them, and at w a summand at v holds the walk positions at w of
    # the word of the projective at v over the opposite algebra
    at = {v: [k for k, _ in run]
          for v, run in groupby(enumerate(first), key=itemgetter(1))}
    words, walks = {}, {}
    for v in at:
        words[v] = projective_word(a.opposite, v)
        walks[v] = positions = {}
        for i, u in enumerate(words[v][0].vertices):
            positions.setdefault(u, []).append(i)
    by_vertex = {}
    for w, vector in tops:
        entries = []
        for col, c in vector.items():
            for v, ks in at.items():
                slots = walks[v].get(w, ())
                if col < len(ks) * len(slots):
                    break
                col -= len(ks) * len(slots)
            k, i = ks[col // len(slots)], slots[col % len(slots)]
            word, top = words[v]
            letters = word.letters[i:top] if i < top \
                else word.letters[top:i][::-1]
            entries.append((k, tuple(l.arrow for l in letters), c))
        by_vertex.setdefault(w, []).append(entries)
    return at, by_vertex


def injective_dimension(a: GentleAlgebra, fld=QQ) -> int:
    """Injective dimension of the algebra over itself."""
    return injective_coresolution(a, fld).length


def gorenstein_dimension(a: GentleAlgebra, fld=QQ) -> Coresolution:
    """The algebra's injective coresolution over itself, whose length is
    the common injective dimension d on either side: gentle algebras are
    Iwanaga-Gorenstein (Geiss-Reiten), and two finite values agree (Zaks).
    Over such an algebra M is Gorenstein-projective iff Ext^i(M, Lambda)
    = 0 for 1 <= i <= d.  Ext^{>=1}(P_v, Lambda) = 0, so the Euler
    characteristic must give dim Hom(P_v, Lambda), the dimension of
    Lambda at v, for every v."""
    left = injective_coresolution(a, fld)
    right = injective_coresolution(a.opposite, fld).length
    if left.length != right:
        raise InternalError(
            f"injective dimensions {left.length} and {right} of the "
            "algebra and its opposite differ")
    regular = regular_rep(a, fld)
    for v in a.vertices:
        if _pairing(projective_rep(a, v, fld), left.euler) != \
                regular.dims[v]:
            raise InternalError(
                "the Euler characteristic of the injective coresolution "
                f"gives the wrong dim Hom(P_{v}, Lambda)")
    return left
