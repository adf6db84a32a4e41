"""Representations of a gentle algebra and the homological toolbox:
hom spaces, tops and radicals, projective covers, syzygies, Ext against
the regular module, stable homs, and the submodule-of-projective
obstruction."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .gentle import GentleAlgebra, radical_summand_word
from .linalg import Matrix, QQ
from .quiver import PresentationError


class Representation:
    """Finite dimensional left module: a matrix per arrow."""

    def __init__(self, algebra: GentleAlgebra, fld, dims, mats, check=True):
        self.algebra = algebra
        self.field = fld
        self.dims = dict(dims)
        self.mats = dict(mats)
        if check:
            self._check()

    def _check(self):
        amap = self.algebra.arrow_map
        for name, m in self.mats.items():
            a = amap[name]
            if (m.nrows, m.ncols) != (self.dims[a.target], self.dims[a.source]):
                raise ValueError(f"arrow {name}: matrix shape mismatch")
        for later, earlier in self.algebra.relations:
            prod = self.mats[later].mul(self.mats[earlier])
            if not prod.is_zero():
                raise ValueError(
                    f"relation {later}*{earlier} not satisfied")

    @property
    def total_dim(self):
        return sum(self.dims.values())

    def dim_vector(self):
        return tuple(self.dims[v] for v in self.algebra.vertices)

    def is_zero(self):
        return self.total_dim == 0


@dataclass
class ModuleMap:
    source: Representation
    target: Representation
    blocks: dict

    def check(self):
        for arr in self.source.algebra.arrows:
            lhs = self.target.mats[arr.name].mul(self.blocks[arr.source])
            rhs = self.blocks[arr.target].mul(self.source.mats[arr.name])
            if lhs.sub(rhs).is_zero() is False:
                raise ValueError(f"map does not commute with arrow {arr.name}")

    def flatten(self):
        """Entries in a fixed order, for rank computations on hom spaces."""
        out = []
        for v in self.source.algebra.vertices:
            for row in self.blocks[v].rows:
                out.extend(row)
        return out


def zero_representation(a: GentleAlgebra, fld=QQ) -> Representation:
    dims = {v: 0 for v in a.vertices}
    mats = {arr.name: Matrix.zeros(fld, 0, 0) for arr in a.arrows}
    return Representation(a, fld, dims, mats, check=False)


def direct_sum(reps):
    """Block-diagonal direct sum; returns (rep, per-summand offsets)."""
    if not reps:
        raise ValueError("empty direct sum needs an algebra; use zero_representation")
    a = reps[0].algebra
    fld = reps[0].field
    dims = {v: sum(r.dims[v] for r in reps) for v in a.vertices}
    offsets = []
    running = {v: 0 for v in a.vertices}
    for r in reps:
        offsets.append(dict(running))
        for v in a.vertices:
            running[v] += r.dims[v]
    mats = {}
    for arr in a.arrows:
        m = Matrix.zeros(fld, dims[arr.target], dims[arr.source])
        for r, off in zip(reps, offsets):
            block = r.mats[arr.name]
            r0, c0 = off[arr.target], off[arr.source]
            for i in range(block.nrows):
                for j in range(block.ncols):
                    m.rows[r0 + i][c0 + j] = block.rows[i][j]
        mats[arr.name] = m
    return Representation(a, fld, dims, mats, check=False), offsets


@lru_cache(maxsize=None)
def _projective_data(a: GentleAlgebra, v: str):
    """Basis paths of the projective at v, with per-vertex slot indices."""
    if v not in a.vertices:
        raise PresentationError(f"unknown vertex {v!r}")
    paths = a.basis_paths_from(v)
    slot = {}
    counts = {w: 0 for w in a.vertices}
    for p in paths:
        slot[p] = counts[p.target]
        counts[p.target] += 1
    return tuple(paths), slot, counts


@lru_cache(maxsize=None)
def projective_rep(a: GentleAlgebra, v: str, fld=QQ) -> Representation:
    """The indecomposable projective at v: basis paths starting at v,
    arrows acting by composition."""
    paths, slot, counts = _projective_data(a, v)
    mats = {arr.name: Matrix.zeros(fld, counts[arr.target], counts[arr.source])
            for arr in a.arrows}
    for p in paths:
        for arr in a.presentation.arrows_out(p.target):
            q = a.left_multiply(arr.name, p)
            if q is not None:
                mats[arr.name].rows[slot[q]][slot[p]] = fld.one
    return Representation(a, fld, {w: counts[w] for w in a.vertices}, mats,
                          check=False)


def regular_rep_mats(a: GentleAlgebra, fld=QQ):
    """The left regular module as the direct sum of the indecomposable
    projectives; returns (dims, mats)."""
    regular, _ = direct_sum([projective_rep(a, v, fld) for v in a.vertices])
    return regular.dims, regular.mats


def regular_dim_at(a: GentleAlgebra, v: str) -> int:
    """dim Hom(P_v, A): the number of basis paths ending at v."""
    return sum(1 for p in a.path_basis if p.target == v)


def _hom_system(m: Representation, n: Representation):
    """Coefficient matrix of the commutation system for Hom(M, N).

    Unknowns: entries of the per-vertex blocks B_v (shape N_v x M_v),
    flattened row-major, vertices in algebra order."""
    a = m.algebra
    fld = m.field
    offsets = {}
    total = 0
    for v in a.vertices:
        offsets[v] = total
        total += n.dims[v] * m.dims[v]
    rows = []
    z = fld.zero
    for arr in a.arrows:
        s, t = arr.source, arr.target
        Na = n.mats[arr.name]
        Ma = m.mats[arr.name]
        # (Na @ B_s - B_t @ Ma)[i][j] = 0 for all i < N_t, j < M_s
        for i in range(n.dims[t]):
            for j in range(m.dims[s]):
                row = [z] * total
                for k in range(n.dims[s]):
                    c = Na.rows[i][k]
                    if c != z:
                        row[offsets[s] + k * m.dims[s] + j] = fld.add(
                            row[offsets[s] + k * m.dims[s] + j], c)
                for k in range(m.dims[t]):
                    c = Ma.rows[k][j]
                    if c != z:
                        idx = offsets[t] + i * m.dims[t] + k
                        row[idx] = fld.sub(row[idx], c)
                rows.append(row)
    return Matrix(fld, len(rows), total, rows), offsets, total


def hom_dim(m: Representation, n: Representation) -> int:
    if m.algebra is not n.algebra and \
            m.algebra.presentation != n.algebra.presentation:
        raise ValueError("modules over different algebras")
    system, _, total = _hom_system(m, n)
    if total == 0:
        return 0
    return total - system.rank()


def hom_basis(m: Representation, n: Representation):
    if m.algebra is not n.algebra and \
            m.algebra.presentation != n.algebra.presentation:
        raise ValueError("modules over different algebras")
    system, offsets, total = _hom_system(m, n)
    a = m.algebra
    fld = m.field
    if total == 0:
        return []
    ker = system.kernel_basis()
    maps = []
    for j in range(ker.ncols):
        vec = ker.column_vector(j)
        blocks = {}
        for v in a.vertices:
            b = Matrix.zeros(fld, n.dims[v], m.dims[v])
            base = offsets[v]
            for i in range(n.dims[v]):
                for k in range(m.dims[v]):
                    b.rows[i][k] = vec[base + i * m.dims[v] + k]
            blocks[v] = b
        maps.append(ModuleMap(m, n, blocks))
    return maps


def radical_bases(m: Representation):
    """Per-vertex basis of the radical: the sum of all arrow images."""
    a = m.algebra
    fld = m.field
    out = {}
    for v in a.vertices:
        images = [m.mats[arr.name] for arr in a.presentation.arrows_in(v)]
        if images:
            out[v] = Matrix.hstack(fld, images).column_space_basis()
        else:
            out[v] = Matrix.zeros(fld, m.dims[v], 0)
    return out


def top_generators(m: Representation):
    """Standard basis vectors completing the radical to all of M, as
    (vertex, vector) pairs; they generate M and present its top."""
    a = m.algebra
    fld = m.field
    rad = radical_bases(m)
    gens = []
    for v in a.vertices:
        # the radical basis is independent, so the pivot columns past it
        # are the standard vectors a greedy completion would pick
        basis = Matrix.hstack(fld, [rad[v], Matrix.identity(fld, m.dims[v])])
        basis = basis.column_space_basis()
        gens.extend((v, basis.column_vector(j))
                    for j in range(rad[v].ncols, basis.ncols))
    return gens, rad


def top_and_radical(m: Representation):
    """(top representation, radical subrepresentation, radical inclusion).

    The top is semisimple, so its arrow actions are all zero."""
    a = m.algebra
    fld = m.field
    gens, rad = top_generators(m)
    top_dims = {v: 0 for v in a.vertices}
    for v, _ in gens:
        top_dims[v] += 1
    top = Representation(
        a, fld, top_dims,
        {arr.name: Matrix.zeros(fld, top_dims[arr.target],
                                top_dims[arr.source])
         for arr in a.arrows}, check=False)
    rad_rep, incl = _subrepresentation(m, rad)
    return top, rad_rep, incl


def _subrepresentation(m: Representation, bases):
    """Subrepresentation spanned by per-vertex bases closed under the
    arrow actions; returns (rep, inclusion map)."""
    a = m.algebra
    fld = m.field
    dims = {v: bases[v].ncols for v in a.vertices}
    mats = {}
    for arr in a.arrows:
        mapped = m.mats[arr.name].mul(bases[arr.source])
        block = bases[arr.target].solve(mapped)
        if block is None:
            raise ValueError("subspace not closed under arrow action")
        mats[arr.name] = block
    sub = Representation(a, fld, dims, mats, check=False)
    incl = ModuleMap(sub, m, {v: bases[v] for v in a.vertices})
    return sub, incl


@dataclass
class Cover:
    projective: Representation
    summands: tuple  # vertex per indecomposable summand
    pi: ModuleMap


def projective_cover(m: Representation) -> Cover:
    """Minimal projective cover built on a basis of the top."""
    a = m.algebra
    fld = m.field
    gens, rad = top_generators(m)
    if not gens:
        p = zero_representation(a, fld)
        pi = ModuleMap(p, m, {v: Matrix.zeros(fld, m.dims[v], 0)
                              for v in a.vertices})
        return Cover(p, (), pi)
    summand_reps = [projective_rep(a, v, fld) for v, _ in gens]
    p, offsets = direct_sum(summand_reps)
    blocks = {v: Matrix.zeros(fld, m.dims[v], p.dims[v]) for v in a.vertices}
    for (v, x), off in zip(gens, offsets):
        paths, slot, _ = _projective_data(a, v)
        # paths come shortest first, so every prefix has its image already
        images = {(): Matrix.column(fld, x)}
        for q in paths:
            if q.arrows:
                images[q.arrows] = m.mats[q.arrows[-1]].mul(
                    images[q.arrows[:-1]])
            w = q.target
            col = off[w] + slot[q]
            for i, (entry,) in enumerate(images[q.arrows].rows):
                blocks[w].rows[i][col] = entry
    pi = ModuleMap(p, m, blocks)
    # surjectivity: generators were a basis of the top
    for v in a.vertices:
        if blocks[v].rank() != m.dims[v]:
            raise AssertionError("projective cover not surjective")
    return Cover(p, tuple(v for v, _ in gens), pi)


def syzygy(m: Representation, cover: Cover | None = None) -> Representation:
    """Kernel of the minimal projective cover; zero for projectives."""
    if cover is None:
        cover = projective_cover(m)
    a = m.algebra
    fld = m.field
    kernels = {v: cover.pi.blocks[v].kernel_basis() for v in a.vertices}
    sub, incl = _subrepresentation(cover.projective, kernels)
    # minimality: the kernel must sit inside the radical of the cover
    rad = radical_bases(cover.projective)
    for v in a.vertices:
        if rad[v].solve(kernels[v]) is None:
            raise AssertionError("cover kernel escapes the radical")
    return sub


def is_projective(m: Representation) -> bool:
    return syzygy(m).is_zero()


def hom_profile(m: Representation):
    """dim Hom(M, P_v) for every vertex v, in algebra order."""
    a = m.algebra
    return tuple(hom_dim(m, projective_rep(a, v, m.field))
                 for v in a.vertices)


@lru_cache(maxsize=None)
def radical_summand_rep(a: GentleAlgebra, arrow_name: str, fld=QQ):
    """The left ideal generated by an arrow, as a string representation."""
    from .strings import directed_word, string_module

    arr = a.arrow_map[arrow_name]
    word = directed_word(a, arr.target, radical_summand_word(a, arrow_name))
    return string_module(a, word, fld)


def module_signature(m: Representation):
    """Iso-class fingerprint: dimension vector plus hom dimensions against
    every indecomposable projective and every radical summand.  Separates
    the finitely many modules this library names."""
    a = m.algebra
    rad_profile = tuple(hom_dim(m, radical_summand_rep(a, arr.name, m.field))
                        for arr in a.arrows)
    return (m.dim_vector(), hom_profile(m), rad_profile)


@dataclass
class ExtProfile:
    dims: list          # dims[i-1] = dim Ext^i(M, regular module)
    syzygy_dim_vectors: list
    period: int | None
    status: str         # terminated | periodic | checked-to-bound

    @property
    def all_zero(self):
        return all(d == 0 for d in self.dims)

    @property
    def certified(self):
        return self.status in ("terminated", "periodic")


def ext_profile(m: Representation, bound: int) -> ExtProfile:
    """dim Ext^i(M, Lambda) for i = 1..bound via dimension shifting along
    the minimal resolution: from 0 -> Omega X -> P -> X -> 0,

        dim Ext^1(X, Lambda) = h(Omega X) - h(P) + h(X),

    with h = dim Hom(-, Lambda), and Ext^i(M, -) = Ext^1(Omega^{i-1} M, -).
    Stops early when a syzygy vanishes (finite projective dimension) or a
    syzygy signature repeats (periodicity certificate)."""
    if bound < 1:
        raise ValueError("bound must be positive")
    a = m.algebra
    dims = []
    dimvecs = [m.dim_vector()]
    seen = {module_signature(m): 0}
    x = m
    hx = sum(hom_profile(x))
    period = None
    status = "checked-to-bound"
    for i in range(1, bound + 1):
        cover = projective_cover(x)
        omega = syzygy(x, cover)
        hp = sum(regular_dim_at(a, v) for v in cover.summands)
        homega = sum(hom_profile(omega))
        dims.append(homega - hp + hx)
        dimvecs.append(omega.dim_vector())
        if omega.is_zero():
            dims.extend([0] * (bound - i))
            status = "terminated"
            break
        sig = module_signature(omega)
        if sig in seen:
            period = i - seen[sig]
            status = "periodic"
            while len(dims) < bound:
                dims.append(dims[len(dims) - period])
            break
        seen[sig] = i
        x = omega
        hx = homega
    return ExtProfile(dims, dimvecs, period, status)


def embedding_obstruction(m: Representation) -> int:
    """Dimension of the common kernel of all maps to indecomposable
    projectives; zero exactly when M embeds into a projective module."""
    a = m.algebra
    fld = m.field
    maps = []
    for v in a.vertices:
        maps.extend(hom_basis(m, projective_rep(a, v, fld)))
    total = 0
    for w in a.vertices:
        if m.dims[w] == 0:
            continue
        blocks = [f.blocks[w] for f in maps]
        if not blocks:
            total += m.dims[w]
            continue
        stacked = Matrix.vstack(fld, blocks)
        total += m.dims[w] - stacked.rank()
    return total


def stable_hom_dim(m: Representation, n: Representation) -> int:
    """dim of Hom(M, N) modulo maps factoring through a projective; a map
    factors through some projective iff it lifts along the cover of N."""
    homs = hom_basis(m, n)
    if not homs:
        return 0
    cover = projective_cover(n)
    through = hom_basis(m, cover.projective)
    if not through:
        return len(homs)
    fld = m.field
    composed = []
    for g in through:
        blocks = {v: cover.pi.blocks[v].mul(g.blocks[v])
                  for v in m.algebra.vertices}
        composed.append(ModuleMap(m, n, blocks).flatten())
    image = Matrix.from_rows(fld, composed)
    return len(homs) - image.rank()


def injective_dimension(a: GentleAlgebra, fld=QQ, cap: int = 64) -> int:
    """Injective dimension of the algebra over itself, computed as the
    projective dimension of the dual of the regular module over the
    opposite algebra.  Finite for gentle algebras; exceeding the cap is a
    bug, not a feature of the input."""
    from .gentle import validate_gentle
    from .quiver import opposite

    aop = validate_gentle(opposite(a.presentation))
    counts, mats = regular_rep_mats(a, fld)
    dual_mats = {name: m.transpose() for name, m in mats.items()}
    dual = Representation(aop, fld, counts, dual_mats)
    if dual.is_zero():
        return 0
    x = dual
    steps = 0
    while not x.is_zero():
        x = syzygy(x)
        steps += 1
        if steps > cap:
            raise AssertionError(
                f"resolution of the dual regular module exceeded {cap} steps; "
                "this contradicts finiteness of the injective dimension")
    return steps - 1
