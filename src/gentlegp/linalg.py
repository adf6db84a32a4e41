"""Exact linear algebra over the rationals or a prime field.

No floating point anywhere; ranks and kernels are exact, so there are no
tolerances to tune.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .quiver import InputError


class Rationals:
    """The field of rational numbers, backed by fractions.Fraction."""

    name = "Q"
    p = 0  # the characteristic; a prime field keeps its own as p
    zero = Fraction(0)
    one = Fraction(1)

    def of(self, x):
        return Fraction(x)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def div(self, a, b):
        return a / b

    def neg(self, a):
        return -a

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("Q")

    def __repr__(self):
        return "QQ"


class PrimeField:
    """F_p for a prime p; elements are ints in range(p)."""

    zero = 0
    one = 1

    def __init__(self, p):
        if p < 2 or any(p % d == 0 for d in range(2, int(p ** 0.5) + 1)):
            raise InputError(f"{p} is not prime")
        self.p = p
        self.name = f"F{p}"

    def of(self, x):
        return int(x) % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def div(self, a, b):
        return (a * pow(b, -1, self.p)) % self.p

    def neg(self, a):
        return (-a) % self.p

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("F", self.p))

    def __repr__(self):
        return f"GF({self.p})"


QQ = Rationals()


def parse_field(spec: str):
    """Parse a field spec: 'q' for rationals, 'f5' / 'F5' for a prime field."""
    s = spec.strip().lower()
    if s in ("q", "qq", "rationals"):
        return QQ
    if s.startswith("f") and s[1:].isdigit():
        return PrimeField(int(s[1:]))
    raise InputError(f"unrecognized field spec {spec!r}")


class Matrix:
    """Dense matrix over an exact field; 0xN and Nx0 shapes are legal."""

    __slots__ = ("field", "nrows", "ncols", "rows")

    def __init__(self, field, nrows, ncols, rows):
        self.field = field
        self.nrows = nrows
        self.ncols = ncols
        self.rows = rows

    @classmethod
    def zeros(cls, field, nrows, ncols):
        z = field.zero
        return cls(field, nrows, ncols, [[z] * ncols for _ in range(nrows)])

    @classmethod
    def identity(cls, field, n):
        m = cls.zeros(field, n, n)
        for i in range(n):
            m.rows[i][i] = field.one
        return m

    @classmethod
    def from_rows(cls, field, rows):
        rows = [[field.of(x) for x in r] for r in rows]
        ncols = len(rows[0]) if rows else 0
        if any(len(r) != ncols for r in rows):
            raise ValueError("rows of unequal length")
        return cls(field, len(rows), ncols, rows)

    @classmethod
    def column(cls, field, entries):
        return cls(field, len(entries), 1, [[field.of(x)] for x in entries])

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.field == other.field
                and self.nrows == other.nrows and self.ncols == other.ncols
                and self.rows == other.rows)

    def __repr__(self):
        return f"Matrix({self.nrows}x{self.ncols} over {self.field!r})"

    def is_zero(self):
        z = self.field.zero
        return all(x == z for row in self.rows for x in row)

    def mul(self, other):
        if self.ncols != other.nrows:
            raise ValueError(
                f"shape mismatch: {self.ncols} cols vs {other.nrows} rows")
        F = self.field
        p = F.p
        zeros = [F.zero] * other.ncols
        # the nonzero rows of other, each as its nonzero (column, entry) pairs
        brows = [(k, [(j, b) for j, b in enumerate(row) if b])
                 for k, row in enumerate(other.rows) if any(row)]
        out = []
        for srow in self.rows:
            acc = zeros[:]
            for k, nz in brows:
                a = srow[k]
                if a:
                    for j, b in nz:
                        acc[j] += a * b
            out.append([x % p for x in acc] if p and acc != zeros else acc)
        return Matrix(F, self.nrows, other.ncols, out)

    def transpose(self):
        return Matrix(self.field, self.ncols, self.nrows,
                      [list(col) for col in zip(*self.rows)]
                      if self.nrows else [[] for _ in range(self.ncols)])

    @classmethod
    def hstack(cls, field, mats):
        mats = list(mats)
        if not mats:
            return cls.zeros(field, 0, 0)
        nrows = mats[0].nrows
        if any(m.nrows != nrows for m in mats):
            raise ValueError("hstack: row counts differ")
        rows = [sum((m.rows[i] for m in mats), []) for i in range(nrows)]
        return cls(field, nrows, sum(m.ncols for m in mats), rows)

    @classmethod
    def vstack(cls, field, mats):
        mats = list(mats)
        if not mats:
            return cls.zeros(field, 0, 0)
        ncols = mats[0].ncols
        if any(m.ncols != ncols for m in mats):
            raise ValueError("vstack: column counts differ")
        rows = [row[:] for m in mats for row in m.rows]
        return cls(field, len(rows), ncols, rows)

    def column_vector(self, j):
        return [self.rows[i][j] for i in range(self.nrows)]

    def _sparse(self, rhs=()):
        """Rows of [self | rhs] as dicts from column to nonzero entry."""
        rows = map(list.__add__, self.rows, rhs) if rhs else self.rows
        return [{j: x for j, x in enumerate(row) if x} for row in rows]

    def rank(self):
        return len(echelon(self.field, self._sparse(), self.ncols, False)[1])

    def kernel_basis(self):
        """Matrix whose columns form a basis of the null space."""
        vectors = kernel_vectors(self.field, self._sparse(), self.ncols)
        out = Matrix.zeros(self.field, self.ncols, len(vectors))
        for k, vec in enumerate(vectors):
            for i, x in vec.items():
                out.rows[i][k] = x
        return out

    def solve(self, b):
        """Solve self @ X = b, where b is a column vector given as a list or
        a Matrix of right-hand sides; X has the same kind as b.  None if
        some column has no solution."""
        F = self.field
        vector = not isinstance(b, Matrix)
        rhs = [[F.of(x)] for x in b] if vector else b.rows
        if len(rhs) != self.nrows:
            raise ValueError("dimension mismatch in solve")
        n = self.ncols
        prows, pivots, rest = echelon(F, self._sparse(rhs), n)
        if rest:
            return None
        width = 1 if vector else b.ncols
        x = [[F.zero] * width for _ in range(n)]
        for prow, pc in zip(prows, pivots):
            for j, v in prow.items():
                if j >= n:
                    x[pc][j - n] = v
        if vector:
            return [row[0] for row in x]
        return Matrix(F, n, width, x)

    def column_space_basis(self):
        """Columns of self restricted to a maximal independent subset."""
        pivots = echelon(self.field, self._sparse(), self.ncols, False)[1]
        return Matrix(self.field, self.nrows, len(pivots),
                      [[row[j] for j in pivots] for row in self.rows])


def echelon(field, rows, npiv, reduced=True):
    """Echelon form of sparse rows, dicts from column to nonzero entry
    that it may change.  Pivots are sought before column ``npiv``; later
    columns (right-hand sides) ride along.  Returns (pivot rows, increasing
    pivot columns, the other nonzero rows, whose entries all lie past
    ``npiv``); with ``reduced``, those of the unique reduced echelon form.

    Over F_p the row operations are on plain ints mod p.  Over Q they are
    fraction-free on integer rows, with fractions only in the reduced
    pivot rows scaled to 1 at the end."""
    p = field.p
    by_lead = {}  # lead column -> rows starting there
    for r in rows:
        if r:
            r = r if p else _integral(r)
            by_lead.setdefault(min(r), []).append(r)
    prows, pivots = [], []
    while by_lead:
        c = min(by_lead)
        if c >= npiv:
            break
        group = by_lead.pop(c)
        prow = group.pop()
        if p and prow[c] != 1:
            inv = pow(prow[c], -1, p)
            prow = {j: v * inv % p for j, v in prow.items()}
        # only rows leading at c meet column c, so only their leads move
        for r in group:
            _clear(r, prow, c, p)
            if r:
                by_lead.setdefault(min(r), []).append(r)
        prows.append(prow)
        pivots.append(c)
    rest = [r for group in by_lead.values() for r in group] if by_lead else []
    if reduced:
        for k in range(len(pivots) - 1, 0, -1):
            c = pivots[k]
            for r in prows[:k]:
                if c in r:
                    _clear(r, prows[k], c, p)
        if not p:
            prows = [{j: Fraction(v, r[c]) for j, v in r.items()}
                     for r, c in zip(prows, pivots)]
    return prows, pivots, rest


def _integral(row):
    """A row of rationals times the lcm of their denominators."""
    den = 1
    for x in row.values():
        if x.denominator != 1:
            den = lcm(den, x.denominator)
    return {j: x.numerator * den // x.denominator for j, x in row.items()}


def _clear(r, s, c, p):
    """Clear column c of row r, in place, with the pivot row s, by
    r <- a*r - b*s: over F_p s[c] is 1 and a = 1, over Q the integer row r
    ends up without a common factor."""
    g = 1 if p else gcd(s[c], r[c])
    a, b = s[c] // g, r[c] // g
    if a != 1:
        for j in r:
            r[j] *= a
    for j, v in s.items():
        w = (r.get(j, 0) - b * v) % p if p else r.get(j, 0) - b * v
        if w:
            r[j] = w
        else:
            del r[j]
    g = 1 if p else gcd(*r.values())
    if g > 1:
        for j in r:
            r[j] //= g


def kernel_vectors(field, rows, ncols):
    """A basis of the null space of sparse rows, as dicts from column to
    nonzero entry: one per free column, in order, with 1 there."""
    prows, pivots, _ = echelon(field, rows, ncols)
    pivot_set = set(pivots)
    vectors = {c: {c: field.one} for c in range(ncols) if c not in pivot_set}
    for prow, pc in zip(prows, pivots):
        for j, v in prow.items():
            if j != pc:
                vectors[j][pc] = field.neg(v)
    return list(vectors.values())


def intersect_subspaces(bases) -> Matrix:
    """Basis of the intersection of column spans (equal ambient dimension)."""
    bases = list(bases)
    if not bases:
        raise ValueError("need at least one subspace")
    field = bases[0].field
    n = bases[0].nrows
    if any(b.nrows != n for b in bases):
        raise ValueError("ambient dimensions differ")
    cur = bases[0]
    for nxt in bases[1:]:
        if cur.ncols == 0 or nxt.ncols == 0:
            return Matrix.zeros(field, n, 0)
        # solve cur x = nxt y, i.e. [cur | -nxt] (x,y)^T = 0
        neg = Matrix(field, n, nxt.ncols,
                     [[field.neg(x) for x in row] for row in nxt.rows])
        ker = Matrix.hstack(field, [cur, neg]).kernel_basis()
        xpart = Matrix(field, cur.ncols, ker.ncols,
                       [ker.rows[i][:] for i in range(cur.ncols)])
        cur = cur.mul(xpart).column_space_basis()
    return cur
