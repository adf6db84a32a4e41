"""Exact linear algebra over the rationals or a prime field.

No floating point anywhere; ranks and kernels are exact, so there are no
tolerances to tune.
"""

from __future__ import annotations

from fractions import Fraction


class Rationals:
    """The field of rational numbers, backed by fractions.Fraction."""

    name = "Q"

    def of(self, x):
        return Fraction(x)

    @property
    def zero(self):
        return Fraction(0)

    @property
    def one(self):
        return Fraction(1)

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

    def __init__(self, p):
        if p < 2 or any(p % d == 0 for d in range(2, int(p ** 0.5) + 1)):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.name = f"F{p}"

    def of(self, x):
        return int(x) % self.p

    @property
    def zero(self):
        return 0

    @property
    def one(self):
        return 1

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
    raise ValueError(f"unrecognized field spec {spec!r}")


class Matrix:
    """Dense matrix over an exact field; 0xN and Nx0 shapes are legal."""

    __slots__ = ("field", "nrows", "ncols", "rows")

    def __init__(self, field, nrows, ncols, rows):
        self.field = field
        self.nrows = nrows
        self.ncols = ncols
        self.rows = rows
        assert len(rows) == nrows and all(len(r) == ncols for r in rows)

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
        return cls(field, len(rows), ncols, rows)

    @classmethod
    def column(cls, field, entries):
        return cls(field, len(entries), 1, [[field.of(x)] for x in entries])

    def copy(self):
        return Matrix(self.field, self.nrows, self.ncols,
                      [row[:] for row in self.rows])

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
        z = F.zero
        out = [[z] * other.ncols for _ in range(self.nrows)]
        for i in range(self.nrows):
            srow = self.rows[i]
            orow = out[i]
            for k in range(self.ncols):
                a = srow[k]
                if a == z:
                    continue
                brow = other.rows[k]
                for j in range(other.ncols):
                    b = brow[j]
                    if b != z:
                        orow[j] = F.add(orow[j], F.mul(a, b))
        return Matrix(F, self.nrows, other.ncols, out)

    def add(self, other):
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch in add")
        F = self.field
        return Matrix(F, self.nrows, self.ncols,
                      [[F.add(a, b) for a, b in zip(r1, r2)]
                       for r1, r2 in zip(self.rows, other.rows)])

    def sub(self, other):
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch in sub")
        F = self.field
        return Matrix(F, self.nrows, self.ncols,
                      [[F.sub(a, b) for a, b in zip(r1, r2)]
                       for r1, r2 in zip(self.rows, other.rows)])

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

    def _echelon(self, rhs=(), reduced=True):
        """Row echelon form of [self | rhs] on a copy; returns (rows, pivot
        columns), with pivots searched in the columns of self only.

        The forward pass scales each pivot row to 1 and clears the column
        below it; with ``reduced`` set, back substitution then clears it
        above as well, giving the reduced form.  rhs is a list of rows."""
        F = self.field
        nrows = self.nrows
        if rhs:
            rows = [a + b for a, b in zip(self.rows, rhs)]
        else:
            rows = [row[:] for row in self.rows]

        def clear(r, c, targets):
            prow = rows[r]
            nz = [(j, prow[j]) for j in range(c, len(prow)) if prow[j]]
            for i in targets:
                ri = rows[i]
                f = ri[c]
                if f:
                    for j, x in nz:
                        ri[j] = F.sub(ri[j], F.mul(f, x))

        one = F.one
        pivots = []
        for c in range(self.ncols):
            r = len(pivots)
            if r == nrows:
                break
            for i in range(r, nrows):
                if rows[i][c]:
                    break
            else:
                continue
            rows[r], rows[i] = rows[i], rows[r]
            prow = rows[r]
            if prow[c] != one:
                inv = F.div(one, prow[c])
                prow[c:] = [F.mul(inv, x) if x else x for x in prow[c:]]
            pivots.append(c)
            clear(r, c, range(r + 1, nrows))
        if reduced:
            for r in reversed(range(len(pivots))):
                clear(r, pivots[r], range(r))
        return rows, pivots

    def rank(self):
        return len(self._echelon(reduced=False)[1])

    def kernel_basis(self):
        """Matrix whose columns form a basis of the null space."""
        F = self.field
        rows, pivots = self._echelon()
        pivot_set = set(pivots)
        free = [c for c in range(self.ncols) if c not in pivot_set]
        out = Matrix.zeros(F, self.ncols, len(free))
        for k, fc in enumerate(free):
            out.rows[fc][k] = F.one
            for r, pc in enumerate(pivots):
                out.rows[pc][k] = F.neg(rows[r][fc])
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
        rows, pivots = self._echelon(rhs)
        n = self.ncols
        if any(x for row in rows[len(pivots):] for x in row[n:]):
            return None
        width = 1 if vector else b.ncols
        x = [[F.zero] * width for _ in range(n)]
        for r, pc in enumerate(pivots):
            x[pc] = rows[r][n:]
        if vector:
            return [row[0] for row in x]
        return Matrix(F, n, width, x)

    def column_space_basis(self):
        """Columns of self restricted to a maximal independent subset."""
        pivots = self._echelon(reduced=False)[1]
        return Matrix(self.field, self.nrows, len(pivots),
                      [[row[j] for j in pivots] for row in self.rows])


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
