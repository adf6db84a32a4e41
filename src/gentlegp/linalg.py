"""Exact linear algebra over the rationals or a prime field.

A field is its characteristic p, a plain int: QQ = 0 for the rationals,
else a prime.  Over Q an integral element is a plain int and only a real
denominator makes a fractions.Fraction; the two mix exactly, and equal
values compare equal.  Over F_p elements are ints in range(p).  No
floating point anywhere; ranks and kernels are exact, so there are no
tolerances to tune.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm

from .quiver import InputError

QQ = 0


def parse_field(spec: str) -> int:
    """Parse a field spec into its characteristic: 'q' for the rationals,
    'f5' / 'F5' for a prime field."""
    s = spec.strip().lower()
    if s in ("q", "qq", "rationals"):
        return QQ
    digits = s[1:]
    if not (s.startswith("f") and digits.isascii() and digits.isdigit()):
        raise InputError(f"unrecognized field spec {spec!r}")
    # 2^31 has 10 digits, and int() refuses over 4,300
    if len(digits.lstrip("0")) > 10 or int(digits) >= 2 ** 31:
        raise InputError("prime field characteristic must be below 2^31")
    p = int(digits)
    if p < 2 or any(p % d == 0 for d in range(2, isqrt(p) + 1)):
        raise InputError(f"{p} is not prime")
    return p


class Matrix:
    """Sparse matrix over the field of characteristic ``field``; 0xN and
    Nx0 shapes are legal.

    Row i is a dict from column to entry, the format ``echelon`` takes.
    Invariant: no entry is stored as zero, so two matrices are equal
    exactly when their rows are."""

    __slots__ = ("field", "nrows", "ncols", "rows")

    def __init__(self, field, nrows, ncols, rows):
        self.field = field
        self.nrows = nrows
        self.ncols = ncols
        self.rows = rows

    @classmethod
    def zeros(cls, field, nrows, ncols):
        return cls(field, nrows, ncols, [{} for _ in range(nrows)])

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.field == other.field
                and self.nrows == other.nrows and self.ncols == other.ncols
                and self.rows == other.rows)

    def __repr__(self):
        return f"Matrix({self.nrows}x{self.ncols} over char {self.field})"

    def mul(self, other):
        if self.ncols != other.nrows:
            raise ValueError(
                f"shape mismatch: {self.ncols} cols vs {other.nrows} rows")
        return Matrix(self.field, self.nrows, other.ncols,
                      [_combine(r, other.rows, self.field) for r in self.rows])

    def transpose(self):
        cols = [{} for _ in range(self.ncols)]
        for i, row in enumerate(self.rows):
            for j, x in row.items():
                cols[j][i] = x
        return Matrix(self.field, self.ncols, self.nrows, cols)

    def rank(self):
        return len(echelon(self.field, self.rows, self.ncols, False)[1])


def _combine(coeffs, rows, p):
    """The sparse row sum of coeffs[k] * rows[k], without zero entries."""
    acc = {}
    for k, a in coeffs.items():
        for j, b in rows[k].items():
            if j in acc:
                acc[j] += a * b
            else:
                acc[j] = a * b
    if p:
        return {j: w for j, v in acc.items() if (w := v % p)}
    return acc if all(acc.values()) else {j: v for j, v in acc.items() if v}


def echelon(p, rows, ncols, reduced=True):
    """Echelon form of sparse rows, dicts from column (below ``ncols``) to
    nonzero entry, which it leaves unchanged.  Returns (pivot rows,
    increasing pivot columns); with ``reduced``, those of the unique
    reduced echelon form.

    Over F_p the row operations are on plain ints mod p.  Over Q they are
    fraction-free on integer rows; scaling a reduced pivot row to 1 at the
    end divides exactly, and makes a Fraction only of an entry its pivot
    does not divide."""
    by_lead = {}  # lead column -> rows starting there
    for r in rows:
        if r:
            r = dict(r) if p else _integral(r)
            by_lead.setdefault(min(r), []).append(r)
    prows, pivots = [], []
    for c in range(ncols):
        group = by_lead.pop(c, None)
        if group is None:
            if not by_lead:
                break
            continue
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
    if reduced:
        # bottom up: the rows below are reduced, so clearing one pivot
        # column of a row with them leaves its other pivot columns alone
        below = {}  # pivot column -> its reduced row
        for r, c in zip(reversed(prows), reversed(pivots)):
            for j in [j for j in r if j in below]:
                _clear(r, below[j], j, p)
            below[c] = r
        if not p:
            prows = [r if r[c] == 1 else _divided(r, r[c])
                     for r, c in zip(prows, pivots)]
    return prows, pivots


def _divided(row, d):
    """An integer row over the integer d, with ints where d divides."""
    return {j: v // d if v % d == 0 else Fraction(v, d)
            for j, v in row.items()}


def _integral(row):
    """A row of rationals times the lcm of their denominators, as a new
    row of ints."""
    for x in row.values():
        if type(x) is not int:
            break
    else:
        return dict(row)
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


def kernel_vectors(p, rows, ncols):
    """A basis of the null space of sparse rows, as a dict from each free
    column, in order, to a sparse vector (column -> nonzero entry) that is
    1 there and 0 at every other free column."""
    prows, pivots = echelon(p, rows, ncols)
    pivot_set = set(pivots)
    vectors = {c: {c: 1} for c in range(ncols) if c not in pivot_set}
    for prow, pc in zip(prows, pivots):
        for j, v in prow.items():
            if j != pc:
                vectors[j][pc] = -v % p if p else -v
    return vectors
