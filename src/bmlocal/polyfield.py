"""Exact univariate polynomials over a field (GF(p) or Q), and the one
home of the package's exact matrix algorithms.

The two field adapters expose the same tiny protocol so a single Poly
implementation serves both base configurations, and ``row_reduce`` works
over either adapter.  ``mat_mul``, ``det`` and ``adjugate`` only use ring
operations on the entries (+, -, *), so the same code serves matrices of
``Poly`` (the lattice models) and of ``TruncSeries`` (the Breuil-Kisin
matrices).  ``column_hermite`` reduces generating columns over k[u].
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from operator import add

from .primes import require_prime

__all__ = [
    "QQ",
    "GFp",
    "Poly",
    "mat_mul",
    "det",
    "adjugate",
    "row_reduce",
    "column_hermite",
]


class QQ:
    """The rationals, via fractions.Fraction."""

    name = "QQ"

    @staticmethod
    def of(x):
        return Fraction(x)

    zero = Fraction(0)
    one = Fraction(1)

    @staticmethod
    def add(a, b):
        return a + b

    @staticmethod
    def sub(a, b):
        return a - b

    @staticmethod
    def mul(a, b):
        return a * b

    @staticmethod
    def neg(a):
        return -a

    @staticmethod
    def inv(a):
        return 1 / a

    @staticmethod
    def is_zero(a):
        return a == 0


class GFp:
    """The prime field F_p; elements are ints in [0, p).  Raises NotPrime
    unless p is prime."""

    def __init__(self, p: int):
        self.p = require_prime(p)
        self.name = f"GF({p})"
        self.zero = 0
        self.one = 1 % p

    def of(self, x):
        return int(x) % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of 0 in GF(p)")
        return pow(a, self.p - 2, self.p)

    def is_zero(self, a):
        return a % self.p == 0

    def __eq__(self, other):
        return isinstance(other, GFp) and other.p == self.p

    def __hash__(self):
        return hash(("GFp", self.p))


class Poly:
    """A polynomial over a field adapter; coefficients low-to-high."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        cs = [field.of(c) if not _is_elem(field, c) else c for c in coeffs]
        while cs and field.is_zero(cs[-1]):
            cs.pop()
        self.field = field
        self.coeffs = tuple(cs)

    @classmethod
    def of(cls, field, ints) -> "Poly":
        return cls(field, [field.of(x) for x in ints])

    @classmethod
    def x_minus(cls, field, c) -> "Poly":
        """The polynomial u - c."""
        return cls(field, [field.neg(field.of(c)), field.one])

    @classmethod
    def zero(cls, field) -> "Poly":
        return cls(field, [])

    @classmethod
    def one(cls, field) -> "Poly":
        return cls(field, [field.one])

    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and self.field == other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.field.name, self.coeffs))

    def __repr__(self):
        if self.is_zero():
            return "Poly(0)"
        return "Poly(" + " + ".join(
            f"{c}*u^{i}" for i, c in enumerate(self.coeffs)
            if not self.field.is_zero(c)
        ) + ")"

    def __add__(self, other: "Poly") -> "Poly":
        F = self.field
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [F.zero] * (n - len(self.coeffs))
        b = list(other.coeffs) + [F.zero] * (n - len(other.coeffs))
        return Poly(F, [F.add(x, y) for x, y in zip(a, b)])

    def __neg__(self) -> "Poly":
        return Poly(self.field, [self.field.neg(c) for c in self.coeffs])

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        F = self.field
        if self.is_zero() or other.is_zero():
            return Poly.zero(F)
        out = [F.zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if F.is_zero(a):
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = F.add(out[i + j], F.mul(a, b))
        return Poly(F, out)

    def __pow__(self, k: int) -> "Poly":
        out = Poly.one(self.field)
        for _ in range(k):
            out = out * self
        return out

    def scale(self, c) -> "Poly":
        F = self.field
        c = F.of(c) if not _is_elem(F, c) else c
        return Poly(F, [F.mul(a, c) for a in self.coeffs])

    def shift(self, k: int) -> "Poly":
        """Multiply by u^k."""
        if self.is_zero():
            return self
        return Poly(self.field, [self.field.zero] * k + list(self.coeffs))

    def deriv(self) -> "Poly":
        F = self.field
        return Poly(
            F,
            [F.mul(F.of(i), c) for i, c in enumerate(self.coeffs)][1:],
        )

    def eval(self, c):
        F = self.field
        c = F.of(c) if not _is_elem(F, c) else c
        acc = F.zero
        for coeff in reversed(self.coeffs):
            acc = F.add(F.mul(acc, c), coeff)
        return acc

    def divmod(self, other: "Poly"):
        F = self.field
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        q = [F.zero] * max(0, len(self.coeffs) - len(other.coeffs) + 1)
        r = list(self.coeffs)
        dlead = other.coeffs[-1]
        dinv = F.inv(dlead)
        dd = other.degree()
        while len(r) - 1 >= dd and r:
            lead = r[-1]
            if F.is_zero(lead):
                r.pop()
                continue
            k = len(r) - 1 - dd
            factor = F.mul(lead, dinv)
            q[k] = factor
            for i, c in enumerate(other.coeffs):
                r[k + i] = F.sub(r[k + i], F.mul(factor, c))
            r.pop()
        return Poly(F, q), Poly(F, r)

    def divide_exact(self, other: "Poly") -> "Poly":
        q, r = self.divmod(other)
        if not r.is_zero():
            raise ValueError("division not exact")
        return q

    def root_multiplicity(self, c) -> int:
        """Order of vanishing at u = c (0 if c is not a root)."""
        if self.is_zero():
            raise ValueError("zero polynomial has infinite multiplicity")
        F = self.field
        mult = 0
        poly = self
        lin = Poly.x_minus(F, c)
        while F.is_zero(poly.eval(c)):
            poly = poly.divide_exact(lin)
            mult += 1
        return mult


def _is_elem(field, c):
    if isinstance(field, GFp):
        return isinstance(c, int) and 0 <= c < field.p
    return isinstance(c, Fraction)


def mat_mul(a, b):
    """The product of two matrices (lists of rows) over any ring."""
    return [
        [reduce(add, [row[l] * b[l][j] for l in range(len(b))])
         for j in range(len(b[0]))]
        for row in a
    ]


def det(m):
    """Determinant by cofactor expansion along the first row (small d)."""
    d = len(m)
    if d == 1:
        return m[0][0]
    terms = []
    for j in range(d):
        term = m[0][j] * det([row[:j] + row[j + 1:] for row in m[1:]])
        terms.append(-term if j % 2 else term)
    return reduce(add, terms)


def adjugate(m, one):
    """The adjugate (transposed cofactor matrix); ``one`` is the ring's 1,
    the adjugate of every 1 x 1 matrix."""
    d = len(m)
    if d == 1:
        return [[one]]
    adj = [[None] * d for _ in range(d)]
    for i in range(d):
        for j in range(d):
            cof = det([row[:j] + row[j + 1:] for r, row in enumerate(m) if r != i])
            adj[j][i] = -cof if (i + j) % 2 else cof
    return adj


def row_reduce(rows, F):
    """Gauss-Jordan elimination over the field adapter F.

    Returns the nonzero rows of the reduced row echelon form of ``rows``
    (each pivot entry 1, every other entry of a pivot column 0) and their
    pivot columns, increasing.  The form depends only on the row span.
    """
    rows = [list(r) for r in rows]
    pivots = []
    for c in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        if r == len(rows):
            break
        piv = next((i for i in range(r, len(rows)) if not F.is_zero(rows[i][c])), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = F.inv(rows[r][c])
        rows[r] = [F.mul(x, inv) for x in rows[r]]
        for i, row in enumerate(rows):
            if i != r and not F.is_zero(row[c]):
                f = row[c]
                rows[i] = [F.sub(x, F.mul(f, y)) for x, y in zip(row, rows[r])]
        pivots.append(c)
    return rows[: len(pivots)], pivots


def column_hermite(columns, d: int):
    """Reduce a spanning set of columns (each a length-d list of Poly) to
    exactly d columns generating the same k[u]-module.

    Standard Euclidean column reduction row by row; raises ValueError if
    the span has rank < d.
    """
    cols = [list(c) for c in columns if any(not e.is_zero() for e in c)]
    if not cols:
        raise ValueError("zero module")
    placed = []
    for r in range(d):
        # Euclidean reduction of the row-r entries against the minimal-degree
        # one; column operations only, so the module is preserved.
        while True:
            active = [c for c in cols if not c[r].is_zero()]
            if len(active) <= 1:
                break
            active.sort(key=lambda c: c[r].degree())
            pivot = active[0]
            for c in active[1:]:
                q, _ = c[r].divmod(pivot[r])
                for i in range(d):
                    c[i] = c[i] - q * pivot[i]
        piv = next((c for c in cols if not c[r].is_zero()), None)
        if piv is None:
            raise ValueError("columns do not have full rank")
        placed.append(piv)
        cols.remove(piv)
    # remaining columns are identically zero; placed is triangular in the
    # elimination order, hence a basis of the module
    return [[placed[j][i] for j in range(d)] for i in range(d)]
