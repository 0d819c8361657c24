"""Exact univariate polynomials over GF(p) or Q, and the one home of the
package's exact matrix algorithms.

``Poly`` keeps integer coefficients on both fields: residues in [0, p)
over GF(p), and over Q integer numerators over one positive denominator
in lowest terms, so its arithmetic is on ints with one gcd per result.
The field adapters ``QQ`` and ``GFp`` serve ``row_reduce``.  ``mat_mul``,
``det`` and ``adjugate`` only use ring operations on the entries (+, -,
*), so the same code serves matrices of ``Poly`` (the lattice models)
and of ``TruncSeries`` (the Breuil-Kisin matrices).  ``column_hermite``
reduces generating columns over k[u].
"""

from __future__ import annotations

import operator
from fractions import Fraction
from functools import reduce
from math import gcd, lcm

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
    p = 0  # the characteristic
    zero = Fraction(0)
    one = Fraction(1)
    of = staticmethod(Fraction)
    add = staticmethod(operator.add)
    sub = staticmethod(operator.sub)
    mul = staticmethod(operator.mul)
    neg = staticmethod(operator.neg)
    inv = staticmethod(lambda a: 1 / a)
    is_zero = staticmethod(operator.not_)


class GFp:
    """The prime field F_p; elements are ints in [0, p).  Raises NotPrime
    unless p is prime."""

    def __init__(self, p: int):
        self.p = require_prime(p)
        self.name = f"GF({p})"
        self.zero = 0
        self.one = 1 % p

    def of(self, x):
        """x mod p: an int-like x reduced, a Fraction a/b as a * b^-1
        (ZeroDivisionError when p divides b); TypeError for anything else,
        floats included."""
        if isinstance(x, Fraction):
            if x.denominator % self.p == 0:
                raise ZeroDivisionError(f"{x} has no residue mod {self.p}")
            return x.numerator * pow(x.denominator, -1, self.p) % self.p
        return operator.index(x) % self.p

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
    """A polynomial over GF(p) or Q in integer form, coefficients low-to-high.

    ``nums`` are integer numerators over one positive ``den``: residues in
    [0, p) over den 1 on GF(p); over Q in lowest terms, gcd(den, *nums) = 1
    (den 1 for zero), so equal polynomials have equal (nums, den).
    ``coeffs`` views them as field elements (Fractions over Q).
    ``root_multiplicity`` divides by b u - a in Z[u] (Gauss's lemma).
    """

    __slots__ = ("field", "nums", "den")

    def __init__(self, field, coeffs, den=None):
        """Field elements, or with ``den`` fresh integer numerators over it."""
        if den is None:
            pairs = [_ratio(field, c) for c in coeffs]
            den = lcm(*(b for _, b in pairs))
            coeffs = [a * (den // b) for a, b in pairs]
        p = field.p
        if p:
            coeffs = [x % p for x in coeffs]
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        if not p and (g := gcd(den, *coeffs)) != 1:
            coeffs, den = [x // g for x in coeffs], den // g
        self.field, self.nums, self.den = field, tuple(coeffs), den

    @classmethod
    def of(cls, field, ints) -> "Poly":
        return cls(field, ints)

    @classmethod
    def x_minus(cls, field, c) -> "Poly":
        """The polynomial u - c."""
        a, b = _ratio(field, c)
        return cls(field, [-a, b], b)

    @classmethod
    def zero(cls, field) -> "Poly":
        return cls(field, [], 1)

    @classmethod
    def one(cls, field) -> "Poly":
        return cls(field, [1], 1)

    @property
    def coeffs(self) -> tuple:
        p, d = self.field.p, self.den
        return self.nums if p else tuple(Fraction(x, d) for x in self.nums)

    def degree(self) -> int:
        return len(self.nums) - 1

    def is_zero(self) -> bool:
        return not self.nums

    def __eq__(self, other):
        return isinstance(other, Poly) and self.field == other.field and (
            self.nums, self.den) == (other.nums, other.den)

    def __hash__(self):
        return hash((self.field.name, self.coeffs))

    def __repr__(self):
        terms = [f"{c}*u^{i}" for i, c in enumerate(self.coeffs) if c]
        return "Poly(" + (" + ".join(terms) or "0") + ")"

    def __add__(self, other: "Poly") -> "Poly":
        da, db = self.den, other.den
        a, b = [x * db for x in self.nums], [x * da for x in other.nums]
        if len(a) < len(b):
            a, b = b, a
        for i, x in enumerate(b):
            a[i] += x
        return Poly(self.field, a, da * db)

    def __neg__(self) -> "Poly":
        return Poly(self.field, [-x for x in self.nums], self.den)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        a, b = self.nums, other.nums
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b, i):
                    out[j] += x * y
        return Poly(self.field, out, self.den * other.den)

    def __pow__(self, k: int) -> "Poly":
        return reduce(operator.mul, [self] * k, Poly.one(self.field))

    def scale(self, c) -> "Poly":
        a, b = _ratio(self.field, c)
        return Poly(self.field, [x * a for x in self.nums], self.den * b)

    def shift(self, k: int) -> "Poly":
        """Multiply by u^k."""
        return Poly(self.field, [0] * k + list(self.nums), self.den)

    def deriv(self) -> "Poly":
        return Poly(
            self.field, [i * x for i, x in enumerate(self.nums)][1:], self.den
        )

    def eval(self, c):
        """The value at u = c, a field element (Fraction over Q)."""
        p = self.field.p
        a, b = _ratio(self.field, c)
        acc, bk = 0, 1  # acc / bk * b is the value of the top terms so far
        for x in reversed(self.nums):
            acc, bk = acc * a + x * bk, bk * b
        return acc % p if p else Fraction(acc * b, self.den * bk)

    def divmod(self, other: "Poly"):
        """Quotient and remainder.  Over Q by pseudo-division: with lc the
        leading numerator of other and k quotient terms, |lc|^k * self.nums
        divides by other.nums with every quotient step exact in Z."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        F, b = self.field, other.nums
        p, lc, n = F.p, b[-1], len(b) - 1
        k = max(len(self.nums) - n, 0)
        inv, scale = (pow(lc, -1, p), 1) if p else (None, abs(lc) ** k)
        r = [x * scale for x in self.nums]
        q = [0] * k
        for i in range(k - 1, -1, -1):
            f = r[i + n] % p * inv % p if p else r[i + n] // lc
            if f:
                q[i] = f
                for j, y in enumerate(b):
                    r[i + j] -= f * y
        den = scale * self.den
        return Poly(F, [x * other.den for x in q], den), Poly(F, r[:n], den)

    def divide_exact(self, other: "Poly") -> "Poly":
        q, r = self.divmod(other)
        if not r.is_zero():
            raise ValueError("division not exact")
        return q

    def root_multiplicity(self, c) -> int:
        """Order of vanishing at u = c (0 if c is not a root).

        Repeated synthetic division of the numerators by b u - a, for
        c = a / b in lowest terms (b = 1 over GF(p)).  b u - a is primitive,
        so by Gauss's lemma the quotient lies in Z[u] whenever c is a root:
        a quotient step that is not exact in Z proves c is not one.
        """
        if self.is_zero():
            raise ValueError("zero polynomial has infinite multiplicity")
        p = self.field.p
        a, b = _ratio(self.field, c)
        f, mult = self.nums, 0
        while True:
            g, gi = [], 0
            for x in f[:0:-1]:
                gi, rest = divmod(x + a * gi, b)
                if rest:
                    return mult
                if p:
                    gi %= p
                g.append(gi)
            top = f[0] + a * gi
            if top % p if p else top:
                return mult
            f = g[::-1]
            mult += 1


def _ratio(field, c):
    """c = a / b as (a, b), b > 0: (c mod p, 1) or Q's lowest terms."""
    if field.p:
        return field.of(c), 1
    c = c if isinstance(c, (int, Fraction)) else Fraction(c)
    return c.numerator, c.denominator


def mat_mul(a, b):
    """The product of two matrices (lists of rows) over any ring."""
    return [
        [reduce(operator.add, [row[l] * b[l][j] for l in range(len(b))])
         for j in range(len(b[0]))]
        for row in a
    ]


def det(m):
    """Determinant by cofactor expansion along the first row (small d)."""
    if len(m) == 1:
        return m[0][0]
    terms = [e * det([row[:j] + row[j + 1:] for row in m[1:]])
             for j, e in enumerate(m[0])]
    return reduce(operator.add, [-t if j % 2 else t for j, t in enumerate(terms)])


def adjugate(m, one):
    """The adjugate (transposed cofactor matrix); ``one`` is the ring's 1,
    the adjugate of every 1 x 1 matrix."""
    d = len(m)
    if d == 1:
        return [[one]]
    cof = [[det([row[:j] + row[j + 1:] for r, row in enumerate(m) if r != i])
            for j in range(d)] for i in range(d)]
    return [[-cof[i][j] if (i + j) % 2 else cof[i][j] for i in range(d)]
            for j in range(d)]


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
