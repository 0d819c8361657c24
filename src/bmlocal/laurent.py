"""Multivariate Laurent polynomials over Z with exact integer arithmetic.

These are elements of the group ring Z[Z^d]: finitely many terms
``coeff * e(v)`` where ``v`` is an integer exponent vector of length d
(entries may be negative).  All arithmetic is exact; coefficients are
arbitrary-precision Python integers.
"""

from __future__ import annotations

from itertools import permutations

from .errors import InexactDivision, RankMismatch

__all__ = ["LaurentPoly"]


class LaurentPoly:
    """A Laurent polynomial in d variables with integer coefficients.

    Stored as a map from exponent tuple to nonzero coefficient.
    Instances are immutable; all operators return new objects.
    """

    __slots__ = ("terms", "rank")

    def __init__(self, rank: int, terms=None):
        if rank < 1:
            raise ValueError("rank must be >= 1")
        clean = {}
        if terms:
            for expo, coeff in dict(terms).items():
                expo = tuple(int(x) for x in expo)
                if len(expo) != rank:
                    raise RankMismatch(
                        f"exponent {expo} has length {len(expo)}, expected {rank}"
                    )
                coeff = int(coeff)
                if coeff != 0:
                    clean[expo] = clean.get(expo, 0) + coeff
                    if clean[expo] == 0:
                        del clean[expo]
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "rank", rank)

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPoly is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def monomial(cls, expo, coeff: int = 1) -> "LaurentPoly":
        expo = tuple(int(x) for x in expo)
        return cls(len(expo), {expo: coeff})

    @classmethod
    def zero(cls, rank: int) -> "LaurentPoly":
        return cls(rank, {})

    @classmethod
    def one(cls, rank: int) -> "LaurentPoly":
        return cls(rank, {(0,) * rank: 1})

    # -- basic structure ----------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def coeff(self, expo) -> int:
        return self.terms.get(tuple(expo), 0)

    def support(self):
        return set(self.terms)

    def dim(self) -> int:
        """Sum of coefficients (the dimension of a genuine character)."""
        return sum(self.terms.values())

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LaurentPoly)
            and self.rank == other.rank
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.rank, frozenset(self.terms.items())))

    def __repr__(self):
        if not self.terms:
            return "LaurentPoly(0)"
        bits = []
        for expo in sorted(self.terms, reverse=True):
            bits.append(f"{self.terms[expo]}*e{expo}")
        return "LaurentPoly(" + " + ".join(bits) + ")"

    # -- arithmetic ----------------------------------------------------

    def _check_rank(self, other):
        if self.rank != other.rank:
            raise RankMismatch(f"rank {self.rank} vs {other.rank}")

    def __add__(self, other) -> "LaurentPoly":
        self._check_rank(other)
        terms = dict(self.terms)
        for expo, c in other.terms.items():
            terms[expo] = terms.get(expo, 0) + c
        return LaurentPoly(self.rank, terms)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly(self.rank, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other) -> "LaurentPoly":
        if isinstance(other, int):
            return LaurentPoly(
                self.rank, {e: c * other for e, c in self.terms.items()}
            )
        self._check_rank(other)
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                expo = tuple(a + b for a, b in zip(e1, e2))
                terms[expo] = terms.get(expo, 0) + c1 * c2
        return LaurentPoly(self.rank, terms)

    __rmul__ = __mul__

    def scale_exponents(self, n: int) -> "LaurentPoly":
        """Apply the map e(v) -> e(n*v) to every term."""
        if n < 1:
            raise ValueError("n must be >= 1")
        return LaurentPoly(
            self.rank,
            {tuple(n * x for x in e): c for e, c in self.terms.items()},
        )

    # -- symmetry ------------------------------------------------------

    def is_symmetric(self) -> bool:
        """True iff invariant under all permutations of the coordinates."""
        d = self.rank
        # adjacent transpositions generate S_d
        for i in range(d - 1):
            for expo, c in self.terms.items():
                swapped = list(expo)
                swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
                if self.terms.get(tuple(swapped), 0) != c:
                    return False
        return True

    def is_antisymmetric(self) -> bool:
        """True iff every adjacent transposition negates the polynomial."""
        d = self.rank
        for i in range(d - 1):
            for expo, c in self.terms.items():
                swapped = list(expo)
                swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
                if self.terms.get(tuple(swapped), 0) != -c:
                    return False
        return True

    # -- exact division -------------------------------------------------

    def divide(self, divisor: "LaurentPoly") -> "LaurentPoly":
        """Exact quotient self / divisor; raises InexactDivision otherwise.

        Lex-leading-term reduction: at each step kill the lexicographically
        largest remainder term against the divisor's lex-largest term.  In
        each coordinate the lowest and highest exponents of a product are
        the sums of those of its factors, so every term of an exact
        quotient lies in the box [min(self) - min(divisor), max(self) -
        max(divisor)]; a quotient term outside it proves the division
        inexact.  The remainder's lex-leading term falls at every step and
        stays in the box shifted by the divisor's leading exponent, so the
        loop ends.
        """
        self._check_rank(divisor)
        if divisor.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero():
            return LaurentPoly.zero(self.rank)
        coords = list(zip(zip(*self.terms), zip(*divisor.terms)))
        low = [min(f) - min(g) for f, g in coords]
        high = [max(f) - max(g) for f, g in coords]
        d_lead = max(divisor.terms)
        d_coeff = divisor.terms[d_lead]
        remainder = dict(self.terms)
        quotient = {}
        while remainder:
            r_lead = max(remainder)
            r_coeff = remainder[r_lead]
            if r_coeff % d_coeff != 0:
                raise InexactDivision(f"coefficient {r_coeff} not divisible by {d_coeff}")
            q_expo = tuple(a - b for a, b in zip(r_lead, d_lead))
            if not all(lo <= x <= hi for lo, x, hi in zip(low, q_expo, high)):
                raise InexactDivision(
                    f"quotient term {q_expo} outside the exponent box {low}..{high}"
                )
            q_coeff = r_coeff // d_coeff
            quotient[q_expo] = quotient.get(q_expo, 0) + q_coeff
            for expo, c in divisor.terms.items():
                target = tuple(a + b for a, b in zip(q_expo, expo))
                new = remainder.get(target, 0) - q_coeff * c
                if new:
                    remainder[target] = new
                else:
                    remainder.pop(target, None)
        return LaurentPoly(self.rank, quotient)


def sorting_sign(v) -> int:
    """det of the permutation sorting v into decreasing order, or 0 when
    v has a repeated entry (v lies on a wall): (-1) to the number of
    pairs i < j with v_i < v_j."""
    sign = 1
    for i, a in enumerate(v):
        for b in v[i + 1:]:
            if a < b:
                sign = -sign
            elif a == b:
                return 0
    return sign


def signed_orbit_sum(v) -> LaurentPoly:
    """Sum over the symmetric group of det(w) * e(w(v)).

    Vanishes when v has a repeated entry.  For x = w(v), det(w) is
    sorting_sign(v) * sorting_sign(x), as both sort to the same tuple.
    """
    v = tuple(int(x) for x in v)
    sign = sorting_sign(v)
    terms = {x: sign * sorting_sign(x) for x in permutations(v)} if sign else {}
    return LaurentPoly(len(v), terms)
