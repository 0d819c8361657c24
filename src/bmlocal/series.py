"""Truncated power series over prime fields with precision tracking,
and square matrices over them carrying a global u-power denominator.

A :class:`TruncSeries` knows its coefficients mod u^M and nothing
beyond; every operation propagates the minimum precision of its inputs.
A :class:`LaurentSeriesMatrix` is u^{-k} times a matrix of integral
series, normalized by cancelling common u factors against k.
"""

from __future__ import annotations

import numpy as np

from ._kernels import poly_mul_mod
from .errors import BoundViolated, PrecisionExhausted, SingularMatrix
from .polyfield import adjugate, det, mat_mul
from .primes import require_prime

__all__ = ["TruncSeries", "series_phi", "LaurentSeriesMatrix"]

MIN_PRECISION = 1
# Below this, sums and differences of two reduced coefficients fit in int64.
MAX_CHARACTERISTIC = 2**62


class TruncSeries:
    """An element of F_p[u]/u^M with the precision M carried along."""

    __slots__ = ("coeffs", "prec", "p")

    def __init__(self, coeffs, prec: int, p: int):
        if prec < MIN_PRECISION:
            raise PrecisionExhausted(f"precision {prec} below floor {MIN_PRECISION}")
        if p >= MAX_CHARACTERISTIC:
            raise BoundViolated(f"p = {p} is not below 2^62")
        arr = np.zeros(prec, dtype=np.int64)
        if not isinstance(coeffs, np.ndarray):
            coeffs = list(coeffs)
        coeffs = np.asarray(coeffs, dtype=np.int64)
        n = min(prec, coeffs.shape[0])
        arr[:n] = coeffs[:n] % p
        self.coeffs = arr
        self.prec = prec
        self.p = p

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, prec: int, p: int) -> "TruncSeries":
        return cls([], prec, p)

    @classmethod
    def one(cls, prec: int, p: int) -> "TruncSeries":
        return cls([1], prec, p)

    @classmethod
    def monomial(cls, k: int, prec: int, p: int, coeff: int = 1) -> "TruncSeries":
        c = np.zeros(prec, dtype=np.int64)
        if k < prec:
            c[k] = coeff % p
        return cls(c, prec, p)

    # -- structure --------------------------------------------------------

    def is_zero(self) -> bool:
        """True iff all *known* coefficients vanish."""
        return not self.coeffs.any()

    def valuation(self):
        """Index of the first nonzero known coefficient; None if all vanish."""
        nz = np.flatnonzero(self.coeffs)
        return int(nz[0]) if nz.size else None

    def is_unit(self) -> bool:
        return int(self.coeffs[0]) != 0

    def __eq__(self, other) -> bool:
        """Equality up to the minimum of the two precisions."""
        if not isinstance(other, TruncSeries):
            return NotImplemented
        if self.p != other.p:
            return False
        m = min(self.prec, other.prec)
        return bool(np.array_equal(self.coeffs[:m], other.coeffs[:m]))

    def eq_mod(self, other: "TruncSeries", k: int) -> bool:
        """Equality of the first k coefficients (requires precision >= k)."""
        m = min(self.prec, other.prec)
        if m < k:
            raise PrecisionExhausted(f"need precision {k}, have {m}")
        return bool(np.array_equal(self.coeffs[:k], other.coeffs[:k]))

    def __repr__(self):
        nz = np.flatnonzero(self.coeffs)
        if not nz.size:
            return f"TruncSeries(0 + O(u^{self.prec}), p={self.p})"
        bits = [f"{int(self.coeffs[i])}*u^{i}" for i in nz[:6]]
        if nz.size > 6:
            bits.append("...")
        return f"TruncSeries({' + '.join(bits)} + O(u^{self.prec}), p={self.p})"

    # -- arithmetic ---------------------------------------------------------

    def _common(self, other: "TruncSeries") -> int:
        if self.p != other.p:
            raise ValueError("mixed characteristics")
        return min(self.prec, other.prec)

    def __add__(self, other: "TruncSeries") -> "TruncSeries":
        m = self._common(other)
        return TruncSeries((self.coeffs[:m] + other.coeffs[:m]) % self.p, m, self.p)

    def __sub__(self, other: "TruncSeries") -> "TruncSeries":
        m = self._common(other)
        return TruncSeries((self.coeffs[:m] - other.coeffs[:m]) % self.p, m, self.p)

    def __neg__(self) -> "TruncSeries":
        return TruncSeries((-self.coeffs) % self.p, self.prec, self.p)

    def __mul__(self, other) -> "TruncSeries":
        if isinstance(other, int):
            return TruncSeries(poly_mul_mod(self.coeffs, [other % self.p],
                                            self.p, self.prec),
                               self.prec, self.p)
        m = self._common(other)
        return TruncSeries(poly_mul_mod(self.coeffs, other.coeffs, self.p, m),
                           m, self.p)

    __rmul__ = __mul__

    def shift(self, k: int) -> "TruncSeries":
        """Multiply by u^k (k >= 0): precision is preserved as written."""
        if k < 0:
            raise ValueError("use divide_u for negative shifts")
        c = np.zeros(self.prec, dtype=np.int64)
        c[k:] = self.coeffs[: max(self.prec - k, 0)]
        return TruncSeries(c, self.prec, self.p)

    def divide_u(self, k: int) -> "TruncSeries":
        """Exact division by u^k; requires the low k coefficients to vanish.

        The result is only known mod u^{prec-k}.
        """
        if k == 0:
            return self
        if self.coeffs[:k].any():
            raise ValueError(f"not divisible by u^{k}")
        return TruncSeries(self.coeffs[k:], self.prec - k, self.p)

    def inverse(self) -> "TruncSeries":
        """Multiplicative inverse of a unit series, to the same precision.

        Newton iteration (von zur Gathen and Gerhard, *Modern Computer
        Algebra*, ch. 9): if f*g = 1 + u^k h mod u^{2k}, then
        g - u^k (g h) is the inverse mod u^{2k}.  Starting from the Fermat
        inverse of the constant term, each step doubles the known
        precision with two products of length at most 2k.  The lengths
        form a geometric series, so the whole inverse costs at most about
        three products of length M (see ``poly_mul_mod``), against the M^2/2
        multiply-adds of the term-by-term recurrence.  Raises NotPrime
        unless p is prime.
        """
        if not self.is_unit():
            raise ZeroDivisionError("not a unit series (zero constant term)")
        p, m, f = self.p, self.prec, self.coeffs
        require_prime(p)
        g = np.array([pow(int(f[0]), p - 2, p)], dtype=np.int64)
        k = 1
        while k < m:
            k2 = min(2 * k, m)
            h = poly_mul_mod(f[:k2], g, p, k2)[k:]
            g = np.concatenate([g, -poly_mul_mod(g, h, p, k2 - k) % p])
            k = k2
        return TruncSeries(g, m, p)


def series_phi(s: TruncSeries, working_modulus: int | None = None) -> TruncSeries:
    """The Frobenius substitution u -> u^p on a truncated series.

    A series known mod u^M determines its image mod u^{pM}; the result
    carries precision min(p*M, working_modulus).
    """
    p = s.p
    new_prec = p * s.prec
    if working_modulus is not None:
        new_prec = min(new_prec, working_modulus)
    out = np.zeros(new_prec, dtype=np.int64)
    top = min(s.prec, (new_prec + p - 1) // p)
    out[: top * p : p] = s.coeffs[:top]
    return TruncSeries(out, new_prec, p)


class LaurentSeriesMatrix:
    """A d x d matrix u^{-k} * N with N integral TruncSeries entries.

    Normalization divides common u factors of N into k, so k = 0 exactly
    when the matrix is integral (within precision).
    """

    __slots__ = ("num", "denom_exponent", "d", "p")

    def __init__(self, num, denom_exponent: int = 0):
        self.num = [list(row) for row in num]
        self.d = len(self.num)
        for row in self.num:
            if len(row) != self.d:
                raise ValueError("matrix must be square")
        self.p = self.num[0][0].p
        self.denom_exponent = int(denom_exponent)
        self._normalize()

    def _normalize(self):
        """Divide out u^k, k = min(denominator exponent, entry valuations);
        an entry that vanishes within precision counts as its precision."""
        if self.denom_exponent <= 0:
            return
        k = min(
            self.denom_exponent,
            *(s.prec if (v := s.valuation()) is None else v
              for row in self.num for s in row),
        )
        if k:
            self.num = [[s.divide_u(k) for s in row] for row in self.num]
            self.denom_exponent -= k

    # -- constructors ---------------------------------------------------

    @classmethod
    def identity(cls, d: int, prec: int, p: int) -> "LaurentSeriesMatrix":
        num = [
            [TruncSeries.one(prec, p) if i == j else TruncSeries.zero(prec, p)
             for j in range(d)]
            for i in range(d)
        ]
        return cls(num, 0)

    @property
    def prec(self) -> int:
        return min(s.prec for row in self.num for s in row)

    def entry(self, i: int, j: int) -> TruncSeries:
        """The (i, j) entry as a series (requires integrality, k = 0)."""
        if self.denom_exponent != 0:
            raise ValueError("matrix has a denominator; use num/denom directly")
        return self.num[i][j]

    def is_integral(self) -> bool:
        return self.denom_exponent == 0

    # -- arithmetic -------------------------------------------------------

    def __mul__(self, other: "LaurentSeriesMatrix") -> "LaurentSeriesMatrix":
        if self.d != other.d:
            raise ValueError("size mismatch")
        return LaurentSeriesMatrix(
            mat_mul(self.num, other.num), self.denom_exponent + other.denom_exponent
        )

    def __sub__(self, other: "LaurentSeriesMatrix") -> "LaurentSeriesMatrix":
        a, b = self, other
        # bring to a common denominator exponent
        k = max(a.denom_exponent, b.denom_exponent)
        num = [
            [
                a.num[i][j].shift(k - a.denom_exponent)
                - b.num[i][j].shift(k - b.denom_exponent)
                for j in range(a.d)
            ]
            for i in range(a.d)
        ]
        return LaurentSeriesMatrix(num, k)

    def det(self) -> TruncSeries:
        """Determinant of the numerator (cofactor expansion, small d)."""
        return det(self.num)

    def inverse(self) -> "LaurentSeriesMatrix":
        """Inverse over F_p((u)): adjugate divided by det = u^m * unit."""
        D = det(self.num)
        v = D.valuation()
        if v is None:
            raise SingularMatrix("determinant vanishes within precision")
        unit_inv = D.divide_u(v).inverse()
        adj = adjugate(self.num, TruncSeries.one(self.num[0][0].prec, self.p))
        # (u^{-k} N)^{-1} = u^{k} adj(N) / det(N) = adj(N) * unit_inv * u^{k - v}
        num = [[e * unit_inv for e in row] for row in adj]
        shift = self.denom_exponent - v
        if shift >= 0:
            num = [[e.shift(shift) for e in row] for row in num]
            return LaurentSeriesMatrix(num, 0)
        return LaurentSeriesMatrix(num, -shift)

    def phi(self, working_modulus: int | None = None) -> "LaurentSeriesMatrix":
        """Entrywise Frobenius u -> u^p; the denominator u^{-k} maps to u^{-pk}."""
        num = [[series_phi(e, working_modulus) for e in row] for row in self.num]
        return LaurentSeriesMatrix(num, self.p * self.denom_exponent)

    # -- predicates ---------------------------------------------------------

    def eq_mod(self, other: "LaurentSeriesMatrix", k: int) -> bool:
        diff = self - other
        if diff.denom_exponent > 0:
            return False
        return all(
            not e.coeffs[: min(k, e.prec)].any()
            and e.prec >= k
            for row in diff.num
            for e in row
        )

    def is_one_mod(self, N: int) -> bool:
        """True iff the matrix is integral and congruent to 1 mod u^N."""
        if self.denom_exponent != 0:
            return False
        for i in range(self.d):
            for j in range(self.d):
                e = self.num[i][j]
                if e.prec < N:
                    raise PrecisionExhausted(f"need precision {N}")
                want = np.zeros(N, dtype=np.int64)
                if i == j:
                    want[0] = 1
                if not np.array_equal(e.coeffs[:N], want):
                    return False
        return True
