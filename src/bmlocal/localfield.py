"""Finite-precision arithmetic in tame Eisenstein extensions of Q_p.

The field is K' = Q_p(zeta, pi) with pi^e = p exactly (Eisenstein
x^e - p, gcd(e, p) = 1) and zeta a primitive e-th root of unity living
in the unramified subextension of degree f' = ord of p mod e.  Elements
are stored on the integral basis zeta^a pi^b (0 <= a < f', 0 <= b < e)
with exact rational coordinates and a pi-adic precision bound; the
valuation of a nonzero element is

    v_pi(x) = min over stored terms of (e * v_p(coeff) + b),

normalized so v_pi(pi) = 1 and v_pi(p) = e.

The minimal polynomial of zeta over Z_p is taken exactly as the e-th
cyclotomic polynomial when that is irreducible mod p (p a primitive
root mod e), and Hensel-lifted from a linear factor when f' = 1; the
remaining splitting patterns do not occur at this package's scale and
are refused.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import reduce

from .errors import BoundViolated, IndeterminateValuation, WildRamification
from .polyfield import QQ, Poly, row_reduce
from .primes import require_prime

__all__ = ["TameFieldContext", "LocalFieldElement", "lf_valuation", "times_power"]


def _vp(x: Fraction, p: int):
    """p-adic valuation of a rational (math.inf for zero)."""
    if x == 0:
        return math.inf
    v = 0
    n, d = x.numerator, x.denominator
    while n % p == 0:
        n //= p
        v += 1
    while d % p == 0:
        d //= p
        v -= 1
    return v


def _multiplicative_order(p: int, e: int) -> int:
    if e == 1:
        return 1
    if math.gcd(p, e) != 1:
        raise WildRamification(f"gcd({e}, {p}) != 1")
    k, x = 1, p % e
    while x != 1:
        x = (x * p) % e
        k += 1
    return k


def _euler_phi(e: int) -> int:
    out = e
    for q in _prime_factors(e):
        out -= out // q
    return out


def _cyclotomic(e: int) -> Poly:
    """The e-th cyclotomic polynomial, over Q."""
    # (x^e - 1) / prod of cyclotomics of proper divisors, by exact division
    num = Poly.of(QQ, [-1] + [0] * (e - 1) + [1])
    for d in range(1, e):
        if e % d == 0:
            num = num.divide_exact(_cyclotomic(d))
    return num


def _hensel_root(e: int, p: int, B: int) -> int:
    """A root of x^e - 1 of exact multiplicative order e, lifted mod p^B."""
    # find an order-e element of F_p^* (exists since e | p - 1 when f' = 1)
    c0 = None
    for g in range(2, p):
        candidate = pow(g, (p - 1) // e, p)
        order_ok = pow(candidate, e, p) == 1 and all(
            pow(candidate, e // q, p) != 1 for q in _prime_factors(e)
        )
        if order_ok:
            c0 = candidate
            break
    if c0 is None:
        raise ValueError("no order-e element found (is e | p - 1?)")
    # Newton iteration on x^e - 1 with quadratic precision growth
    c, prec = c0, 1
    while prec < B:
        prec = min(2 * prec, B)
        mod = p ** prec
        fc = (pow(c, e, mod) - 1) % mod
        fpc = (e * pow(c, e - 1, mod)) % mod
        c = (c - fc * pow(fpc, -1, mod)) % mod
    return c


def _prime_factors(n: int):
    out = []
    q = 2
    while q * q <= n:
        if n % q == 0:
            out.append(q)
            while n % q == 0:
                n //= q
        q += 1
    if n > 1:
        out.append(n)
    return out


class TameFieldContext:
    """Shared data for one tame extension: p, e, zeta tables, precision."""

    def __init__(self, p: int, e: int, prec: int | None = None):
        require_prime(p)
        if e < 1:
            raise BoundViolated(f"e = {e}: the ramification index must be >= 1")
        if math.gcd(p, e) != 1:
            raise WildRamification(
                f"wildly ramified context requested: gcd({e}, {p}) != 1"
            )
        self.p = p
        self.e = e
        self.f_prime = _multiplicative_order(p, e)
        self.N_prec = prec if prec is not None else (p + 2) * e
        # p-adic working precision for the lifted zeta tables: generous
        # relative to N_prec so table error never dominates
        self.pB = 4 * (self.N_prec // e + 2)
        phi = _euler_phi(e)
        if e == 1:
            self._zeta_min_poly = Poly.x_minus(QQ, 1)
        elif self.f_prime == phi:
            self._zeta_min_poly = _cyclotomic(e)
        elif self.f_prime == 1:
            self._zeta_min_poly = Poly.x_minus(QQ, _hensel_root(e, p, self.pB))
        else:
            raise BoundViolated(
                f"zeta_{e} generates an intermediate splitting pattern mod {p} "
                f"(order {self.f_prime}, phi {phi}); not supported"
            )
        # zeta^t for t < e + 2f', as coordinate vectors of length f'
        f = self.f_prime
        self._zeta_powers = []
        for t in range(e + 2 * f):
            r = Poly.one(QQ).shift(t).divmod(self._zeta_min_poly)[1].coeffs
            self._zeta_powers.append(list(r) + [Fraction(0)] * (f - len(r)))

    # -- element constructors ------------------------------------------

    def element(self, coords, prec=None) -> "LocalFieldElement":
        return LocalFieldElement(self, coords, prec)

    def zero(self) -> "LocalFieldElement":
        return self.element({})

    def one(self) -> "LocalFieldElement":
        return self.element({(0, 0): Fraction(1)})

    def from_rational(self, x) -> "LocalFieldElement":
        return self.element({(0, 0): Fraction(x)})

    def pi(self) -> "LocalFieldElement":
        if self.e == 1:
            return self.from_rational(self.p)
        return self.element({(0, 1): Fraction(1)})

    def zeta(self) -> "LocalFieldElement":
        if self.f_prime == 1:
            return self.element({(0, 0): self._zeta_powers[1][0]})
        return self.element({(1, 0): Fraction(1)})

    def pi_conjugate(self, j: int) -> "LocalFieldElement":
        """pi_j = zeta^j * pi."""
        j %= self.e
        vec = self._zeta_powers[j]
        if self.e == 1:
            return self.from_rational(self.p)
        return self.element(
            {(a, 1): vec[a] for a in range(self.f_prime) if vec[a] != 0}
        )

    @property
    def dim(self) -> int:
        return self.f_prime * self.e


class LocalFieldElement:
    """An element on the basis zeta^a pi^b with pi-adic precision."""

    __slots__ = ("ctx", "coords", "prec")

    def __init__(self, ctx: TameFieldContext, coords, prec=None):
        self.ctx = ctx
        clean = {}
        for (a, b), c in dict(coords).items():
            c = Fraction(c)
            if c != 0:
                key = (int(a), int(b))
                clean[key] = clean.get(key, Fraction(0)) + c
        self.coords = {k: v for k, v in clean.items() if v != 0}
        self.prec = ctx.N_prec if prec is None else prec

    # -- structure ---------------------------------------------------------

    def val_lower_bound(self):
        """min(e v_p + b) over stored terms; prec when all vanish."""
        if not self.coords:
            return self.prec
        return min(
            self.ctx.e * _vp(c, self.ctx.p) + b for (a, b), c in self.coords.items()
        )

    def valuation(self):
        """Certified v_pi; raises IndeterminateValuation when not below prec."""
        if not self.coords:
            if self.prec == math.inf:
                return math.inf
            raise IndeterminateValuation(
                f"all coefficients vanish within precision pi^{self.prec}"
            )
        v = self.val_lower_bound()
        if v >= self.prec:
            raise IndeterminateValuation(
                f"valuation >= precision pi^{self.prec}: cannot certify"
            )
        return v

    def is_zero_to_precision(self, tol=None) -> bool:
        """True iff v_pi(self) >= tol (default: the stored precision)."""
        tol = self.prec if tol is None else min(tol, self.prec)
        return self.val_lower_bound() >= tol

    def __eq__(self, other):
        if not isinstance(other, LocalFieldElement):
            return NotImplemented
        return (self - other).is_zero_to_precision(
            min(self.prec, other.prec)
        )

    def __repr__(self):
        if not self.coords:
            return f"LFE(0 + O(pi^{self.prec}))"
        bits = [
            f"{c}*z^{a}pi^{b}"
            for (a, b), c in sorted(self.coords.items())
        ]
        return f"LFE({' + '.join(bits)} + O(pi^{self.prec}))"

    # -- arithmetic ---------------------------------------------------------

    def _check(self, other):
        if self.ctx is not other.ctx:
            raise ValueError("elements from different contexts")

    def __add__(self, other):
        self._check(other)
        coords = dict(self.coords)
        for k, c in other.coords.items():
            coords[k] = coords.get(k, Fraction(0)) + c
        return LocalFieldElement(self.ctx, coords, min(self.prec, other.prec))

    def __neg__(self):
        return LocalFieldElement(
            self.ctx, {k: -c for k, c in self.coords.items()}, self.prec
        )

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ctx.from_rational(other)
        self._check(other)
        ctx = self.ctx
        e, f = ctx.e, ctx.f_prime
        coords = {}
        for (a1, b1), c1 in self.coords.items():
            for (a2, b2), c2 in other.coords.items():
                c = c1 * c2
                b = b1 + b2
                if b >= e:
                    c *= ctx.p ** (b // e)
                    b %= e
                t = a1 + a2
                if t < f:
                    key = (t, b)
                    coords[key] = coords.get(key, Fraction(0)) + c
                else:
                    vec = ctx._zeta_powers[t]
                    for a in range(f):
                        if vec[a]:
                            key = (a, b)
                            coords[key] = coords.get(key, Fraction(0)) + c * vec[a]
        # abs precision of a product: min(N_a + v(b), N_b + v(a)), capped by
        # the accuracy of the lifted zeta tables
        va = self.val_lower_bound()
        vb = other.val_lower_bound()
        prec = min(self.prec + vb, other.prec + va, ctx.pB * ctx.e)
        return LocalFieldElement(self.ctx, coords, prec)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "LocalFieldElement":
        return times_power(self.ctx.one(), self, k)

    def inverse(self) -> "LocalFieldElement":
        """Field inverse by exact rational linear algebra on the basis."""
        ctx = self.ctx
        e, f = ctx.e, ctx.f_prime
        basis = [(a, b) for a in range(f) for b in range(e)]
        index = {k: i for i, k in enumerate(basis)}
        n = len(basis)
        # columns: coordinates of self * basis_k
        M = [[Fraction(0)] * n for _ in range(n)]
        for k, key in enumerate(basis):
            unit = LocalFieldElement(ctx, {key: Fraction(1)}, math.inf)
            prod = self * unit
            for kk, c in prod.coords.items():
                M[index[kk]][k] = c
        rhs = [Fraction(0)] * n
        rhs[index[(0, 0)]] = Fraction(1)
        sol = _solve(M, rhs)
        if sol is None:
            raise ZeroDivisionError("element is zero (or not invertible)")
        v = self.val_lower_bound()
        prec = self.prec - 2 * v
        coords = {basis[i]: sol[i] for i in range(n) if sol[i] != 0}
        return LocalFieldElement(ctx, coords, prec)


def _solve(M, rhs):
    """The solution x of M x = rhs over Q, or None when M is singular."""
    n = len(M)
    rows, pivots = row_reduce([row + [r] for row, r in zip(M, rhs)], QQ)
    if pivots != list(range(n)):
        return None
    return [row[n] for row in rows]


def times_power(x, y, k: int):
    """x * y * ... * y with k factors y, multiplied left to right.

    Products track precision from the factors' valuations, so the order is
    part of the result: x * y**k may carry a different precision."""
    return reduce(operator.mul, [y] * k, x)


def lf_valuation(x: LocalFieldElement):
    """Certified pi-adic valuation (v_pi(pi) = 1); math.inf only for the
    exact zero at infinite precision."""
    return x.valuation()
