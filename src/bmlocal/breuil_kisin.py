"""Frobenius matrices over truncated series: height checks, the two
conjugation actions, and the convergent torsor solver.

The solver answers: given an integral matrix C of height <= h on the
special fibre (E(u) = u^e) and g congruent to 1 mod u^N, find the unique
g0 = 1 mod u^N with g0^{-1} C phi(g0) = g C.  It iterates

    x_{n+1} = C phi(x_n) (gC)^{-1},        x_0 = start (default 1),

which telescopes to the partial products I_n J_n^{-1} with
I_n = C phi(C) ... phi^{n-1}(C) and J_n the same built from gC.
Convergence requires eh <= (p-1)N - 1; the contraction gains a factor
u^{p^n} per step, so ceil(log_p M) + 2 iterations saturate a working
modulus of u^M.  Each iterate must be integral: the Laurent denominator
introduced by (gC)^{-1} is asserted to cancel, never truncated away.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import (
    BoundViolated,
    ConvergenceConditionViolated,
    IntegralityViolated,
    NonIntegralLimit,
    NonTerminating,
    SingularMatrix,
)
from .series import LaurentSeriesMatrix

__all__ = [
    "BKMatrix",
    "height_check",
    "phi_conjugate",
    "torsor_solve",
    "inverse_direction_check",
]


@dataclass(frozen=True)
class BKMatrix:
    """An integral Frobenius matrix with E(u) = u^e (e >= 1, BoundViolated
    otherwise) and height bound h."""

    C: LaurentSeriesMatrix
    e: int
    h: int

    def __post_init__(self):
        if self.e < 1:
            raise BoundViolated(f"e = {self.e}: E(u) = u^e needs e >= 1")
        if not self.C.is_integral():
            raise ValueError("C must be integral")

    @property
    def p(self) -> int:
        return self.C.p

    @property
    def prec(self) -> int:
        return self.C.prec


def height_check(bk: BKMatrix) -> bool:
    """True iff u^{eh} * C^{-1} is integral within precision."""
    inv = bk.C.inverse()
    return inv.denom_exponent <= bk.e * bk.h


def _require_unit(g: LaurentSeriesMatrix):
    if not g.is_integral():
        raise SingularMatrix("g must be integral")
    det = g.det()
    if not det.is_unit():
        raise SingularMatrix("g must be invertible over F_p[[u]]")


def phi_conjugate(bk: BKMatrix, g: LaurentSeriesMatrix) -> BKMatrix:
    """The action C -> g^{-1} C phi(g) (height <= h is preserved)."""
    _require_unit(g)
    M = bk.prec
    conj = g.inverse() * bk.C * g.phi(M)
    if not conj.is_integral():
        raise NonIntegralLimit("conjugate failed to be integral")
    return BKMatrix(C=conj, e=bk.e, h=bk.h)


def _iteration_cap(p: int, M: int) -> int:
    return max(2, math.ceil(math.log(M, p))) + 2


def torsor_solve(
    bk: BKMatrix,
    g: LaurentSeriesMatrix,
    N: int,
    start: LaurentSeriesMatrix | None = None,
) -> LaurentSeriesMatrix:
    """The unique g0 = 1 mod u^N with g0^{-1} C phi(g0) = g C.

    ``start`` overrides the initial iterate (used for uniqueness checks);
    the limit does not depend on it.  Raises NonTerminating if the
    iterates have not stabilised within the iteration cap.
    """
    p = bk.p
    M = bk.prec
    if bk.e * bk.h > (p - 1) * N - 1:
        raise ConvergenceConditionViolated(
            f"eh = {bk.e * bk.h} exceeds (p-1)N - 1 = {(p - 1) * N - 1}"
        )
    if not g.is_one_mod(N):
        raise IntegralityViolated(f"g must be congruent to 1 mod u^{N}")
    gC = g * bk.C
    gC_inv = gC.inverse()
    x = start if start is not None else LaurentSeriesMatrix.identity(bk.C.d, M, p)
    cap = _iteration_cap(p, M)
    for _ in range(cap):
        x_new = bk.C * x.phi(M) * gC_inv
        if not x_new.is_integral():
            raise NonIntegralLimit(
                "iterate carries an uncancelled denominator "
                f"u^{-x_new.denom_exponent}"
            )
        if not x_new.is_one_mod(N):
            raise NonIntegralLimit(f"iterate is not congruent to 1 mod u^{N}")
        m = min(x.prec, x_new.prec)
        if x.is_integral() and x_new.eq_mod(x, m):
            return x_new
        x = x_new
    raise NonTerminating(f"torsor iteration did not stabilise within {cap} steps")


def inverse_direction_check(bk: BKMatrix, g0: LaurentSeriesMatrix) -> LaurentSeriesMatrix:
    """Recover g = g0^{-1} C phi(g0) C^{-1}; asserts g = 1 mod u^N shape
    (integral with unit determinant).  Raises IntegralityViolated otherwise."""
    _require_unit(g0)
    M = bk.prec
    g = g0.inverse() * bk.C * g0.phi(M) * bk.C.inverse()
    if not g.is_integral():
        raise IntegralityViolated("recovered g is not integral")
    if not g.det().is_unit():
        raise IntegralityViolated("recovered g is not invertible")
    return g
