"""p-adic interpolation at the uniformiser conjugates.

Given target data m(u) = sum_{l=1..p} (u - pi_t)^{p-l} pi^l m_l with
integral m_l, multiplicities r_j per conjugate pi_j, and a designated
target conjugate pi_t, the construction produces M in pi O[[u]] with

    M == m  mod (u - pi_t)^{r_t},
    M == 0  mod (u - pi_j)^{r_j}   for j != t,

via the truncated geometric kernels

    X_j = sum_{n < r_t} binom(r_j - 1 + n, r_j - 1)
              (u - pi_t)^n / (pi_t - pi_j)^{n + r_j},

which satisfy X_j (u - pi_j)^{r_j} == 1 mod (u - pi_t)^{r_t}.  The
construction is licensed by the bound sum_j r_j <= (p-1)/nu + 1, where
nu is the largest valuation among pairwise differences of conjugates
(nu = 1 in the tame case); the per-coefficient valuation ledger
v(coeff of (u - pi_t)^n in m prod X) >= p - (sum_{j != t} r_j + n) nu
is recomputed and attached to the verification report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import BoundViolated, IntegralityFailure, PrecisionExhausted
from .localfield import LocalFieldElement, TameFieldContext, times_power

__all__ = [
    "nu_invariant",
    "LocalPoly",
    "geometric_kernel",
    "interpolate_claim",
    "InterpolationReport",
]


def nu_invariant(ctx: TameFieldContext) -> int:
    """max over j != j' of v_pi(pi_j - pi_j'); equals 1 for tame contexts."""
    if ctx.e < 2:
        raise ValueError("nu is undefined for e < 2 (no conjugate pairs)")
    best = None
    for j in range(ctx.e):
        for jp in range(j + 1, ctx.e):
            v = (ctx.pi_conjugate(j) - ctx.pi_conjugate(jp)).valuation()
            if best is None or v > best:
                best = v
    return best


class LocalPoly:
    """A polynomial over a tame field, in powers of (u - center).

    ``center`` is a LocalFieldElement, or None for the monomial basis.
    """

    __slots__ = ("ctx", "coeffs", "center")

    def __init__(self, ctx: TameFieldContext, coeffs, center=None):
        self.ctx = ctx
        cs = list(coeffs)
        while cs and not cs[-1].coords:
            cs.pop()
        self.coeffs = cs
        self.center = center

    @classmethod
    def zero(cls, ctx, center=None) -> "LocalPoly":
        return cls(ctx, [], center)

    @classmethod
    def one(cls, ctx, center=None) -> "LocalPoly":
        return cls(ctx, [ctx.one()], center)

    def degree(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, n: int) -> LocalFieldElement:
        return self.coeffs[n] if n < len(self.coeffs) else self.ctx.zero()

    def _same_basis(self, other: "LocalPoly"):
        if self.center is None and other.center is None:
            return
        if self.center is None or other.center is None:
            raise ValueError("mixed bases")
        if not (self.center - other.center).is_zero_to_precision():
            raise ValueError("mixed centers")

    def __add__(self, other: "LocalPoly") -> "LocalPoly":
        self._same_basis(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return LocalPoly(
            self.ctx,
            [self.coeff(i) + other.coeff(i) for i in range(n)],
            self.center,
        )

    def __neg__(self) -> "LocalPoly":
        return LocalPoly(self.ctx, [-c for c in self.coeffs], self.center)

    def __sub__(self, other: "LocalPoly") -> "LocalPoly":
        return self + (-other)

    def __mul__(self, other: "LocalPoly") -> "LocalPoly":
        self._same_basis(other)
        if not self.coeffs or not other.coeffs:
            return LocalPoly.zero(self.ctx, self.center)
        out = [self.ctx.zero() for _ in range(len(self.coeffs) + len(other.coeffs) - 1)]
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return LocalPoly(self.ctx, out, self.center)

    def __pow__(self, k: int) -> "LocalPoly":
        return times_power(LocalPoly.one(self.ctx, self.center), self, k)

    def scale(self, c: LocalFieldElement) -> "LocalPoly":
        return LocalPoly(self.ctx, [a * c for a in self.coeffs], self.center)

    def truncate(self, n: int) -> "LocalPoly":
        return LocalPoly(self.ctx, self.coeffs[:n], self.center)

    def rebase(self, new_center) -> "LocalPoly":
        """Re-express in powers of (u - new_center) (None = monomial basis).

        Exact within precision: Horner evaluation in the target basis with
        X = (u - new_center), using (u - old) = X + (new - old).
        """
        ctx = self.ctx
        old = self.center if self.center is not None else ctx.zero()
        new = new_center if new_center is not None else ctx.zero()
        delta = new - old  # (u - old) = (u - new) + (new - old)
        out = LocalPoly.zero(ctx, new_center)
        for a in reversed(self.coeffs):
            # out = out * (X + delta) + a
            shifted = LocalPoly(
                ctx, [ctx.zero()] + list(out.coeffs), new_center
            )
            out = shifted + out.scale(delta)
            out = out + LocalPoly(ctx, [a], new_center)
        return out

    def __repr__(self):
        c = "u" if self.center is None else f"(u - {self.center!r})"
        return f"LocalPoly({self.coeffs!r}, basis powers of {c})"


def geometric_kernel(
    r_target: int,
    r_other: int,
    pi_k: LocalFieldElement,
    pi_kp: LocalFieldElement,
) -> LocalPoly:
    """The truncated inverse of (u - pi_kp)^{r_other} modulo (u - pi_k)^{r_target}."""
    ctx = pi_k.ctx
    diff = pi_k - pi_kp
    if diff.is_zero_to_precision():
        raise PrecisionExhausted("pi_k and pi_kp coincide within precision")
    inv = diff.inverse()
    coeffs = []
    # accumulate (-1)^n inv^{n + r_other} without recomputing powers; the
    # alternating sign comes from (1 + y)^{-r} = sum binom(r-1+n, r-1)(-y)^n
    # and is what makes the defining congruence below hold
    power = inv ** r_other
    for n in range(r_target):
        binom = math.comb(r_other - 1 + n, r_other - 1)
        if n % 2 == 1:
            binom = -binom
        coeffs.append(power * binom)
        power = power * inv
    return LocalPoly(ctx, coeffs, center=pi_k)


def verify_geometric_kernel(X: LocalPoly, r_target: int, r_other: int, pi_kp) -> bool:
    """Check X * (u - pi_kp)^{r_other} == 1 mod (u - pi_k)^{r_target}."""
    ctx = X.ctx
    pi_k = X.center
    # (u - pi_kp) in the (u - pi_k) basis: X + (pi_k - pi_kp)
    lin = LocalPoly(ctx, [pi_k - pi_kp, ctx.one()], center=pi_k)
    prod = times_power(X, lin, r_other).truncate(r_target)
    expected = LocalPoly.one(ctx, center=pi_k)
    diff = prod - expected
    return all(c.is_zero_to_precision() for c in diff.coeffs)


@dataclass(frozen=True)
class InterpolationReport:
    """Verification outcome for one interpolation instance."""

    congruence_at_target: bool
    divisibility_at_others: bool
    pi_integrality: bool
    valuation_ledger: tuple  # (n, v_observed, v_bound) triples
    ledger_respected: bool
    details: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return (
            self.congruence_at_target
            and self.divisibility_at_others
            and self.pi_integrality
            and self.ledger_respected
        )


def build_target_poly(ctx: TameFieldContext, m_coeffs, target_j: int) -> LocalPoly:
    """m(u) = sum_{l=1..p} (u - pi_t)^{p-l} pi^l m_l in the target basis."""
    p = ctx.p
    if len(m_coeffs) != p:
        raise ValueError(f"expected {p} coefficients m_1..m_p")
    pi_t = ctx.pi_conjugate(target_j)
    pi = ctx.pi()
    coeffs = [ctx.zero() for _ in range(p)]
    pi_pow = ctx.one()
    for l in range(1, p + 1):
        pi_pow = pi_pow * pi
        coeffs[p - l] = coeffs[p - l] + m_coeffs[l - 1] * pi_pow
    return LocalPoly(ctx, coeffs, center=pi_t)


def interpolate_claim(
    m_coeffs,
    r: dict,
    target_j: int,
    ctx: TameFieldContext,
    override_bounds: bool = False,
):
    """Construct the interpolant M and verify the three conditions.

    ``m_coeffs``: the p integral elements m_1..m_p; ``r``: conjugate
    index -> required multiplicity; ``target_j``: the designated
    conjugate.  Returns (M in the monomial basis, InterpolationReport).
    """
    nu = nu_invariant(ctx) if ctx.e >= 2 else 1
    r = {int(j): int(rj) for j, rj in r.items()}
    for j in r:
        if not 0 <= j < ctx.e:
            raise ValueError(f"conjugate index {j} out of range")
    r_t = r.get(target_j, 0)
    if r_t < 1:
        raise ValueError("the target conjugate needs multiplicity >= 1")
    total = sum(r.values())
    limit = (ctx.p - 1) // nu + 1
    if total > limit and not override_bounds:
        raise BoundViolated(f"sum of multiplicities {total} exceeds {limit}")
    for m in m_coeffs:
        if m.coords and m.val_lower_bound() < 0:
            raise ValueError("m coefficients must be integral")

    pi_t = ctx.pi_conjugate(target_j)
    m_poly = build_target_poly(ctx, m_coeffs, target_j)
    others = [j for j in range(ctx.e) if j != target_j and r.get(j, 0) > 0]

    # N = degree-< r_t truncation of m * prod X_j in the target basis
    prod = m_poly.truncate(r_t)
    for j in others:
        X = geometric_kernel(r_t, r[j], pi_t, ctx.pi_conjugate(j))
        prod = (prod * X).truncate(r_t)
    ledger = []
    r_other_sum = sum(r[j] for j in others)
    ledger_ok = True
    for n in range(len(prod.coeffs)):
        bound = ctx.p - (r_other_sum + n) * nu
        v = prod.coeffs[n].val_lower_bound()
        ledger.append((n, v, bound))
        if v < bound:
            ledger_ok = False

    # M = N * prod (u - pi_j)^{r_j}
    M = prod
    for j in others:
        lin = LocalPoly(
            ctx, [pi_t - ctx.pi_conjugate(j), ctx.one()], center=pi_t
        )
        M = times_power(M, lin, r[j])

    # (i) congruence at the target
    diff = (M - m_poly).truncate(r_t)
    cong = all(c.is_zero_to_precision() for c in diff.coeffs)
    # (ii) divisibility at the other conjugates
    divis = True
    for j in others:
        at_j = M.rebase(ctx.pi_conjugate(j))
        if not all(
            c.is_zero_to_precision() for c in at_j.truncate(r[j]).coeffs
        ):
            divis = False
    # (iii) pi-integrality of every monomial coefficient
    M_mono = M.rebase(None)
    integral = all(
        c.val_lower_bound() >= 1 for c in M_mono.coeffs if c.coords
    )
    report = InterpolationReport(
        congruence_at_target=cong,
        divisibility_at_others=divis,
        pi_integrality=integral,
        valuation_ledger=tuple(ledger),
        ledger_respected=ledger_ok,
        details={
            "nu": nu,
            "total_multiplicity": total,
            "limit": limit,
            "target": target_j,
        },
    )
    if not integral and not override_bounds:
        raise IntegralityFailure("interpolant is not in pi O[[u]]")
    return M_mono, report
