"""Tame local-field arithmetic: exact valuations, units, inverses."""

import random
from fractions import Fraction

import pytest

from bmlocal.errors import (
    BoundViolated,
    IndeterminateValuation,
    NotPrime,
    WildRamification,
)
from bmlocal.localfield import TameFieldContext, lf_valuation


def test_wild_ramification_refused():
    with pytest.raises(WildRamification):
        TameFieldContext(5, 10)  # p | e


def test_composite_p_refused():
    with pytest.raises(NotPrime):
        TameFieldContext(9, 2)


def test_basic_valuations():
    ctx = TameFieldContext(5, 2, prec=40)
    assert ctx.pi().valuation() == 1
    assert ctx.from_rational(5).valuation() == 2  # v(p) = e
    assert ctx.from_rational(Fraction(1, 5)).valuation() == -2
    assert ctx.from_rational(3).valuation() == 0
    two_pi = ctx.from_rational(2) * ctx.pi()
    assert two_pi.valuation() == 1


def test_valuation_is_multiplicative():
    rng = random.Random(31)
    ctx = TameFieldContext(5, 2, prec=60)
    elems = []
    for _ in range(20):
        a = ctx.from_rational(rng.randint(1, 20))
        b = ctx.pi()
        for _ in range(rng.randint(0, 3)):
            a = a * b
        if rng.random() < 0.5:
            a = a * ctx.zeta()
        elems.append(a)
    for _ in range(200):
        x, y = rng.choice(elems), rng.choice(elems)
        assert (x * y).valuation() == x.valuation() + y.valuation()


def test_pi_power_e_is_p_times_unit():
    for p, e in [(5, 2), (7, 3), (5, 4), (7, 2)]:
        ctx = TameFieldContext(p, e, prec=6 * e)
        pie = ctx.one()
        for _ in range(e):
            pie = pie * ctx.pi()
        ratio = pie * ctx.from_rational(Fraction(1, p))
        assert ratio.valuation() == 0


def _zeta_powers_reference(ctx):
    """zeta^t for t < e + 2f' by the shift-and-reduce recurrence on the
    minimal polynomial's coefficients, which the Poly remainders replaced."""
    f = ctx.f_prime
    g = ctx._zeta_min_poly.coeffs  # monic of degree f
    top = [-g[i] for i in range(f)]  # zeta^f = sum top[i] zeta^i
    powers = [[Fraction(0)] * f for _ in range(ctx.e + 2 * f)]
    powers[0][0] = Fraction(1)
    for t in range(1, len(powers)):
        prev = powers[t - 1]
        cur = [Fraction(0)] + prev[:-1]
        if prev[f - 1]:
            cur = [c + prev[f - 1] * x for c, x in zip(cur, top)]
        powers[t] = cur
    return powers


def test_zeta_powers_match_reference():
    built = 0
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
        for e in range(1, 13):
            try:
                ctx = TameFieldContext(p, e)
            except (BoundViolated, WildRamification):
                continue
            assert ctx._zeta_powers == _zeta_powers_reference(ctx), (p, e)
            built += 1
    assert built > 80


def test_zeta_has_order_e():
    ctx = TameFieldContext(7, 3, prec=30)
    z = ctx.zeta()
    acc = ctx.one()
    for _ in range(3):
        acc = acc * z
    assert (acc - ctx.one()).is_zero_to_precision()


def test_conjugates_are_distinct():
    ctx = TameFieldContext(5, 2, prec=40)
    d = ctx.pi_conjugate(0) - ctx.pi_conjugate(1)
    assert d.valuation() == 1  # 2 pi, a unit times pi


def test_inverse():
    ctx = TameFieldContext(5, 2, prec=40)
    for x in [ctx.pi(), ctx.from_rational(3), ctx.pi() * ctx.from_rational(7)]:
        y = x.inverse()
        assert ((x * y) - ctx.one()).is_zero_to_precision()
        assert y.valuation() == -x.valuation()


def test_indeterminate_valuation():
    ctx = TameFieldContext(5, 2, prec=4)
    # all coordinates vanish within precision: nothing to certify
    diff = ctx.pi() - ctx.pi()
    with pytest.raises(IndeterminateValuation):
        diff.valuation()
    # nonzero coordinates, but the valuation bound meets the window
    deep = ctx.element({(0, 0): Fraction(5**3)}, prec=4)
    with pytest.raises(IndeterminateValuation):
        deep.valuation()


def test_lf_valuation_helper():
    ctx = TameFieldContext(5, 2, prec=40)
    assert lf_valuation(ctx.pi() * ctx.pi()) == 2
