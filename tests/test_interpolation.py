"""Interpolation at uniformiser conjugates: kernels, congruences, ledger."""

import random
from fractions import Fraction

import pytest

from bmlocal.errors import BoundViolated
from bmlocal.interpolation import (
    LocalPoly,
    geometric_kernel,
    interpolate_claim,
    nu_invariant,
    verify_geometric_kernel,
)
from bmlocal.localfield import TameFieldContext


def test_nu_is_one_in_tame_contexts():
    for p, e in [(5, 2), (5, 3), (7, 3), (7, 2)]:
        assert nu_invariant(TameFieldContext(p, e, prec=30)) == 1


def test_kernel_identity_small_orders():
    for p, e in [(5, 2), (7, 3)]:
        ctx = TameFieldContext(p, e, prec=40)
        for jp in range(1, e):
            for rt in range(1, 5):
                for ro in range(1, 5):
                    X = geometric_kernel(
                        rt, ro, ctx.pi_conjugate(0), ctx.pi_conjugate(jp)
                    )
                    assert verify_geometric_kernel(
                        X, rt, ro, ctx.pi_conjugate(jp)
                    ), (p, e, jp, rt, ro)


def test_kernel_leading_coefficients():
    # 1/(u + pi)^2 = 1/(2pi)^2 - 2 (u - pi)/(2pi)^3 + ... around u = pi
    ctx = TameFieldContext(5, 2, prec=40)
    X = geometric_kernel(2, 2, ctx.pi_conjugate(0), ctx.pi_conjugate(1))
    two_pi = ctx.pi_conjugate(0) - ctx.pi_conjugate(1)
    lead = X.coeff(0) * two_pi * two_pi
    assert (lead - ctx.one()).is_zero_to_precision()
    nxt = X.coeff(1) * two_pi * two_pi * two_pi
    assert (nxt + ctx.from_rational(2)).is_zero_to_precision()


def test_worked_instance_p5_e2():
    ctx = TameFieldContext(5, 2, prec=40)
    m = [ctx.from_rational(Fraction(k % 3 + 1)) for k in range(5)]
    M, report = interpolate_claim(m, {0: 2, 1: 2}, 0, ctx)
    assert report.passed
    assert report.details["nu"] == 1
    # ledger: v(coeff n) >= p - (sum r' + n) nu = 5 - (2 + n)
    for n, v, bound in report.valuation_ledger:
        assert bound == 5 - (2 + n)
        assert v >= bound


def test_random_instances_within_bound():
    rng = random.Random(41)
    ctx = TameFieldContext(5, 2, prec=40)
    for _ in range(60):
        m = [ctx.from_rational(rng.randint(0, 24)) for _ in range(5)]
        r = {0: rng.randint(1, 3)}
        r[1] = rng.randint(0, 5 - r[0] - 1)
        _, report = interpolate_claim(m, r, 0, ctx)
        assert report.passed


def test_bound_gate():
    ctx = TameFieldContext(5, 2, prec=40)
    m = [ctx.one() for _ in range(5)]
    with pytest.raises(BoundViolated):
        interpolate_claim(m, {0: 3, 1: 3}, 0, ctx)  # sum 6 > (p-1)/nu + 1 = 5


def test_non_integral_input_rejected():
    ctx = TameFieldContext(5, 2, prec=40)
    m = [ctx.from_rational(Fraction(1, 5))] + [ctx.one() for _ in range(4)]
    with pytest.raises(ValueError):
        interpolate_claim(m, {0: 2}, 0, ctx)


def test_rebase_round_trip():
    ctx = TameFieldContext(5, 2, prec=40)
    pi = ctx.pi()
    poly = LocalPoly(ctx, [ctx.one(), ctx.from_rational(3), pi], center=pi)
    mono = poly.rebase(None)
    back = mono.rebase(pi)
    diff = poly - back
    assert all(c.is_zero_to_precision() for c in diff.coeffs)


def _coords_and_prec(x):
    return x.coords, x.prec


@pytest.mark.parametrize("p, e", [(5, 2), (7, 3)])
@pytest.mark.parametrize("k", range(6))
def test_power_is_the_k_fold_product(p, e, k):
    ctx = TameFieldContext(p, e, prec=40)
    pi_t, pi_o = ctx.pi_conjugate(0), ctx.pi_conjugate(1)
    # a negative valuation makes every factor change the precision
    x = (pi_t - pi_o).inverse() + ctx.from_rational(Fraction(3, 2))
    lin = LocalPoly(ctx, [pi_t - pi_o, ctx.one()], center=pi_t)
    for base, one in [(x, ctx.one()), (lin, LocalPoly.one(ctx, center=pi_t))]:
        want = one
        for _ in range(k):
            want = want * base
        got = base ** k
        if isinstance(base, LocalPoly):
            assert got.center is want.center
            got, want = got.coeffs, want.coeffs
            assert len(got) == len(want)
        else:
            got, want = [got], [want]
        assert [_coords_and_prec(c) for c in got] == [
            _coords_and_prec(c) for c in want
        ]
