"""Frobenius-conjugation torsor solver: round trips, uniqueness, gates."""

import random

import pytest

from bmlocal import breuil_kisin
from bmlocal.breuil_kisin import (
    BKMatrix,
    height_check,
    inverse_direction_check,
    phi_conjugate,
    torsor_solve,
)
from bmlocal.errors import (
    ConvergenceConditionViolated,
    IntegralityViolated,
    NonTerminating,
)
from bmlocal.series import LaurentSeriesMatrix, TruncSeries


def _identity_like(entries, prec, p, k=0):
    num = [[TruncSeries(c, prec, p) for c in row] for row in entries]
    return LaurentSeriesMatrix(num, k)


def _random_unit(rng, d, prec, p):
    num = [
        [TruncSeries([rng.randrange(p) for _ in range(6)], prec, p)
         for _ in range(d)]
        for _ in range(d)
    ]
    for i in range(d):
        cs = list(num[i][i].coeffs)
        cs[0] = 1
        num[i][i] = TruncSeries(cs, prec, p)
        for j in range(d):
            if j != i:
                cs = list(num[i][j].coeffs)
                cs[0] = 0
                num[i][j] = TruncSeries(cs, prec, p)
    return LaurentSeriesMatrix(num, 0)


def _random_height_one(rng, d, e, prec, p):
    diag = [
        [TruncSeries.monomial(rng.randint(0, e), prec, p)
         if i == j else TruncSeries.zero(prec, p) for j in range(d)]
        for i in range(d)
    ]
    C = (_random_unit(rng, d, prec, p)
         * LaurentSeriesMatrix(diag, 0)
         * _random_unit(rng, d, prec, p))
    return BKMatrix(C=C, e=e, h=1)


def _random_g(rng, d, N, prec, p):
    num = [
        [TruncSeries(([1] if i == j else [0]) + [0] * (N - 1)
                     + [rng.randrange(p) for _ in range(4)], prec, p)
         for j in range(d)]
        for i in range(d)
    ]
    return LaurentSeriesMatrix(num, 0)


def test_height_check():
    prec, p, e = 32, 3, 2
    C = _identity_like([[[0, 0, 1], [0]], [[0], [1]]], prec, p)  # diag(u^2, 1)
    assert height_check(BKMatrix(C=C, e=e, h=1))
    C3 = _identity_like([[[0, 0, 0, 1], [0]], [[0], [1]]], prec, p)
    assert not height_check(BKMatrix(C=C3, e=1, h=1))


def test_scalar_round_trip():
    prec, p = 64, 2
    rng = random.Random(1)
    bk = _random_height_one(rng, 1, 1, prec, p)
    g = _random_g(rng, 1, 2, prec, p)
    g0 = torsor_solve(bk, g, 2)
    recovered = inverse_direction_check(bk, g0)
    m = min(g.prec, recovered.prec)
    assert recovered.eq_mod(g, m)


def test_round_trip_random_matrix_cases():
    rng = random.Random(13)
    prec = 64
    for _ in range(10):
        d = rng.choice((1, 2))
        p = rng.choice((2, 3))
        e = rng.choice((1, 2))
        N = 1
        while e > (p - 1) * N - 1:
            N += 1
        bk = _random_height_one(rng, d, e, prec, p)
        g = _random_g(rng, d, N, prec, p)
        g0 = torsor_solve(bk, g, N)
        recovered = inverse_direction_check(bk, g0)
        m = min(g.prec, recovered.prec)
        assert recovered.eq_mod(g, m)


def test_uniqueness_under_perturbed_restart():
    rng = random.Random(17)
    prec, p, e, N = 64, 3, 2, 2
    bk = _random_height_one(rng, 2, e, prec, p)
    g = _random_g(rng, 2, N, prec, p)
    g0 = torsor_solve(bk, g, N)
    start = _random_g(rng, 2, N, prec, p)  # another point of the fibre
    g0_again = torsor_solve(bk, g, N, start=start)
    m = min(g0.prec, g0_again.prec)
    assert g0_again.eq_mod(g0, m)


def test_convergence_gate():
    rng = random.Random(19)
    prec, p = 64, 2
    bk = _random_height_one(rng, 1, 3, prec, p)  # e = 3, h = 1
    g = _random_g(rng, 1, 2, prec, p)  # (p-1)N - 1 = 1 < eh = 3
    with pytest.raises(ConvergenceConditionViolated):
        torsor_solve(bk, g, 2)


def test_iteration_cap_is_enforced(monkeypatch):
    rng = random.Random(13)
    prec, p, e, N = 64, 3, 1, 1
    bk = _random_height_one(rng, 2, e, prec, p)
    g = _random_g(rng, 2, N, prec, p)
    torsor_solve(bk, g, N)  # converges under the real cap
    monkeypatch.setattr(breuil_kisin, "_iteration_cap", lambda p, M: 1)
    with pytest.raises(NonTerminating):
        torsor_solve(bk, g, N)


def test_g_congruence_gate():
    rng = random.Random(23)
    prec, p = 64, 3
    bk = _random_height_one(rng, 1, 1, prec, p)
    bad_g = _identity_like([[[1, 1]]], prec, p)  # not 1 mod u^2
    with pytest.raises(IntegralityViolated):
        torsor_solve(bk, bad_g, 2)


def test_phi_conjugate_preserves_height():
    rng = random.Random(29)
    prec, p = 64, 3
    bk = _random_height_one(rng, 2, 2, prec, p)
    g = _random_unit(rng, 2, prec, p)
    conj = phi_conjugate(bk, g)
    assert height_check(conj)


def test_divisibility_ledger_identity():
    # the step-size bookkeeping behind the contraction estimate:
    # (p^n - 1) N - ((p-1) N - 1)(1 + p + ... + p^(n-1)) = 1 + ... + p^(n-1)
    for p in (2, 3, 5):
        for N in (1, 2, 3, 7):
            for n in range(1, 11):
                geo = sum(p**i for i in range(n))
                lhs = (p**n - 1) * N - ((p - 1) * N - 1) * geo
                assert lhs == geo
