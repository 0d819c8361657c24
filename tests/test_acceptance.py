"""Acceptance gate: the eleven headline checks, one pass/fail line each.

Every check here is exact (integer or rational arithmetic); the stated
time budgets are wall-clock ceilings for the whole criterion.
"""

import random
import sys
import time
from fractions import Fraction

from bmlocal.bm_mult import bm_identity
from bmlocal.breuil_kisin import inverse_direction_check, torsor_solve
from bmlocal.characters import decompose, tensor_multiplicities, weyl_character
from bmlocal.cli import (
    _random_g,
    _random_height_one,
    _random_lattice,
    _random_mu_list,
    _random_unit_matrix,
)
from bmlocal.grassmannian import (
    filtration_to_lattice,
    generic_base,
    lattice_dual,
    nabla_cell_dimension,
    nabla_cell_dimension_bruteforce,
    nabla_check,
    psi_lattice,
    smith_type,
    special_base,
)
from bmlocal.hilbert import (
    defect_degree,
    defect_values,
    dim_product,
    equality_forcing_check,
    shifted_identity_check,
)
from bmlocal.interpolation import interpolate_claim
from bmlocal.localfield import TameFieldContext
from bmlocal.polyfield import Poly
from bmlocal.series import LaurentSeriesMatrix, TruncSeries
from bmlocal.weights import (
    EmbeddingData,
    HodgeType,
    dual_weight,
    flag_dim,
    rho,
)


def report(num, name, ok):
    line = f"[criterion {num:2d}] {name}: {'PASS' if ok else 'FAIL'}"
    print(line)
    print(line, file=sys.stderr)
    assert ok, line


def _true_multiplicities(mu_list):
    r = rho(2)
    return tensor_multiplicities(
        [tuple(a - b for a, b in zip(w, r)) for w in mu_list]
    )


def _corpus(seed, size=20):
    rng = random.Random(seed)
    return [_random_mu_list(rng) for _ in range(size)]


CORPUS = _corpus(2024)


def test_criterion_1_clebsch_gordan():
    start = time.monotonic()
    ok = True
    for a in range(0, 9):
        for b in range(0, a + 1):
            got = decompose(weyl_character((a, 0)) * weyl_character((b, 0)))
            want = {(a + b - c, c): 1 for c in range(b + 1)}
            ok = ok and got == want
    elapsed = time.monotonic() - start
    report(1, f"Clebsch-Gordan suite a,b <= 8 ({elapsed:.2f}s < 1s)",
           ok and elapsed < 1.0)


def test_criterion_2_worked_identity():
    emb = EmbeddingData.standard(5, 2, 1)
    mu = HodgeType(
        weights={k: (2, 0) for k in emb.embeddings}, embedding_data=emb
    )
    ident = bm_identity(mu)
    got = {st.components[0][1]: (m, sorted(lift.weights.values()))
           for st, m, lift in ident.terms}
    ok = got == {
        (2, 0): (1, [(1, 0), (3, 0)]),
        (1, 1): (1, [(1, 0), (2, 1)]),
    }
    report(2, "worked multiplicity identity p=5 e=2 mu=((2,0),(2,0))", ok)


def test_criterion_3_shifted_identity():
    ok = True
    # worked instance: the shifted product of dimensions is 4n^2 = 3n^2 + n^2
    mu0 = [(2, 0), (2, 0)]
    mult0 = _true_multiplicities(mu0)
    for n in range(1, 9):
        ok = ok and dim_product(mu0, n, "minus_rho") == 4 * n * n
    ok = ok and shifted_identity_check(mu0, mult0, 8) == (True, None)
    for mu_list in CORPUS:
        good, _ = shifted_identity_check(
            mu_list, _true_multiplicities(mu_list), 8
        )
        ok = ok and good
    report(3, "shifted identity exact for n=1..8 on 20-instance corpus", ok)


def test_criterion_4_defect_degree():
    ok = True
    for mu_list, closed in [
        ([(2, 0), (2, 0)], lambda n: -2 * n - 1),
        ([(3, 0), (2, 0)], lambda n: -3 * n - 1),
    ]:
        mult = _true_multiplicities(mu_list)
        vals = defect_values(mu_list, mult, range(1, 8))
        ok = ok and vals == [(n, closed(n)) for n in range(1, 8)]
        _, degree, good = defect_degree(mu_list, mult)
        ok = ok and good and degree < sum(flag_dim(w) for w in mu_list)
    for mu_list in CORPUS:
        _, degree, good = defect_degree(
            mu_list, _true_multiplicities(mu_list)
        )
        ok = ok and good
    report(4, "defect degree < sum flag_dim; D(n)=-2n-1 and -3n-1 reproduced",
           ok)


def test_criterion_5_equality_forcing():
    ok = True
    for mu_list in CORPUS:
        mult = _true_multiplicities(mu_list)
        for lam in mult:
            ok = ok and equality_forcing_check(mu_list, mult, {lam: 1})
    report(5, "every +1 overcount detected as a degree jump (no false "
              "negatives)", ok)


def test_criterion_6_nabla_cells():
    start = time.monotonic()
    ok = True
    for e in (1, 2, 3):
        for p in (3, 5, 7):
            for gap in range(0, e + p):
                for base in range(-1, 2):
                    lam = (base + gap, base)
                    cell = nabla_cell_dimension(lam, e, p)
                    brute = nabla_cell_dimension_bruteforce(lam, e, p)
                    ok = ok and cell.dimension == brute == min(e, gap)
    elapsed = time.monotonic() - start
    report(6, f"nabla-cell dimension = min(e, gap), brute-force confirmed "
              f"({elapsed:.2f}s < 5s)", ok and elapsed < 5.0)


def test_criterion_7_torsor_solver():
    rng = random.Random(707)
    prec = 64  # working modulus u^64
    ok = True
    for _ in range(50):
        d = rng.choice((1, 2))
        p = rng.choice((2, 3))
        e = rng.choice((1, 2))
        N = 1
        while e > (p - 1) * N - 1:  # eh <= (p-1)N - 1 with h = 1
            N += 1
        bk = _random_height_one(rng, d, e, prec, p)
        g = _random_g(rng, d, N, prec, p)
        g0 = torsor_solve(bk, g, N)
        # round trip: residual g0^{-1} C phi(g0) - g C vanishes to the
        # achievable precision
        recovered = inverse_direction_check(bk, g0)
        m = min(g.prec, recovered.prec)
        ok = ok and recovered.eq_mod(g, m)
        # uniqueness under a perturbed restart
        start = _random_g(rng, d, N, prec, p)
        g0_again = torsor_solve(bk, g, N, start=start)
        ok = ok and g0_again.eq_mod(g0, min(g0.prec, g0_again.prec))
    report(7, "torsor solver: 50 random (C,g) at u^64, round trip + "
              "uniqueness", ok)


def test_criterion_8_interpolation():
    ctx = TameFieldContext(5, 2, prec=40)
    ok = True
    # worked instance p=5, e=2, r=(2,2)
    m = [ctx.from_rational(Fraction(k % 3 + 1)) for k in range(5)]
    _, rep = interpolate_claim(m, {0: 2, 1: 2}, 0, ctx)
    ok = ok and rep.passed
    ok = ok and all(b == 5 - (2 + n) for n, _, b in rep.valuation_ledger)
    rng = random.Random(808)
    for _ in range(100):
        m = [ctx.from_rational(rng.randint(0, 24)) for _ in range(5)]
        r = {0: rng.randint(1, 3)}
        r[1] = rng.randint(0, 5 - r[0] - 1)
        M, rep = interpolate_claim(m, r, 0, ctx)
        ok = ok and rep.passed and rep.ledger_respected
        # verified at precision pi^10 or better on every monomial coefficient
        ok = ok and all(c.prec >= 10 for c in M.coeffs)
    report(8, "interpolation: worked instance + 100 randomized, ledger "
              "matches p-(sum r'+n)nu at precision >= pi^10", ok)


def test_criterion_9_duality():
    rng = random.Random(909)
    ok = True
    for base in (special_base(5, 2), generic_base([1, -1])):
        for _ in range(100):
            L = _random_lattice(rng, base)
            ok = ok and smith_type(lattice_dual(L)) == dual_weight(
                smith_type(L)
            )
    report(9, "duality: type(dual) = dual(type) on 100 lattices per base",
           ok)


def _random_unipotent(rng, prec, p):
    g = LaurentSeriesMatrix.identity(2, prec, p)
    for _ in range(2):
        i = rng.randrange(2)
        a = TruncSeries([0] + [rng.randrange(p) for _ in range(3)], prec, p)
        num = [
            [TruncSeries.one(prec, p), TruncSeries.zero(prec, p)],
            [TruncSeries.zero(prec, p), TruncSeries.one(prec, p)],
        ]
        num[i][1 - i] = a
        g = g * LaurentSeriesMatrix(num, 0)
    return g


def test_criterion_10_psi_properties():
    rng = random.Random(1010)
    base = special_base(3, 2)
    prec, p = 64, 3
    ok = True
    for _ in range(50):
        diag = [
            [TruncSeries.monomial(rng.randint(0, 2), prec, p)
             if i == j else TruncSeries.zero(prec, p) for j in range(2)]
            for i in range(2)
        ]
        C = _random_unit_matrix(rng, 2, prec, p) * LaurentSeriesMatrix(diag, 0)
        # left unit multiplication leaves psi unchanged
        g_unit = _random_unit_matrix(rng, 2, prec, p)
        ok = ok and psi_lattice(g_unit * C, base) == psi_lattice(C, base)
        # conjugation twists psi by phi(g)^{-1}
        g = _random_unipotent(rng, prec, p)
        conj = g.inverse() * C * g.phi(prec)
        F = base.field
        phi_g = [
            [Poly.of(F, [int(x) for x in g.phi(prec).num[i][j].coeffs])
             for j in range(2)]
            for i in range(2)
        ]
        ok = ok and psi_lattice(conj, base).left_multiply(
            phi_g
        ) == psi_lattice(C, base)
    report(10, "psi-lattice: unit invariance + conjugation twist on 50 "
               "instances", ok)


def test_criterion_11_filtration_nabla_containment():
    rng = random.Random(1111)
    ok = True
    for _ in range(50):
        e = rng.randint(1, 3)
        pis = rng.sample([1, -1, 2, -2, 3, -3], e)
        base = generic_base(pis)
        mus, fils = [], []
        for _ in range(e):
            m1 = rng.randint(0, 3)
            m2 = rng.randint(0, m1)
            mus.append((m1, m2))
            if m1 > m2:
                fils.append([rng.randint(-2, 2), rng.randint(1, 3)])
            else:
                fils.append(None)
        L = filtration_to_lattice(base, mus, fils)
        ok = ok and nabla_check(L)
    report(11, "filtration-to-lattice outputs satisfy the nabla containment "
               "(50 random configurations)", ok)
