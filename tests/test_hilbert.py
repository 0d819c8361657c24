"""Hilbert-defect checks: shifted identity, degree bounds, equality forcing."""

import random

import pytest

from bmlocal.characters import decompose, weyl_character
from bmlocal.errors import BoundViolated, WindowTooShort
from bmlocal.hilbert import (
    DefectSeries,
    defect_degree,
    defect_values,
    dim_product,
    equality_forcing_check,
    shifted_identity_check,
)
from bmlocal.weights import flag_dim, rho


def true_multiplicities(mu_list):
    r = rho(2)
    ch = None
    for w in mu_list:
        shifted = tuple(a - b for a, b in zip(w, r))
        factor = weyl_character(shifted)
        ch = factor if ch is None else ch * factor
    return decompose(ch)


def random_corpus(seed, size=20):
    rng = random.Random(seed)
    out = []
    for _ in range(size):
        e = rng.randint(1, 3)
        mu_list = []
        for _ in range(e):
            top = rng.randint(1, 4)
            bot = rng.randint(0, top - 1)
            mu_list.append((top, bot))
        out.append(mu_list)
    return out


def test_dim_product_worked_instance():
    # mu = ((2,0),(2,0)): the rho-shifted product of dimensions is 4n^2
    for n in range(1, 6):
        assert dim_product([(2, 0), (2, 0)], n, "minus_rho") == 4 * n * n


def test_shifted_identity_exact_on_corpus():
    for mu_list in random_corpus(3):
        mult = true_multiplicities(mu_list)
        ok, first_fail = shifted_identity_check(mu_list, mult, 8)
        assert ok, (mu_list, first_fail)


def test_defect_degree_worked_instances():
    for mu_list, closed_form in [
        ([(2, 0), (2, 0)], lambda n: -2 * n - 1),
        ([(3, 0), (2, 0)], lambda n: -3 * n - 1),
    ]:
        mult = true_multiplicities(mu_list)
        vals = defect_values(mu_list, mult, range(1, 7))
        assert vals == [(n, closed_form(n)) for n in range(1, 7)]
        series, degree, ok = defect_degree(mu_list, mult)
        assert ok and degree == 1
        assert degree < sum(flag_dim(w) for w in mu_list)


def test_defect_degree_bound_on_corpus():
    for mu_list in random_corpus(5):
        mult = true_multiplicities(mu_list)
        _, degree, ok = defect_degree(mu_list, mult)
        assert ok, (mu_list, degree)


def test_equality_forcing_detects_every_overcount():
    for mu_list in random_corpus(7, size=10):
        mult = true_multiplicities(mu_list)
        for lam in mult:
            assert equality_forcing_check(mu_list, mult, {lam: 1}), (
                mu_list,
                lam,
            )


def test_finite_differences():
    s = DefectSeries(values=tuple((n, n * n + 1) for n in range(1, 8)),
                     claimed_degree_bound=3)
    assert s.finite_difference_degree() == 2


def test_window_too_short():
    s = DefectSeries(values=((1, 1), (2, 4)), claimed_degree_bound=1)
    with pytest.raises(WindowTooShort):
        s.finite_difference_degree()


@pytest.mark.parametrize("n_max", [0, -1])
def test_shifted_identity_needs_some_n(n_max):
    mu_list = [(2, 0)]
    mult = true_multiplicities(mu_list)
    with pytest.raises(BoundViolated):
        shifted_identity_check(mu_list, mult, n_max)
