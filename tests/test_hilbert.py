"""Hilbert-defect checks: shifted identity, degree bounds, equality forcing."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bmlocal.characters import decompose, tensor_multiplicities, weyl_character
from bmlocal.errors import BoundViolated, WindowTooShort
from bmlocal.hilbert import (
    DefectSeries,
    _defect_series,
    defect_degree,
    defect_values,
    dim_product,
    equality_forcing_check,
    overcount_detected,
    shifted_identity_check,
)
from bmlocal.weights import as_weight, flag_dim, minus_rho, rho


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


def _reference_equality_forcing_check(mu_list, mult, overcount, n_range=None):
    """The per-overcount re-sampling that overcount_detected replaced: add
    the overcount to the multiplicities and sample the whole defect again."""
    if not any(x > 0 for x in overcount.values()):
        raise ValueError("overcount must have some positive entry")
    if any(x < 0 for x in overcount.values()):
        raise ValueError("overcount entries must be >= 0")
    inflated = dict(mult)
    for lam, extra in overcount.items():
        lam = as_weight(lam)
        inflated[lam] = inflated.get(lam, 0) + extra
    series = _defect_series(mu_list, inflated, n_range)
    return series.finite_difference_degree() >= series.claimed_degree_bound


@st.composite
def forcing_cases(draw):
    """A mu_list (e = 1-3, d = 2-3, mu - rho dominant, translated), the
    multiplicities to sample and an overcount with extras of 1-3.

    The sampled multiplicities are the true ones, or the true ones with a
    deficit k at some lam0 that the overcount may restore exactly (then
    the defect keeps its low degree: not detected).  Besides weights of
    the decomposition, the overcount may hold a dominant weight outside it
    or a weight whose rho-shift lies on a wall (whose samples vanish)."""
    d = draw(st.integers(2, 3))
    mu_list = []
    for _ in range(draw(st.integers(1, 3))):
        gaps = draw(st.lists(st.integers(1, 3), min_size=d - 1, max_size=d - 1))
        mu = [draw(st.sampled_from([0, 3, -7, 10**6, -10**6]))]
        for g in reversed(gaps):
            mu.insert(0, mu[0] + g)
        mu_list.append(tuple(mu))
    mult = tensor_multiplicities([minus_rho(w) for w in mu_list])
    weights = sorted(mult)
    overcount = {}
    if draw(st.booleans()):
        lam0 = draw(st.sampled_from(weights))
        k = draw(st.integers(1, 3))
        mult = {**mult, lam0: mult[lam0] - k}
        overcount[lam0] = k
    for lam in draw(st.lists(st.sampled_from(weights), max_size=2)):
        overcount[lam] = overcount.get(lam, 0) + draw(st.integers(1, 3))
    total = sum(weights[0])  # the one total every weight of mult has
    outside = (total + 10**9,) + (0,) * (d - 2) + (-10**9,)
    wall = (0, 1) + (0,) * (d - 2)
    for lam in (outside, wall):
        if draw(st.booleans()) or not overcount:
            overcount[lam] = draw(st.integers(1, 3))
    return mu_list, mult, overcount


def _outcome(check, *args):
    try:
        return check(*args)
    except WindowTooShort:
        return WindowTooShort


@given(forcing_cases())
@settings(max_examples=60, deadline=None)
def test_one_defect_sample_matches_resampling(case):
    mu_list, mult, overcount = case
    want = _outcome(_reference_equality_forcing_check, mu_list, mult, overcount)
    assert _outcome(equality_forcing_check, mu_list, mult, overcount) == want
    series, _, _ = defect_degree(mu_list, mult)
    assert _outcome(overcount_detected, series, mu_list, overcount) == want
    for lam in mult:
        assert overcount_detected(series, mu_list, {lam: 1}) == (
            _reference_equality_forcing_check(mu_list, mult, {lam: 1}))


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
