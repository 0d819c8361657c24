"""Ring axioms and symmetry predicates for multivariate Laurent polynomials."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bmlocal.errors import InexactDivision, RankMismatch
from bmlocal.characters import weyl_character
from bmlocal.laurent import LaurentPoly, signed_orbit_sum, sorting_sign

RANK = 3


def poly_strategy(rank=RANK, max_terms=5):
    expo = st.tuples(*([st.integers(-3, 3)] * rank))
    term = st.tuples(expo, st.integers(-9, 9))
    return st.lists(term, max_size=max_terms).map(
        lambda terms: sum(
            (LaurentPoly.monomial(e, c) for e, c in terms),
            LaurentPoly.zero(rank),
        )
    )


@given(poly_strategy(), poly_strategy(), poly_strategy())
@settings(max_examples=60, deadline=None)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + LaurentPoly.zero(RANK) == a
    assert a * LaurentPoly.one(RANK) == a
    assert a - a == LaurentPoly.zero(RANK)


@given(poly_strategy())
@settings(max_examples=40, deadline=None)
def test_scale_exponents_is_multiplicative(a):
    b = a.scale_exponents(2)
    assert (a * a).scale_exponents(2) == b * b


def test_monomial_coefficients():
    m = LaurentPoly.monomial((1, -2, 0), 5)
    assert m.coeff((1, -2, 0)) == 5
    assert m.coeff((0, 0, 0)) == 0
    assert m.dim() == 5


def test_rank_mismatch_rejected():
    with pytest.raises(RankMismatch):
        LaurentPoly.one(2) + LaurentPoly.one(3)


def test_signed_orbit_sum_antisymmetric():
    a = signed_orbit_sum((3, 1, 0))
    assert a.is_antisymmetric()
    assert not a.is_symmetric()
    # repeated entries collapse to zero
    assert signed_orbit_sum((2, 2, 0)).is_zero()


def _reference_signed_orbit_sum(v):
    """sum det(w) e(w(v)) with det(w) from a cycle walk of each permutation,
    the parity routine that sorting_sign replaced."""
    d = len(v)
    terms = {}
    for perm in itertools.permutations(range(d)):
        sign = 1
        seen = [False] * d
        for i in range(d):
            if seen[i]:
                continue
            j = i
            length = 0
            while not seen[j]:
                seen[j] = True
                j = perm[j]
                length += 1
            if length % 2 == 0:
                sign = -sign
        expo = tuple(v[perm[i]] for i in range(d))
        terms[expo] = terms.get(expo, 0) + sign
    return LaurentPoly(d, terms)


def test_signed_orbit_sum_matches_cycle_walk():
    for d in range(1, 5):
        for v in itertools.product(range(-1, d), repeat=d):
            assert signed_orbit_sum(v) == _reference_signed_orbit_sum(v), v
    assert sorting_sign((3, 1, 0)) == 1
    assert sorting_sign((1, 3, 0)) == -1
    assert sorting_sign((0, 1, 2, 3)) == 1  # two transpositions sort it
    assert sorting_sign((2, 0, 2)) == 0


def test_exact_division_round_trip():
    a = signed_orbit_sum((4, 2, 0))
    rho_sum = signed_orbit_sum((2, 1, 0))
    q = a.divide(rho_sum)
    assert q * rho_sum == a
    assert q.is_symmetric()


def test_inexact_division_raises():
    one = LaurentPoly.one(2)
    x = LaurentPoly.monomial((1, 0)) + LaurentPoly.monomial((0, 1))
    with pytest.raises(InexactDivision):
        (x + one).divide(x + x)  # coefficient 2 does not divide 1 exactly


def test_inexact_division_outside_exponent_box_refused():
    # x + 1 = q * (y + 1) has no solution; lex reduction alone never ends
    x = LaurentPoly.monomial((1, 0))
    y = LaurentPoly.monomial((0, 1))
    one = LaurentPoly.one(2)
    with pytest.raises(InexactDivision):
        (x + one).divide(y + one)
    with pytest.raises(InexactDivision):
        (x * x + one).divide(x + one)  # remainder 2 in one variable


def test_large_exact_quotient_accepted():
    # 200001 quotient terms: A((200001, 0)) / A((1, 0)) is exact
    assert weyl_character((200000, 0)).dim() == 200001
