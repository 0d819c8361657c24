"""Weyl characters: dimension oracles, tensor products, decomposition."""

import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bmlocal.characters import (
    Character,
    _weyl_character_poly,
    decompose,
    generalized_weyl_dim,
    tensor_multiplicities,
    weyl_character,
    weyl_dim,
)
from bmlocal.errors import InvalidWeight, NonTerminating, RankMismatch
from bmlocal.laurent import signed_orbit_sum
from bmlocal.weights import (
    as_weight,
    dominant_weight,
    is_dominant,
    minus_rho,
    plus_rho,
    rho,
)


def peel(ch):
    """Reference decomposition by highest-weight peeling: subtract the
    Weyl character of the lexicographically largest exponent until
    nothing remains."""
    remainder = ch.poly
    result = {}
    for _ in range(100_000):
        if remainder.is_zero():
            return {w: m for w, m in result.items() if m != 0}
        lead = max(remainder.terms)
        if not is_dominant(lead):
            raise NonTerminating(f"leading exponent {lead} not dominant")
        m = remainder.terms[lead]
        result[lead] = result.get(lead, 0) + m
        remainder = remainder - m * weyl_character(lead).poly
    raise NonTerminating("peeling budget exceeded")


@st.composite
def dominant_weights(draw, d):
    """A dominant weight of length d with spread <= 3 (<= 2 for d = 4),
    translated by a scalar that may be large and of either sign."""
    top = 3 if d < 4 else 2
    entries = sorted(
        draw(st.lists(st.integers(0, top), min_size=d, max_size=d)),
        reverse=True,
    )
    shift = draw(st.one_of(st.integers(-5, 5),
                           st.sampled_from([-10**12, -10**6, 10**6, 10**15])))
    return tuple(x + shift for x in entries)


def _reference_tensor_multiplicities(weights) -> dict:
    """The Laurent product and read-off that the Brauer-Klimyk rule
    replaced: A(top + rho) times the other characters in full, then the
    strictly dominant exponents of the antisymmetric product."""
    ws = [as_weight(w) for w in weights]
    if not ws:
        raise InvalidWeight("need at least one weight")
    if len({len(w) for w in ws}) > 1:
        raise RankMismatch(f"weights of lengths {sorted({len(w) for w in ws})}")
    ws = [dominant_weight(w) for w in ws]
    top = max(ws, key=lambda w: w[0] - w[-1])
    ws.remove(top)
    product = signed_orbit_sum(plus_rho(top))
    for w in ws:
        product = product * weyl_character(w).poly
    if not product.is_antisymmetric():
        raise NonTerminating("character times A(rho) not antisymmetric: "
                             "input not symmetric")
    return {
        minus_rho(v): m for v, m in product.terms.items() if is_dominant(v)
    }


@st.composite
def weight_lists(draw):
    d = draw(st.integers(2, 4))
    return draw(st.lists(dominant_weights(d), min_size=1, max_size=3))


def sl2_dim(a, b):
    return a - b + 1


def test_dimension_oracle_gl2():
    for a in range(6):
        for b in range(a + 1):
            ch = weyl_character((a, b))
            assert ch.dim() == sl2_dim(a, b) == weyl_dim((a, b))


def test_dimension_oracle_gl3():
    # Weyl dimension formula for GL_3
    for w in [(0, 0, 0), (1, 0, 0), (1, 1, 0), (2, 1, 0), (3, 1, 0)]:
        a, b, c = w
        want = (a - b + 1) * (b - c + 1) * (a - c + 2) // 2
        assert weyl_dim(w) == want
        assert weyl_character(w).dim() == want


def test_character_symmetry_and_central_twist():
    ch = weyl_character((3, 1))
    assert ch.poly.is_symmetric()
    # tensoring with det shifts every exponent by one
    det = weyl_character((1, 1))
    assert ch * det == weyl_character((4, 2))


def test_clebsch_gordan_small():
    got = decompose(weyl_character((2, 0)) * weyl_character((1, 0)))
    assert got == {(3, 0): 1, (2, 1): 1}


def test_decompose_round_trip_random():
    rng = random.Random(11)
    for _ in range(15):
        a = (rng.randint(0, 5), 0)
        b = (rng.randint(0, 5), rng.randint(-2, 0))
        b = (max(b), min(b))
        prod = weyl_character(a) * weyl_character(b)
        mult = decompose(prod)
        rebuilt = None
        for lam, m in mult.items():
            term = weyl_character(lam)
            for _ in range(m - 1):
                term = term + weyl_character(lam)
            rebuilt = term if rebuilt is None else rebuilt + term
        assert rebuilt == prod
        # dimension bookkeeping
        assert sum(m * weyl_dim(l) for l, m in mult.items()) == prod.dim()


def test_generalized_dim_vanishes_on_walls():
    # a rho-shift landing on a wall gives zero
    assert generalized_weyl_dim((0, 1)) == 0


def test_generalized_dim_sign():
    # reflecting across a wall flips the sign
    assert generalized_weyl_dim((0, 2)) == -generalized_weyl_dim((1, 1))


def test_decompose_rejects_non_symmetric():
    from bmlocal.characters import Character
    from bmlocal.laurent import LaurentPoly

    bad = LaurentPoly.monomial((0, 1))  # not symmetric
    with pytest.raises(ValueError):
        Character(bad)
    with pytest.raises(NonTerminating):
        decompose(Character(bad, check=False))


@given(weight_lists())
@settings(max_examples=40, deadline=None)
def test_tensor_multiplicities_matches_peeling(ws):
    product = weyl_character(ws[0])
    for w in ws[1:]:
        product = product * weyl_character(w)
    assert tensor_multiplicities(ws) == peel(product)


@given(st.integers(2, 3).flatmap(
    lambda d: st.lists(
        st.tuples(dominant_weights(d), st.integers(-3, 3)),
        min_size=1, max_size=4,
    )
))
@settings(max_examples=40, deadline=None)
def test_decompose_virtual_matches_peeling(terms):
    want = {}
    poly = None
    for w, m in terms:
        want[w] = want.get(w, 0) + m
        term = weyl_character(w).poly * m
        poly = term if poly is None else poly + term
    ch = Character(poly)
    got = decompose(ch)
    assert got == peel(ch)
    assert got == {w: m for w, m in want.items() if m != 0}


# Each @example lands v + nu on a wall in some step: (1,0)^3 at (2,1) +
# (0,1); (2,2,0)(2,0,0) at (4,3,0) + (0,1,1).
@given(st.integers(2, 4).flatmap(
    lambda d: st.lists(dominant_weights(d), min_size=1, max_size=4)),
    st.randoms(use_true_random=False))
@example([(1, 0)] * 3, random.Random(0))
@example([(2, 2, 0), (2, 0, 0)], random.Random(0))
@example([(10**15 + 1, 10**15), (1 - 10**12, -10**12), (10**6, 10**6)],
         random.Random(1))
@settings(max_examples=60, deadline=None)
def test_tensor_multiplicities_matches_laurent_product(ws, rng):
    want = _reference_tensor_multiplicities(ws)
    shuffled = list(ws)
    rng.shuffle(shuffled)
    assert tensor_multiplicities(shuffled) == want
    product = weyl_character(ws[0])
    for w in ws[1:]:
        product = product * weyl_character(w)
    assert tensor_multiplicities(ws) == decompose(product) == want


def test_tensor_multiplicities_refusals():
    with pytest.raises(InvalidWeight, match="at least one weight"):
        tensor_multiplicities([])
    with pytest.raises(RankMismatch):
        tensor_multiplicities([(2, 0), (1, 0, 0)])
    with pytest.raises(InvalidWeight, match="not dominant"):
        tensor_multiplicities([(2, 0), (0, 1)])


@given(st.integers(2, 4).flatmap(dominant_weights),
       st.sampled_from([10**6, -10**6, -10**12]))
@settings(max_examples=40, deadline=None)
def test_translated_character_matches_direct_quotient(w, c):
    moved = tuple(x + c for x in w)
    r = rho(len(w))
    direct = signed_orbit_sum(tuple(a + b for a, b in zip(moved, r))).divide(
        signed_orbit_sum(r))
    assert weyl_character(moved).poly == direct


def test_translates_share_one_cache_entry():
    w = (3, 1, 0)
    weyl_character(w)
    size = _weyl_character_poly.cache_info().currsize
    for k in range(1, 51):
        moved = tuple(x + 7919 * k for x in w)
        weyl_character(moved)
        tensor_multiplicities([(6, 0, 0), moved])
    assert _weyl_character_poly.cache_info().currsize == size
