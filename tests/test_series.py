"""Truncated power series over F_p: precision tracking, units, Frobenius."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bmlocal.errors import BoundViolated, NotPrime, PrecisionExhausted
from bmlocal.series import LaurentSeriesMatrix, TruncSeries, series_phi

P = 5
PREC = 16


def series_strategy():
    return st.lists(
        st.integers(0, P - 1), min_size=1, max_size=PREC
    ).map(lambda cs: TruncSeries(cs, PREC, P))


@given(series_strategy(), series_strategy(), series_strategy())
@settings(max_examples=60, deadline=None)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a - a == TruncSeries.zero(PREC, P)


@given(series_strategy(), series_strategy())
@settings(max_examples=40, deadline=None)
def test_phi_is_a_ring_homomorphism(a, b):
    cap = PREC
    assert series_phi(a * b, cap) == series_phi(a, cap) * series_phi(b, cap)
    assert series_phi(a + b, cap) == series_phi(a, cap) + series_phi(b, cap)


def test_phi_sends_u_to_u_power_p():
    u = TruncSeries.monomial(1, PREC, P)
    assert series_phi(u, PREC) == TruncSeries.monomial(P, PREC, P)


def test_phi_recovers_precision():
    s = TruncSeries([1, 2], 3, P)
    assert series_phi(s, 64).prec == min(P * 3, 64)


def test_valuation_and_unit():
    s = TruncSeries([0, 0, 3, 1], PREC, P)
    assert s.valuation() == 2
    assert not s.is_unit()
    assert TruncSeries([2, 0, 1], PREC, P).is_unit()


def test_inverse_of_unit():
    s = TruncSeries([1, 3, 0, 2], PREC, P)
    assert s * s.inverse() == TruncSeries.one(PREC, P)


def _recurrence_inverse(s):
    """Reference inverse: the O(M^2) term-by-term recurrence, in Python ints."""
    p, m = s.p, s.prec
    c = [int(x) for x in s.coeffs]
    inv0 = pow(c[0], p - 2, p)
    out = [inv0] + [0] * (m - 1)
    for k in range(1, m):
        acc = sum(c[i] * out[k - i] for i in range(1, k + 1))
        out[k] = (-inv0 * acc) % p
    return out


INVERSE_PRIMES = (2, 3, 5, 7, 2**31 - 1)


@st.composite
def unit_series(draw):
    p = draw(st.sampled_from(INVERSE_PRIMES))
    prec = draw(st.integers(1, 300))
    head = draw(st.integers(1, p - 1))
    tail = draw(st.lists(st.integers(0, p - 1), max_size=prec - 1))
    return TruncSeries([head] + tail, prec, p)


@given(unit_series())
@settings(max_examples=80, deadline=None)
def test_newton_inverse_is_an_inverse(s):
    assert s * s.inverse() == TruncSeries.one(s.prec, s.p)


@given(unit_series())
@settings(max_examples=40, deadline=None)
def test_newton_inverse_matches_recurrence(s):
    inv = s.inverse()
    assert inv.prec == s.prec
    assert inv.coeffs.tolist() == _recurrence_inverse(s)


def test_inverse_at_precisions_near_powers_of_two():
    rng = np.random.default_rng(5)
    for p in (2, 3, 2**31 - 1):
        for prec in (1, 2, 3, 63, 64, 65, 127, 129, 257):
            cs = rng.integers(0, min(p, 2**31), size=prec)
            cs[0] = 1
            s = TruncSeries(cs, prec, p)
            assert s.inverse().coeffs.tolist() == _recurrence_inverse(s)


def test_inverse_requires_prime_characteristic():
    with pytest.raises(NotPrime):
        TruncSeries([2, 1], PREC, 6).inverse()


def test_characteristic_bound():
    with pytest.raises(BoundViolated):
        TruncSeries([1], PREC, 2**62)
    q = 2**61 - 1  # prime, below the bound
    s = TruncSeries([q - 1, q - 2, 1], PREC, q)
    assert (s * (q - 1)).coeffs.tolist()[:3] == [1, 2, q - 1]
    assert (-s + s).is_zero()


def _phi_reference(s, working_modulus):
    p = s.p
    new_prec = min(p * s.prec, working_modulus)
    out = [0] * new_prec
    for i, c in enumerate(s.coeffs.tolist()):
        if i * p < new_prec:
            out[i * p] = c
    return out


def test_phi_at_ragged_precisions():
    rng = np.random.default_rng(9)
    for p in (2, 3, 5, 7):
        for prec in (1, 4, 7, 11):
            s = TruncSeries(rng.integers(0, p, size=prec), prec, p)
            # moduli below, at and above p*prec, divisible by p or not
            for wm in (1, 2, p * prec - 1, p * prec, p * prec + 3):
                got = series_phi(s, wm)
                assert got.prec == min(p * prec, wm)
                assert got.coeffs.tolist() == _phi_reference(s, wm)


def test_precision_floor():
    with pytest.raises(PrecisionExhausted):
        TruncSeries([0, 0], 2, P).divide_u(2)  # no known coefficients left
    with pytest.raises(ValueError):
        TruncSeries([1, 1], 2, P).divide_u(1)  # not divisible


def test_multiplication_tracks_min_precision():
    a = TruncSeries([1, 1], 4, P)
    b = TruncSeries([1, 2, 3], 7, P)
    assert (a * b).prec == 4


def _mat(entries, k=0):
    num = [[TruncSeries(c, PREC, P) for c in row] for row in entries]
    return LaurentSeriesMatrix(num, k)


def test_matrix_inverse_round_trip():
    m = _mat([[[1, 2], [0, 1]], [[0, 3], [1, 0, 4]]])
    prod = m * m.inverse()
    ident = LaurentSeriesMatrix.identity(2, PREC, P)
    assert prod.eq_mod(ident, prod.prec - prod.denom_exponent)


def test_matrix_denominator_normalization():
    # u * I with denominator u cancels back to I
    num = [
        [TruncSeries([0, 1], PREC, P), TruncSeries.zero(PREC, P)],
        [TruncSeries.zero(PREC, P), TruncSeries([0, 1], PREC, P)],
    ]
    m = LaurentSeriesMatrix(num, 1)
    assert m.denom_exponent == 0
    assert m.eq_mod(LaurentSeriesMatrix.identity(2, PREC, P), PREC - 1)


def test_is_one_mod():
    m = _mat([[[1, 0, 0, 2], [0, 0, 1]], [[0], [1, 0, 3]]])
    assert m.is_one_mod(2)
    assert not m.is_one_mod(3)


def _peel_normalize(num, k):
    """Reference: the former normalization, one power of u per step."""
    while k > 0 and all(s.coeffs[0] == 0 for row in num for s in row):
        num = [[s.divide_u(1) for s in row] for row in num]
        k -= 1
    return num, k


@st.composite
def denominated_matrices(draw):
    p = draw(st.sampled_from((2, 3, 5)))
    d = draw(st.integers(1, 3))
    num = []
    for _ in range(d):
        row = []
        for _ in range(d):
            prec = draw(st.integers(1, 12))
            val = draw(st.integers(0, prec))  # val = prec: zero within precision
            tail = draw(st.lists(st.integers(0, p - 1), max_size=prec - val))
            cs = [0] * val + ([1] + tail[1:] if tail else [])
            row.append(TruncSeries(cs[:prec], prec, p))
        num.append(row)
    return num, draw(st.integers(0, 15))


def _outcome(build):
    try:
        num, k = build()
    except PrecisionExhausted as exc:
        return "PrecisionExhausted", str(exc)
    return k, [[(s.prec, s.coeffs.tolist()) for s in row] for row in num]


@given(denominated_matrices())
@settings(max_examples=300, deadline=None)
def test_one_step_normalization_matches_peeling(case):
    num, k = case

    def one_step():
        m = LaurentSeriesMatrix(num, k)
        return m.num, m.denom_exponent

    assert _outcome(one_step) == _outcome(lambda: _peel_normalize(num, k))
