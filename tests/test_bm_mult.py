"""Multiplicity identities: support, worked instance, bounds, lifts."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bmlocal.bm_mult import (
    SerreTuple,
    _dominant_weights_below,
    bm_identity,
    bm_multiplicities,
    candidate_support,
    is_steinberg,
)
from bmlocal.errors import BoundViolated, IrregularHodgeType
from bmlocal.weights import EmbeddingData, HodgeType, dominance_leq, tilde_lift


def _dominant_weights_below_reference(bound: tuple) -> list:
    """The scan-and-filter enumeration that the bounded one replaced; it
    stops at -10**9, so it serves only for bounds near 0."""
    d = len(bound)
    total = sum(bound)
    out = []

    def rec(prefix, remaining):
        i = len(prefix)
        if i == d - 1:
            last = remaining
            if prefix and last > prefix[-1]:
                return
            w = prefix + (last,)
            if dominance_leq(w, bound):
                out.append(w)
            return
        partial_bound = sum(bound[: i + 1])
        prior = sum(prefix)
        hi = prefix[-1] if prefix else partial_bound
        for x in range(hi, -(10**9), -1):
            if prior + x > partial_bound:
                continue
            if remaining - x > x * (d - i - 1):
                break
            rec(prefix + (x,), remaining - x)

    rec((), total)
    return sorted(out, reverse=True)


def _mu(p, e, f, weights_list):
    emb = EmbeddingData.standard(p, e, f)
    ws = dict(zip(emb.embeddings, weights_list))
    return HodgeType(weights=ws, embedding_data=emb)


def test_worked_instance_p5_e2():
    mu = _mu(5, 2, 1, [(2, 0), (2, 0)])
    ident = bm_identity(mu)
    got = {st.components[0][1]: (m, lift) for st, m, lift in ident.terms}
    assert set(got) == {(2, 0), (1, 1)}
    m20, lift20 = got[(2, 0)]
    m11, lift11 = got[(1, 1)]
    assert m20 == 1 and m11 == 1
    # tilde lifts: lam + rho at the distinguished embedding, rho elsewhere
    assert sorted(lift20.weights.values()) == [(1, 0), (3, 0)]
    assert sorted(lift11.weights.values()) == [(1, 0), (2, 1)]
    assert ident.steinberg_flags == ()


def test_support_matches_multiplicities():
    mu = _mu(5, 2, 1, [(2, 0), (2, 0)])
    support = candidate_support(mu)
    mults = bm_multiplicities(mu)
    assert set(mults) <= set(support)
    assert {st.components[0][1] for st in support} == {(2, 0), (1, 1)}


def test_identity_of_a_lift_is_a_single_term():
    # the multiplicity identity of tilde(lam) contains lam with
    # multiplicity one and nothing else
    emb = EmbeddingData.standard(5, 2, 1)
    for lam in [(1, 0), (2, 0), (3, 0), (2, 1)]:
        mu = tilde_lift({0: lam}, emb)
        ident = bm_identity(mu)
        assert len(ident.terms) == 1
        st, m, lift = ident.terms[0]
        assert st.components[0][1] == lam and m == 1
        assert lift.weights == mu.weights


def test_multiplicities_positive_and_bounded():
    mu = _mu(7, 3, 1, [(2, 0), (2, 0), (2, 0)])
    mults = bm_multiplicities(mu)
    assert all(m > 0 for m in mults.values())
    # total dimension bookkeeping: sum over terms of m * prod dim(lam)
    from bmlocal.characters import weyl_dim

    lhs = 1
    for w in mu.weights.values():
        lhs *= weyl_dim((w[0] - 1, w[1]))
    rhs = sum(
        m * weyl_dim(st.components[0][1]) for st, m in mults.items()
    )
    assert lhs == rhs


def test_steinberg_detection():
    st = SerreTuple(components=((0, (4, 0)),), p=5)
    assert is_steinberg(st, 5)
    st2 = SerreTuple(components=((0, (3, 0)),), p=5)
    assert not is_steinberg(st2, 5)


def test_bound_refusals():
    with pytest.raises(BoundViolated):
        bm_identity(_mu(5, 2, 1, [(6, 0), (2, 0)]))  # theorem-A bound
    with pytest.raises(IrregularHodgeType):
        bm_identity(_mu(5, 2, 1, [(1, 1), (2, 0)]))  # not regular
    with pytest.raises(BoundViolated):
        bm_multiplicities(_mu(3, 2, 1, [(4, 0), (3, 0)]))  # natural bound


def test_serre_tuple_gap_validation():
    emb = EmbeddingData.standard(3, 1, 1)
    with pytest.raises(ValueError):
        SerreTuple.from_dict({0: (5, 0)}, emb)  # gap 5 > p - 1 = 2


@given(st.lists(st.integers(-4, 6), min_size=1, max_size=4))
@settings(max_examples=300, deadline=None)
def test_dominant_weights_below_matches_reference(bound):
    bound = tuple(bound)
    assert _dominant_weights_below(bound) == _dominant_weights_below_reference(
        bound
    )


@pytest.mark.parametrize("c", [0, 10**9, -(10**9), -3 * 10**9, 10**12])
def test_support_covers_translated_hodge_types(c):
    mu = _mu(5, 2, 1, [(2 + c, c), (2 + c, c)])
    mults = bm_multiplicities(mu)
    assert len(mults) == 2
    assert set(mults) <= set(candidate_support(mu))
