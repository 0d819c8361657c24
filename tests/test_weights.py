"""Weight combinatorics: dominance order, duals, flag dimensions, lifts."""

import itertools

import numpy as np
import pytest

from bmlocal.errors import BoundViolated, InvalidWeight, NotPrime
from bmlocal.weights import (
    EmbeddingData,
    HodgeType,
    as_weight,
    dominance_leq,
    dominant_weight,
    dual_weight,
    flag_dim,
    is_dominant,
    minus_rho,
    plus_rho,
    rho,
    tilde_lift,
    validate_hodge_bound,
)


def test_rho():
    assert rho(2) == (1, 0)
    assert rho(4) == (3, 2, 1, 0)


def test_dominance_is_a_partial_order():
    weights = [
        w
        for w in itertools.product(range(4), repeat=3)
        if is_dominant(w) and sum(w) == 4
    ]
    for a in weights:
        assert dominance_leq(a, a)
        for b in weights:
            if dominance_leq(a, b) and dominance_leq(b, a):
                assert a == b
            for c in weights:
                if dominance_leq(a, b) and dominance_leq(b, c):
                    assert dominance_leq(a, c)


def test_dominance_examples():
    # (2,1,1) <= (2,2,0) <= (3,1,0) <= (4,0,0) in the usual orientation
    chain = [(2, 1, 1), (2, 2, 0), (3, 1, 0), (4, 0, 0)]
    for a, b in zip(chain, chain[1:]):
        assert dominance_leq(a, b)
        assert not dominance_leq(b, a)
    assert not dominance_leq((3, 1, 0), (2, 2, 1))  # different totals


def test_dual_weight_involution():
    for w in [(3, 1), (5, 2, 0), (1, 1, 1, 0)]:
        assert dual_weight(dual_weight(w)) == w
    assert dual_weight((3, 1)) == (-1, -3)


def test_flag_dim():
    assert flag_dim((1, 0)) == 1       # P^1
    assert flag_dim((2, 2)) == 0       # no jumps: a point
    assert flag_dim((2, 1, 0)) == 3    # full flag variety of GL_3
    assert flag_dim((3, 1, 1)) == 2    # partial flag P^2


def test_standard_embedding_data():
    emb = EmbeddingData.standard(5, 2, 1)
    assert len(emb.embeddings) == 2
    assert len(emb.residue_embeddings) == 1
    k0 = emb.residue_embeddings[0]
    assert set(emb.above(k0)) == set(emb.embeddings)
    assert emb.distinguished_lift[k0] in emb.embeddings


def test_hodge_type_requires_dominant_weights():
    emb = EmbeddingData.standard(5, 2, 1)
    ks = emb.embeddings
    with pytest.raises(ValueError):
        HodgeType(weights={ks[0]: (0, 2), ks[1]: (1, 0)}, embedding_data=emb)


def test_tilde_lift_worked_instances():
    emb = EmbeddingData.standard(5, 2, 1)
    k0 = emb.residue_embeddings[0]
    for lam, want in [((2, 0), (3, 0)), ((1, 1), (2, 1))]:
        lift = tilde_lift({k0: lam}, emb)
        dk = emb.distinguished_lift[k0]
        assert lift.weights[dk] == want
        for k in emb.embeddings:
            if k != dk:
                assert lift.weights[k] == rho(2)


def test_validate_hodge_bound():
    emb = EmbeddingData.standard(5, 2, 1)
    ks = sorted(emb.embeddings)
    mu = HodgeType(
        weights={ks[0]: (2, 0), ks[1]: (2, 0)}, embedding_data=emb
    )
    nat = validate_hodge_bound(mu, "natural")
    assert nat["pass"] and nat["limit"] == 2 + 5 - 1
    thm = validate_hodge_bound(mu, "theoremA")
    assert thm["pass"] and thm["limit"] == 5

    big = HodgeType(
        weights={ks[0]: (6, 0), ks[1]: (6, 0)}, embedding_data=emb
    )
    assert not validate_hodge_bound(big, "natural")["pass"]
    with pytest.raises(ValueError):
        validate_hodge_bound(mu, "nonsense")


def test_embedding_data_requires_prime():
    with pytest.raises(NotPrime):
        EmbeddingData.standard(6, 1, 1)


def test_as_weight_takes_exact_integers_only():
    assert as_weight([3, -1]) == (3, -1)
    assert as_weight(np.array([2, 0])) == (2, 0)
    assert all(type(x) is int for x in as_weight((np.int64(2), np.int32(0))))
    assert as_weight([0, 2]) == (0, 2)  # no dominance required
    for bad in ([1.5, 0], [2.0, 0], [np.float64(1), 0], ["1", 0], "10", 3):
        with pytest.raises(InvalidWeight, match="not a list of integers"):
            as_weight(bad)


def test_as_weight_refuses_booleans():
    # operator.index(True) is 1: a bool must not pass as the entry 1
    for bad in ([True, False], [2, True], (False,), [np.True_, 0]):
        with pytest.raises(InvalidWeight, match="not a list of integers"):
            as_weight(bad)
    with pytest.raises(InvalidWeight, match="not a list of integers"):
        dominant_weight([True, False])


def test_dominant_weight_refuses_non_integers_and_non_dominant():
    assert dominant_weight([2, 2, -1]) == (2, 2, -1)
    assert dominant_weight(np.array([5, 1])) == (5, 1)
    with pytest.raises(InvalidWeight, match="not dominant"):
        dominant_weight([0, 1])
    with pytest.raises(InvalidWeight, match="not a list of integers"):
        dominant_weight([3.9, 0])
    assert issubclass(InvalidWeight, ValueError)


def test_rho_shifts():
    assert plus_rho((2, 0)) == (3, 0)
    assert minus_rho((3, 1, 0)) == (1, 0, 0)
    assert minus_rho(plus_rho((4, 4, 2, -7))) == (4, 4, 2, -7)


def test_embedding_labels_derive_from_e_and_f():
    emb = EmbeddingData.standard(5, 2, 3)
    assert emb.residue_embeddings == (0, 1, 2)
    assert emb.above(1) == ((1, 0), (1, 1))
    assert emb.embeddings == tuple((i, j) for i in range(3) for j in range(2))
    assert emb.distinguished_lift == {0: (0, 0), 1: (1, 0), 2: (2, 0)}
    for e, f in ((0, 1), (1, 0), (-1, 2)):
        with pytest.raises(BoundViolated):
            EmbeddingData.standard(5, e, f)
