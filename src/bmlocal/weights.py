"""Weights, dominance, rho-shifts, duality, Hodge types and bound checks.

A weight is a plain tuple of d integers: ``as_weight`` and
``dominant_weight`` are the package's one parse and one dominance
refusal, and ``plus_rho`` / ``minus_rho`` its one rho-shift.  Embedding
labels are derived from (p, e, f) by :class:`EmbeddingData`; a Hodge
type assigns a dominant weight to every embedding.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

from .errors import BoundViolated, InvalidWeight
from .primes import require_prime

__all__ = [
    "Weight",
    "as_weight",
    "dominant_weight",
    "rho",
    "plus_rho",
    "minus_rho",
    "is_dominant",
    "dominance_leq",
    "dual_weight",
    "flag_dim",
    "EmbeddingData",
    "HodgeType",
    "tilde_lift",
    "validate_hodge_bound",
]

Weight = tuple  # tuple of ints, length d


def _integer(x) -> int:
    """x as an exact int; TypeError for a non-integer or a bool."""
    if type(x) is bool:
        raise TypeError("a bool is not a weight entry")
    return operator.index(x)


def as_weight(entries) -> Weight:
    """entries as a tuple of exact ints; InvalidWeight for an entry that is
    not an integer (a float such as 1.5 or 2.0, a string, a bool such as
    a JSON true), never truncated."""
    try:
        return tuple(map(_integer, entries))
    except TypeError:
        raise InvalidWeight(f"{entries!r} is not a list of integers") from None


def dominant_weight(entries) -> Weight:
    """``as_weight(entries)``; InvalidWeight unless it is dominant."""
    w = as_weight(entries)
    if not is_dominant(w):
        raise InvalidWeight(f"{w} is not dominant")
    return w


def rho(d: int) -> Weight:
    """The shift vector (d-1, d-2, ..., 1, 0)."""
    if d < 1:
        raise ValueError("d must be >= 1")
    return tuple(range(d - 1, -1, -1))


def plus_rho(w: Weight) -> Weight:
    """w + rho(len(w))."""
    return tuple(a + b for a, b in zip(w, rho(len(w))))


def minus_rho(w: Weight) -> Weight:
    """w - rho(len(w))."""
    return tuple(a - b for a, b in zip(w, rho(len(w))))


def is_dominant(w: Weight) -> bool:
    return all(w[i] >= w[i + 1] for i in range(len(w) - 1))


def dominance_leq(a: Weight, b: Weight) -> bool:
    """Standard dominance order on equal-sum dominant weights.

    a <= b iff every top partial sum of a is <= that of b, with equality
    of totals.
    """
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    sa = sb = 0
    for i in range(len(a)):
        sa += a[i]
        sb += b[i]
        if sa > sb:
            return False
    return sa == sb


def dual_weight(w: Weight) -> Weight:
    """Entries negated and reversed; an involution preserving dominance."""
    return tuple(-x for x in reversed(w))


def flag_dim(w: Weight) -> int:
    """Number of pairs i < j with w_i != w_j (dimension of the flag variety)."""
    d = len(w)
    return sum(1 for i in range(d) for j in range(i + 1, d) if w[i] != w[j])


@dataclass(frozen=True)
class EmbeddingData:
    """The embeddings of a local field of degree e*f over Q_p.

    The f residue embeddings are labelled 0, ..., f - 1; the e embeddings
    above residue embedding i are (i, 0), ..., (i, e - 1), and (i, 0) is
    its distinguished lift.  ``p`` must be prime (NotPrime otherwise), e
    and f at least 1 (BoundViolated otherwise).
    """

    p: int
    e: int
    f: int

    def __post_init__(self):
        require_prime(self.p)
        if self.e < 1 or self.f < 1:
            raise BoundViolated(f"e = {self.e}, f = {self.f}: both must be >= 1")

    @property
    def residue_embeddings(self) -> tuple:
        return tuple(range(self.f))

    @property
    def embeddings(self) -> tuple:
        return tuple(k for k0 in self.residue_embeddings for k in self.above(k0))

    @property
    def distinguished_lift(self) -> dict:
        return {k0: (k0, 0) for k0 in self.residue_embeddings}

    def above(self, k0) -> tuple:
        """Embeddings restricting to the residue embedding k0, in label order."""
        return tuple((k0, j) for j in range(self.e))

    @classmethod
    def standard(cls, p: int, e: int, f: int) -> "EmbeddingData":
        return cls(p=p, e=e, f=f)


@dataclass(frozen=True)
class HodgeType:
    """A dominant weight for each embedding, plus the embedding data."""

    weights: dict  # embedding label -> Weight
    embedding_data: EmbeddingData

    def __post_init__(self):
        clean = {k: dominant_weight(w) for k, w in self.weights.items()}
        object.__setattr__(self, "weights", clean)
        emb = self.embedding_data
        if set(clean) != set(emb.embeddings):
            raise ValueError("weights must be indexed exactly by the embeddings")
        lengths = {len(w) for w in clean.values()}
        if len(lengths) != 1:
            raise ValueError("all weights must share the same length d")

    @property
    def d(self) -> int:
        return len(next(iter(self.weights.values())))

    def is_regular(self) -> bool:
        """True iff every weight has pairwise-distinct entries."""
        return all(len(set(w)) == len(w) for w in self.weights.values())

    def weights_above(self, k0):
        return tuple(self.weights[k] for k in self.embedding_data.above(k0))


def tilde_lift(lam_tuple: dict, emb: EmbeddingData) -> HodgeType:
    """Lift a residue-indexed tuple of dominant weights to a Hodge type.

    Places lam + rho at the distinguished embedding above each residue
    label and rho at every other embedding.
    """
    lam_tuple = {k0: dominant_weight(w) for k0, w in lam_tuple.items()}
    if set(lam_tuple) != set(emb.residue_embeddings):
        raise ValueError("expected one weight per residue embedding")
    d = len(next(iter(lam_tuple.values())))
    r = rho(d)
    weights = {}
    for k0 in emb.residue_embeddings:
        lifted = emb.distinguished_lift[k0]
        for k in emb.above(k0):
            weights[k] = plus_rho(lam_tuple[k0]) if k == lifted else r
    return HodgeType(weights=weights, embedding_data=emb)


def validate_hodge_bound(mu: HodgeType, kind: str) -> dict:
    """Check the per-residue sums of top-minus-bottom entries of mu.

    kind "natural": each sum must be <= e + p - 1 (the bound under which
    the characteristic-zero multiplicities compute the answer);
    kind "theoremA": each sum must be <= p.
    """
    emb = mu.embedding_data
    if kind == "natural":
        limit = emb.e + emb.p - 1
    elif kind == "theoremA":
        limit = emb.p
    else:
        raise ValueError(f"unknown bound kind {kind!r}")
    sums = {}
    ok = True
    for k0 in emb.residue_embeddings:
        s = sum(w[0] - w[-1] for w in mu.weights_above(k0))
        sums[k0] = s
        if s > limit:
            ok = False
    return {"pass": ok, "kind": kind, "limit": limit, "per_residue_sums": sums}
