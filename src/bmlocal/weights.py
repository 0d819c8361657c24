"""Weights, dominance, rho-shifts, duality, Hodge types and bound checks.

A weight is a plain tuple of d integers.  Embedding bookkeeping (which
embeddings restrict to which residue embedding, and the distinguished
lift of each) lives in :class:`EmbeddingData`; a Hodge type assigns a
dominant weight to every embedding.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import InvalidWeight
from .primes import require_prime

__all__ = [
    "Weight",
    "rho",
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


def as_weight(entries) -> Weight:
    return tuple(int(x) for x in entries)


def rho(d: int) -> Weight:
    """The shift vector (d-1, d-2, ..., 1, 0)."""
    if d < 1:
        raise ValueError("d must be >= 1")
    return tuple(range(d - 1, -1, -1))


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
    """Labels for the embeddings of a local field of degree e*f over Q_p.

    ``residue_embeddings`` lists the f residue-field embedding labels;
    ``embeddings`` lists all e*f embedding labels; ``restriction`` maps
    each embedding to the residue embedding it restricts to;
    ``distinguished_lift`` picks one embedding above each residue label.
    ``p`` must be prime (NotPrime otherwise).
    """

    p: int
    e: int
    f: int
    residue_embeddings: tuple = ()
    embeddings: tuple = ()
    restriction: dict = field(default_factory=dict)
    distinguished_lift: dict = field(default_factory=dict)

    def __post_init__(self):
        require_prime(self.p)
        if not self.residue_embeddings:
            res = tuple(range(self.f))
            embs = tuple((i, j) for i in range(self.f) for j in range(self.e))
            object.__setattr__(self, "residue_embeddings", res)
            object.__setattr__(self, "embeddings", embs)
            object.__setattr__(self, "restriction", {k: k[0] for k in embs})
            object.__setattr__(
                self, "distinguished_lift", {i: (i, 0) for i in res}
            )
        self._validate()

    def _validate(self):
        if len(self.embeddings) != self.e * self.f:
            raise ValueError("expected e*f embedding labels")
        for k0 in self.residue_embeddings:
            above = [k for k in self.embeddings if self.restriction[k] == k0]
            if len(above) != self.e:
                raise ValueError(f"residue embedding {k0} has {len(above)} lifts")
            lift = self.distinguished_lift[k0]
            if self.restriction[lift] != k0:
                raise ValueError("distinguished lift is not a section")

    def above(self, k0):
        """Embeddings restricting to the residue embedding k0, in label order."""
        return tuple(k for k in self.embeddings if self.restriction[k] == k0)

    @classmethod
    def standard(cls, p: int, e: int, f: int) -> "EmbeddingData":
        return cls(p=p, e=e, f=f)


@dataclass(frozen=True)
class HodgeType:
    """A dominant weight for each embedding, plus the embedding data."""

    weights: dict  # embedding label -> Weight
    embedding_data: EmbeddingData

    def __post_init__(self):
        clean = {k: as_weight(w) for k, w in self.weights.items()}
        object.__setattr__(self, "weights", clean)
        emb = self.embedding_data
        if set(clean) != set(emb.embeddings):
            raise ValueError("weights must be indexed exactly by the embeddings")
        lengths = {len(w) for w in clean.values()}
        if len(lengths) != 1:
            raise ValueError("all weights must share the same length d")
        for k, w in clean.items():
            if not is_dominant(w):
                raise InvalidWeight(f"weight {w} at embedding {k} is not dominant")

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
    lam_tuple = {k0: as_weight(w) for k0, w in lam_tuple.items()}
    if set(lam_tuple) != set(emb.residue_embeddings):
        raise ValueError("expected one weight per residue embedding")
    for w in lam_tuple.values():
        if not is_dominant(w):
            raise ValueError(f"{w} is not dominant")
    d = len(next(iter(lam_tuple.values())))
    r = rho(d)
    weights = {}
    for k0 in emb.residue_embeddings:
        lifted = emb.distinguished_lift[k0]
        for k in emb.above(k0):
            if k == lifted:
                weights[k] = tuple(a + b for a, b in zip(lam_tuple[k0], r))
            else:
                weights[k] = r
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
