"""Breuil-Mezard multiplicities for GL2 and the identity report.

Given a regular Hodge type mu within the stated bounds, the cycle
multiplicity of the residue-indexed tuple lam is the product over
residue embeddings k0 of the multiplicity of lam_{k0} in the
characteristic-zero tensor product of the Weyl characters of
mu_k - rho for the embeddings k above k0.  Outside the natural bound
(sum of top-minus-bottom entries <= e + p - 1 per residue embedding)
the characteristic-p and characteristic-zero answers may diverge and
the computation refuses.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from itertools import product as iproduct

from .characters import tensor_multiplicities
from .errors import BoundViolated, IrregularHodgeType
from .weights import (
    EmbeddingData,
    HodgeType,
    as_weight,
    dominant_weight,
    minus_rho,
    tilde_lift,
    validate_hodge_bound,
)

__all__ = [
    "SerreTuple",
    "BMIdentity",
    "candidate_support",
    "bm_multiplicities",
    "is_steinberg",
    "bm_identity",
]


@dataclass(frozen=True)
class SerreTuple:
    """A dominant weight per residue embedding with gaps <= p - 1."""

    components: tuple  # tuple of (k0, Weight) pairs, ordered by residue label
    p: int

    @classmethod
    def from_dict(cls, comp: dict, emb: EmbeddingData) -> "SerreTuple":
        items = tuple((k0, as_weight(comp[k0])) for k0 in emb.residue_embeddings)
        st = cls(components=items, p=emb.p)
        st.validate()
        return st

    def validate(self):
        for _, w in self.components:
            w = dominant_weight(w)
            if w[0] - w[-1] > self.p - 1:
                raise ValueError(f"{w} has gap > p - 1")

    def as_dict(self) -> dict:
        return dict(self.components)

    def weights(self) -> tuple:
        return tuple(w for _, w in self.components)


@dataclass(frozen=True)
class BMIdentity:
    """The multiplicity identity: mu on the left, lifted tuples on the right."""

    mu: HodgeType
    terms: tuple  # tuple of (SerreTuple, multiplicity, HodgeType lift)
    bound_report: dict
    steinberg_flags: tuple


def _mu_minus_rho_above(mu: HodgeType, k0) -> list:
    """mu_k - rho for the embeddings k above k0; InvalidWeight unless each
    is dominant."""
    return [dominant_weight(minus_rho(w)) for w in mu.weights_above(k0)]


def _dominant_weights_below(bound: tuple) -> list:
    """All dominant weights with the same total as ``bound`` lying below it
    in dominance order, lexicographically decreasing.

    Entry i runs down from the least of entry i - 1 (weakly decreasing)
    and bound's i-th partial sum minus the prefix sum (dominated), to the
    least value that lets the d - i entries from i on, each at most it,
    reach the total.
    """
    d, total = len(bound), sum(bound)
    partial = list(accumulate(bound))
    out = []

    def rec(prefix, s):
        i = len(prefix)
        if i == d:
            out.append(prefix)
            return
        hi = min(prefix[-1], partial[i] - s) if prefix else partial[i]
        lo = -((s - total) // (d - i))  # ceil((total - s) / (d - i))
        for x in range(hi, lo - 1, -1):
            rec(prefix + (x,), s + x)

    rec((), 0)
    return out


def candidate_support(mu: HodgeType) -> list:
    """All residue-indexed tuples of dominant weights that can carry a
    nonzero multiplicity: same total as, and dominated by, the sum of
    mu_k - rho over the embeddings above each residue label."""
    emb = mu.embedding_data
    labels = emb.residue_embeddings
    per_residue = []
    for k0 in labels:
        total = tuple(map(sum, zip(*_mu_minus_rho_above(mu, k0))))
        per_residue.append(_dominant_weights_below(total))
    return [
        SerreTuple(components=tuple(zip(labels, combo)), p=emb.p)
        for combo in iproduct(*per_residue)
    ]


def bm_multiplicities(mu: HodgeType) -> dict:
    """Map SerreTuple -> positive multiplicity, via per-residue tensor
    decomposition in characteristic zero; refuses outside the natural bound."""
    emb = mu.embedding_data
    report = validate_hodge_bound(mu, "natural")
    if not report["pass"]:
        raise BoundViolated(f"natural bound fails: {report['per_residue_sums']}")
    labels = emb.residue_embeddings
    mults = [tensor_multiplicities(_mu_minus_rho_above(mu, k0)) for k0 in labels]
    result = {}
    for combo in iproduct(*(sorted(m) for m in mults)):
        m = 1
        for pick, table in zip(combo, mults):
            m *= table[pick]
        if m == 0:
            continue
        st = SerreTuple(
            components=tuple(zip(labels, combo)),
            p=emb.p,
        )
        result[st] = m
    return result


def is_steinberg(lam: SerreTuple, p: int) -> bool:
    """True iff the gap is exactly p - 1 at every residue embedding."""
    return all(w[0] - w[-1] == p - 1 for _, w in lam.components)


def bm_identity(mu: HodgeType) -> BMIdentity:
    """The full multiplicity identity for a regular d=2 Hodge type within
    the Theorem-A bound, with tilde lifts attached to every term."""
    if mu.d != 2:
        raise BoundViolated("identity pipeline is d = 2 only")
    if not mu.is_regular():
        raise IrregularHodgeType("mu must have distinct entries at every embedding")
    bound_report = validate_hodge_bound(mu, "theoremA")
    if not bound_report["pass"]:
        raise BoundViolated(
            f"Theorem-A bound fails: {bound_report['per_residue_sums']}"
        )
    mults = bm_multiplicities(mu)
    emb = mu.embedding_data
    terms = []
    flags = []
    for st in sorted(mults, key=lambda s: s.components, reverse=True):
        m = mults[st]
        lift = tilde_lift(st.as_dict(), emb)
        terms.append((st, m, lift))
        if is_steinberg(st, emb.p):
            flags.append(st)
    return BMIdentity(
        mu=mu,
        terms=tuple(terms),
        bound_report=bound_report,
        steinberg_flags=tuple(flags),
    )
