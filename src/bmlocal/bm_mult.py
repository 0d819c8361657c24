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
from itertools import product as iproduct

from .characters import tensor_multiplicities
from .errors import BoundViolated, IrregularHodgeType
from .weights import (
    EmbeddingData,
    HodgeType,
    dominance_leq,
    is_dominant,
    rho,
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
        items = tuple(
            (k0, tuple(int(x) for x in comp[k0])) for k0 in emb.residue_embeddings
        )
        st = cls(components=items, p=emb.p)
        st.validate()
        return st

    def validate(self):
        for _, w in self.components:
            if not is_dominant(w):
                raise ValueError(f"{w} is not dominant")
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


def _sum_mu_minus_rho(mu: HodgeType, k0) -> tuple:
    r = rho(mu.d)
    total = [0] * mu.d
    for w in mu.weights_above(k0):
        for i in range(mu.d):
            total[i] += w[i] - r[i]
    return tuple(total)


def _dominant_weights_below(bound: tuple) -> list:
    """All dominant weights with the same total as ``bound`` lying below it."""
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
        # entries are weakly decreasing; partial sums must not exceed bound's
        partial_bound = sum(bound[: i + 1])
        prior = sum(prefix)
        hi = prefix[-1] if prefix else partial_bound
        for x in range(hi, -(10**9), -1):
            if prior + x > partial_bound:
                continue
            # remaining entries are each <= x, so need remaining - x <= x*(d-i-1)
            if remaining - x > x * (d - i - 1):
                break
            rec(prefix + (x,), remaining - x)

    rec((), total)
    return sorted(out, reverse=True)


def candidate_support(mu: HodgeType) -> list:
    """All residue-indexed tuples of dominant weights that can carry a
    nonzero multiplicity: same total as, and dominated by, the sum of
    mu_k - rho over the embeddings above each residue label."""
    emb = mu.embedding_data
    r = rho(mu.d)
    for k, w in mu.weights.items():
        if not is_dominant(tuple(a - b for a, b in zip(w, r))):
            raise ValueError(f"mu - rho not dominant at embedding {k}")
    per_residue = []
    for k0 in emb.residue_embeddings:
        per_residue.append(_dominant_weights_below(_sum_mu_minus_rho(mu, k0)))
    tuples = []
    for combo in iproduct(*per_residue):
        comp = dict(zip(emb.residue_embeddings, combo))
        tuples.append(
            SerreTuple(
                components=tuple((k0, comp[k0]) for k0 in emb.residue_embeddings),
                p=emb.p,
            )
        )
    return tuples


def bm_multiplicities(mu: HodgeType) -> dict:
    """Map SerreTuple -> positive multiplicity, via per-residue tensor
    decomposition in characteristic zero; refuses outside the natural bound."""
    emb = mu.embedding_data
    report = validate_hodge_bound(mu, "natural")
    if not report["pass"]:
        raise BoundViolated(f"natural bound fails: {report['per_residue_sums']}")
    r = rho(mu.d)
    per_residue = []
    for k0 in emb.residue_embeddings:
        shifted = [
            tuple(a - b for a, b in zip(w, r)) for w in mu.weights_above(k0)
        ]
        per_residue.append((k0, tensor_multiplicities(shifted)))
    result = {}
    labels = [k0 for k0, _ in per_residue]
    mults = [m for _, m in per_residue]
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
