"""The character ring Z[X(T)]^W: Weyl characters, decomposition into
Weyl characters, and dimension evaluation.

The central identities are

    A(v)      = sum over w in S_d of det(w) e(w v),
    ch H0(w)  = A(w + rho) / A(rho)          (an exact Laurent quotient),
    dim H0(w) = prod over i < j of (w_i - w_j + j - i) / (j - i).

``decompose`` inverts the map w -> ch H0(w) on symmetric polynomials by
one product: ch * A(rho) = sum m(w) A(w + rho) is antisymmetric, and its
coefficient at each strictly dominant exponent v is the multiplicity of
v - rho.  This works for virtual characters as well (negative
multiplicities permitted).  ``tensor_multiplicities`` uses the
Brauer-Klimyk (Racah-Speiser) rule instead, with no Laurent product:
for a symmetric ch = sum c(nu) e(nu), A(v) * ch = sum c(nu) A(v + nu),
and A(x) is the sign of the permutation sorting x times A(sorted x), or
zero when x has a repeated entry.  The ``characters`` suite and
acceptance criterion 1 still decompose products by the read-off,
independently of this rule.
"""

from __future__ import annotations

from functools import lru_cache
from operator import add

from .errors import InvalidWeight, NonTerminating, RankMismatch
from .laurent import LaurentPoly, signed_orbit_sum, sorting_sign
from .weights import (
    as_weight,
    dominant_weight,
    is_dominant,
    minus_rho,
    plus_rho,
    rho,
)

__all__ = [
    "Character",
    "weyl_character",
    "weyl_dim",
    "generalized_weyl_dim",
    "decompose",
    "tensor_multiplicities",
    "scale_exponents",
]


class Character:
    """A symmetric Laurent polynomial: the character of a (virtual) rep."""

    __slots__ = ("poly",)

    def __init__(self, poly: LaurentPoly, check: bool = True):
        if check and not poly.is_symmetric():
            raise ValueError("character polynomial must be symmetric")
        self.poly = poly

    @property
    def rank(self) -> int:
        return self.poly.rank

    def dim(self) -> int:
        return self.poly.dim()

    def __mul__(self, other: "Character") -> "Character":
        return Character(self.poly * other.poly, check=False)

    def __add__(self, other: "Character") -> "Character":
        return Character(self.poly + other.poly, check=False)

    def __eq__(self, other):
        return isinstance(other, Character) and self.poly == other.poly

    def __repr__(self):
        return f"Character({self.poly!r})"


@lru_cache(maxsize=None)
def _weyl_character_poly(w: tuple) -> LaurentPoly:
    """A(w + rho) / A(rho) for a dominant w with w[-1] = 0: one entry per
    translation class of weights."""
    return signed_orbit_sum(plus_rho(w)).divide(signed_orbit_sum(rho(len(w))))


def weyl_character(w) -> Character:
    """ch H0(w) = A(w + rho) / A(rho) for dominant w, as an exact quotient:
    e(c, ..., c) ch H0(w - c (1, ..., 1)) for c = w[-1]."""
    w = dominant_weight(w)
    c = w[-1]
    poly = _weyl_character_poly(tuple(x - c for x in w))
    if c:
        poly = poly * LaurentPoly.monomial((c,) * len(w))
    return Character(poly, check=False)


def weyl_dim(w) -> int:
    """dim H0(w) for dominant w via the product formula."""
    return generalized_weyl_dim(dominant_weight(w))


def generalized_weyl_dim(v) -> int:
    """The signed dimension prod_{i<j} (v_i - v_j + j - i) / (j - i).

    For dominant v this is dim H0(v).  For arbitrary integer v it is the
    signed count matching A(v + rho): zero exactly when v + rho has a
    repeated entry, and otherwise det(w) dim H0(w(v + rho) - rho) for
    the w sorting v + rho.  This is what lets dimension bookkeeping pass
    through non-dominant shifts without special-casing.
    """
    v = as_weight(v)
    d = len(v)
    num = den = 1
    for i in range(d):
        for j in range(i + 1, d):
            num *= v[i] - v[j] + j - i
            den *= j - i
    out, rest = divmod(num, den)
    assert rest == 0
    return out


def scale_exponents(ch: Character, n: int) -> Character:
    """Apply e(v) -> e(n v) to a character; commutes with A(-) formation."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return Character(ch.poly.scale_exponents(n), check=False)


def decompose(ch: Character) -> dict:
    """Multiplicities m with ch = sum m(w) * weyl_character(w), exactly.

    Read off ch * A(rho); multiplicities may be negative for virtual
    characters.  A non-symmetric input raises NonTerminating.
    Antisymmetry leaves no term of the product on a wall, so its dominant
    exponents are the strictly dominant ones.
    """
    alternating = ch.poly * signed_orbit_sum(rho(ch.rank))
    if not alternating.is_antisymmetric():
        raise NonTerminating("character times A(rho) not antisymmetric: "
                             "input not symmetric")
    return {
        minus_rho(v): m for v, m in alternating.terms.items() if is_dominant(v)
    }


def tensor_multiplicities(weights) -> dict:
    """Multiplicities of the Weyl characters in prod_i ch H0(w_i).

    The weights must be dominant (InvalidWeight otherwise, also for an
    empty list) and of one length (RankMismatch otherwise).  The product
    is kept as its strictly dominant exponents: it starts from A(w + rho)
    for the weight with the widest spread, and each other character
    enters term by term (Brauer-Klimyk).  Every weight is translated to
    w[-1] = 0, and the translations are added back once at the end.
    """
    ws = [as_weight(w) for w in weights]
    if not ws:
        raise InvalidWeight("need at least one weight")
    if len({len(w) for w in ws}) > 1:
        raise RankMismatch(f"weights of lengths {sorted({len(w) for w in ws})}")
    ws = [dominant_weight(w) for w in ws]
    shift = sum(w[-1] for w in ws)
    ws = [tuple(x - w[-1] for x in w) for w in ws]
    top = max(ws, key=lambda w: w[0])
    ws.remove(top)
    chamber = {plus_rho(top): 1}
    for w in ws:
        character = _weyl_character_poly(w).terms.items()
        product = {}
        for v, m in chamber.items():
            for nu, c in character:
                x = tuple(map(add, v, nu))
                sign = sorting_sign(x)
                if sign:
                    x = tuple(sorted(x, reverse=True))
                    product[x] = product.get(x, 0) + sign * m * c
        chamber = {v: m for v, m in product.items() if m}
    return {minus_rho(tuple(x + shift for x in v)): m for v, m in chamber.items()}
