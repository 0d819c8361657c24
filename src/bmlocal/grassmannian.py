"""Desk-scale lattice models in the affine Grassmannian.

A lattice is the column span, over the base ring localized at finitely
many places, of a d x d generator matrix of exact polynomials divided by
a product of place powers.  Two base configurations exist:

* special fibre: polynomials over GF(p), single place u = 0, E(u) = u^e;
* generic fibre: polynomials over Q, places u = pi_j for distinct
  nonzero integers standing in for the uniformiser conjugates,
  E(u) = prod (u - pi_j).

Because the base is the semilocal localization at the places, generator
matrices are canonical up to units there, and membership, equality,
elementary-divisor type and duality are all decided by valuations at
the places.  This module provides:

* smith_type / lattice_dual (elementary divisors, inverse-transpose);
* filtration_to_lattice (the generic-fibre filtration model, d = 2): the
  span of f S^2, f = prod (u - pi_j)^{a_j}, and one generator per
  filtration line; it lies between f S^2 and S^2, so by CRT over the
  places its localisation at pi_j is the j-th filtration module;
* nabla_check (the condition E(u) * nabla(L) inside u L, nabla = u d/du);
* nabla_cell_dimension (dimension of the nabla locus inside a cell);
* psi_lattice (the span of C^{-1} for a Frobenius matrix C).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .errors import (
    BoundViolated,
    CollidingPiValues,
    FiltrationTypeMismatch,
    HeightViolated,
    SingularMatrix,
    UnsupportedRank,
)
from .polyfield import (
    GFp,
    Poly,
    QQ,
    adjugate,
    column_hermite,
    det,
    mat_mul,
    row_reduce,
)
from .primes import require_prime
from .weights import as_weight, dominant_weight

__all__ = [
    "BaseRing",
    "Lattice",
    "NablaCell",
    "special_base",
    "generic_base",
    "smith_type",
    "lattice_dual",
    "filtration_to_lattice",
    "nabla_check",
    "nabla_cell_dimension",
    "nabla_cell_dimension_bruteforce",
    "psi_lattice",
]


@dataclass(frozen=True)
class BaseRing:
    """A base configuration: field adapter, place roots, multiplicities."""

    kind: str  # "special" or "generic"
    field: object
    places: tuple  # roots c_j (field elements)
    multiplicities: tuple  # multiplicity of each root in E(u)

    def E_poly(self) -> Poly:
        out = Poly.one(self.field)
        for c, m in zip(self.places, self.multiplicities):
            out = out * Poly.x_minus(self.field, c) ** m
        return out

    def place_poly(self, j: int) -> Poly:
        return Poly.x_minus(self.field, self.places[j])


def special_base(p: int, e: int) -> BaseRing:
    """Special fibre: GF(p)[u] localized at u, E(u) = u^e."""
    return BaseRing(kind="special", field=GFp(p), places=(0,), multiplicities=(e,))


def generic_base(pis) -> BaseRing:
    """Generic fibre: Q[u] localized at distinct nonzero integers pi_j."""
    pis = tuple(Fraction(x) for x in pis)
    if len(set(pis)) != len(pis):
        raise CollidingPiValues(f"repeated pi values in {pis}")
    if any(x == 0 for x in pis):
        raise CollidingPiValues("pi values must be nonzero on the generic fibre")
    return BaseRing(
        kind="generic", field=QQ, places=pis, multiplicities=(1,) * len(pis)
    )


class Lattice:
    """Column span of num * prod_j (u - c_j)^{-den_j} over the localized base."""

    __slots__ = ("base", "num", "den", "d", "_det", "_adj")

    def __init__(self, base: BaseRing, num, den=None):
        self.base = base
        self.num = [list(row) for row in num]
        self.d = len(self.num)
        for row in self.num:
            if len(row) != self.d:
                raise ValueError("generator matrix must be square")
        self.den = list(den) if den is not None else [0] * len(base.places)
        if len(self.den) != len(base.places):
            raise ValueError("one denominator exponent per place required")
        self._normalize()
        self._det, self._adj = det(self.num), None
        if self._det.is_zero():
            raise SingularMatrix("generator matrix is singular")

    def _normalize(self):
        # negative denominator exponents fold into the numerator
        for j, k in enumerate(self.den):
            if k < 0:
                factor = self.base.place_poly(j) ** -k
                self.num = [[e * factor for e in row] for row in self.num]
                self.den[j] = 0
        # cancel common place factors of the numerator against the denominator
        for j, k in enumerate(self.den):
            if k <= 0:
                continue
            c = self.base.places[j]
            common = min(
                (e.root_multiplicity(c) for row in self.num for e in row
                 if not e.is_zero()),
                default=0,
            )
            common = min(common, k)
            if common > 0:
                divisor = self.base.place_poly(j) ** common
                self.num = [
                    [e.divide_exact(divisor) if not e.is_zero() else e for e in row]
                    for row in self.num
                ]
                self.den[j] = k - common

    # -- constructors ---------------------------------------------------

    @classmethod
    def standard(cls, base: BaseRing, d: int) -> "Lattice":
        F = base.field
        num = [
            [Poly.one(F) if i == j else Poly.zero(F) for j in range(d)]
            for i in range(d)
        ]
        return cls(base, num)

    @classmethod
    def from_cocharacter(cls, base: BaseRing, lam, place: int = 0) -> "Lattice":
        """The diagonal lattice with (u - c_place)^{lam_i} on the diagonal."""
        F = base.field
        d = len(lam)
        lin = base.place_poly(place)
        num = [[Poly.zero(F) for _ in range(d)] for _ in range(d)]
        shift = -min(min(lam), 0)
        for i, k in enumerate(lam):
            num[i][i] = lin ** (k + shift)
        den = [0] * len(base.places)
        den[place] = shift
        return cls(base, num, den)

    # -- transformations --------------------------------------------------

    def left_multiply(self, g) -> "Lattice":
        """The lattice g * L for a matrix g of polynomials (or a Lattice-style
        rational matrix given as (num, den))."""
        return Lattice(self.base, mat_mul(g, self.num), self.den)

    def right_multiply(self, g) -> "Lattice":
        """Generators changed by an invertible base-ring matrix: same lattice."""
        return Lattice(self.base, mat_mul(self.num, g), self.den)

    def scale_place(self, j: int, k: int) -> "Lattice":
        """Multiply the lattice by (u - c_j)^k (k may be negative)."""
        den = list(self.den)
        den[j] -= k
        return Lattice(self.base, self.num, den)

    def scale_u(self) -> "Lattice":
        """Multiply the lattice by u (both fibres)."""
        F = self.base.field
        upoly = Poly(F, [F.zero, F.one])
        num = [[e * upoly for e in row] for row in self.num]
        return Lattice(self.base, num, self.den)

    # -- membership and equality -----------------------------------------

    def _det_and_adj(self):
        """det(num) and adj(num); the adjugate is computed on first use."""
        if self._adj is None:
            self._adj = adjugate(self.num, Poly.one(self.base.field))
        return self._det, self._adj

    def contains(self, vec, vec_den=None) -> bool:
        """Membership of a rational vector: polynomials ``vec`` divided by
        prod (u - c_j)^{vec_den_j}, tested by valuations at the places."""
        if vec_den is None:
            vec_den = [0] * len(self.base.places)
        D, adj = self._det_and_adj()
        coords = [row[0] for row in mat_mul(adj, [[x] for x in vec])]
        for j, c in enumerate(self.base.places):
            vD = D.root_multiplicity(c)
            for x in coords:
                if x.is_zero():
                    continue
                if x.root_multiplicity(c) - vD + self.den[j] - vec_den[j] < 0:
                    return False
        return True

    def contains_lattice(self, other: "Lattice") -> bool:
        return all(
            self.contains([other.num[i][j] for i in range(self.d)], other.den)
            for j in range(self.d)
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, Lattice):
            return NotImplemented
        if self.base != other.base or self.d != other.d:
            return False
        return self.contains_lattice(other) and other.contains_lattice(self)

    def __repr__(self):
        return (
            f"Lattice({self.base.kind}, d={self.d}, den={self.den}, "
            f"num={self.num!r})"
        )


@dataclass(frozen=True)
class NablaCell:
    """The nabla locus inside a cell: free coordinates and their count."""

    lam: tuple
    e: int
    p: int
    free_parameters: tuple  # ((i, j), exponent k) entries
    dimension: int


def smith_type(L: Lattice, place: int = 0) -> tuple:
    """The elementary-divisor exponents of L at the given place, sorted
    decreasing (the unique dominant type with L = g E_type g')."""
    c = L.base.places[place]
    divisor_vals = []
    prev = 0
    for size in range(1, L.d + 1):
        best = None
        for rows in combinations(range(L.d), size):
            for cols in combinations(range(L.d), size):
                sub = [[L.num[i][j] for j in cols] for i in rows]
                m = det(sub)
                if m.is_zero():
                    continue
                v = m.root_multiplicity(c)
                if best is None or v < best:
                    best = v
        if best is None:
            raise SingularMatrix("generator matrix has deficient rank")
        divisor_vals.append(best - prev)
        prev = best
    adjusted = sorted((v - L.den[place] for v in divisor_vals), reverse=True)
    return tuple(adjusted)


def lattice_dual(L: Lattice) -> Lattice:
    """The dual lattice, spanned by the inverse-transpose of the generators.

    The determinant's unit part (no roots at the places) is dropped: over
    the localized base it does not change the span.
    """
    D, adj = L._det_and_adj()
    num = [[adj[j][i] for j in range(L.d)] for i in range(L.d)]  # transpose
    # G = N * prod (u-c)^{-k};  G^{-T} = adj(N)^T * prod (u-c)^{k} / det(N),
    # and det(N) = unit * prod (u-c_j)^{m_j} over the localized base
    den = [
        D.root_multiplicity(c) - L.den[j] for j, c in enumerate(L.base.places)
    ]
    return Lattice(L.base, num, den)


def psi_lattice(C, base: BaseRing, h: int | None = None) -> Lattice:
    """The lattice spanned by the columns of C^{-1} on the special fibre.

    ``C`` is a LaurentSeriesMatrix whose entries must be (known to be)
    polynomials within precision.  If ``h`` is given, the height condition
    (E(u)^h C^{-1} integral, E(u) = u^e) is enforced.
    """
    if base.kind != "special":
        raise ValueError("psi_lattice expects a special-fibre base")
    F = base.field
    p = F.p
    if C.p != p:
        raise ValueError("characteristic mismatch")
    d = C.d
    num = [
        [Poly.of(F, [int(x) for x in C.num[i][j].coeffs]) for j in range(d)]
        for i in range(d)
    ]
    D = det(num)
    if D.is_zero():
        raise SingularMatrix("C is singular within precision")
    m = D.root_multiplicity(F.zero)
    adj = adjugate(num, Poly.one(F))
    # C = num * u^{-k};  span(C^{-1}) = span(adj(num)) * u^{k - m}
    # (the unit-series factor det/u^m is dropped over the localized base)
    k = C.denom_exponent
    e_total = base.multiplicities[0]
    if h is not None:
        # sharpest valuation of C^{-1}: min entry valuation of adj - m + k
        vals = [
            a.root_multiplicity(F.zero) for row in adj for a in row
            if not a.is_zero()
        ]
        if vals and min(vals) - m + k < -e_total * h:
            raise HeightViolated(
                f"u^{e_total * h} C^(-1) is not integral"
            )
    return Lattice(base, adj, [m - k])


# -- the nabla condition -------------------------------------------------


def nabla_check(L: Lattice) -> bool:
    """True iff E(u) * nabla(column) lies in u L for every generator column,
    with nabla = u d/du applied to the rational generator matrix."""
    F = L.base.field
    E = L.base.E_poly()
    upoly = Poly(F, [F.zero, F.one])
    # denominator polynomial pieces for the product rule
    target = L.scale_u()
    for col in range(L.d):
        column = [L.num[i][col] for i in range(L.d)]
        # nabla(N / prod (u-c)^k) = [u N' - N * sum_j k_j u / (u-c_j)] / prod
        # so with one extra power of every place in the denominator:
        # numerator = u N' prod (u-c_j)  -  N u sum_j k_j prod_{i != j} (u-c_i)
        prod_all = Poly.one(F)
        for j, c in enumerate(L.base.places):
            prod_all = prod_all * Poly.x_minus(F, c)
        correction = Poly.zero(F)
        for j, c in enumerate(L.base.places):
            if L.den[j] == 0:
                continue
            partial = Poly.one(F)
            for i, ci in enumerate(L.base.places):
                if i != j:
                    partial = partial * Poly.x_minus(F, ci)
            correction = correction + partial.scale(F.of(L.den[j]))
        vec = [
            (upoly * entry.deriv() * prod_all - entry * upoly * correction) * E
            for entry in column
        ]
        vec_den = [k + 1 for k in L.den]
        if not target.contains(vec, vec_den):
            return False
    return True


def _require_positive_e(e: int):
    if e < 1:
        raise BoundViolated(f"e = {e}: the ramification index must be >= 1")


def nabla_cell_dimension(lam, e: int, p: int) -> NablaCell:
    """Dimension of the nabla locus inside the cell of a dominant d=2
    weight lam on the special fibre, by solving the coefficient constraint.

    The cell coordinate is the single below-diagonal entry a(u) of degree
    < lam_1 - lam_2; the condition forces k * a_k = 0 over F_p for
    1 <= k <= lam_1 - lam_2 - e.  Requires lam_1 - lam_2 <= e + p - 1 and
    e >= 1 (BoundViolated otherwise), p prime (NotPrime otherwise), and
    lam a dominant integer weight (InvalidWeight otherwise).
    """
    require_prime(p)
    _require_positive_e(e)
    lam = dominant_weight(lam)
    if len(lam) != 2:
        raise UnsupportedRank("cell dimensions are implemented for d = 2")
    gap = lam[0] - lam[1]
    if gap > e + p - 1:
        raise BoundViolated(f"gap {gap} exceeds e + p - 1 = {e + p - 1}")
    cutoff = gap - e + 1  # exponents 1..cutoff-1 are constrained
    free = []
    for k in range(gap):
        if k == 0 or k >= cutoff or k % p == 0:
            free.append(((2, 1), k))
    return NablaCell(
        lam=lam, e=e, p=p, free_parameters=tuple(free), dimension=len(free)
    )


def nabla_cell_dimension_bruteforce(lam, e: int, p: int) -> int:
    """Independent check: build the full F_p constraint matrix on the
    coefficients of a(u) and compute its kernel dimension."""
    _require_positive_e(e)
    lam = dominant_weight(lam)
    if len(lam) != 2:
        raise UnsupportedRank("cell dimensions are implemented for d = 2")
    gap = lam[0] - lam[1]
    if gap == 0:
        return 0
    cutoff = gap - e + 1
    # constraints: coefficient of u^t in nabla(a) = t * a_t vanishes for
    # 1 <= t <= cutoff - 1 (nabla(a) = 0 mod u^{gap - e + 1}, coefficient 0
    # of nabla(a) is automatically zero)
    rows = []
    for t in range(1, max(cutoff, 1)):
        row = [0] * gap
        row[t] = t % p
        rows.append(row)
    return gap - len(row_reduce(rows, GFp(p))[1])


# -- filtration to lattice ------------------------------------------------


def filtration_to_lattice(base: BaseRing, mu_weights, fils, n=None) -> Lattice:
    """The lattice whose localisation at each place c_j is the j-th
    filtration module (generic fibre, d = 2), with the auxiliary
    place-power factor cleared.

    ``mu_weights[j]`` is the dominant pair (mu1, mu2) at place j;
    ``fils[j]`` is the line v_j of the filtration (a nonzero 2-vector over
    Q) when mu1 > mu2, and None when mu1 = mu2.  ``n[j]`` shifts exponents
    nonnegative (chosen automatically when omitted).

    With a_j = mu1 + n_j, b_j = mu2 + n_j and f = prod_i (u - c_i)^{a_i},
    the lattice is spanned by f S^2 and the columns
    (u - c_j)^{b_j} prod_{i != j} (u - c_i)^{a_i} v_j.  By CRT a module
    between f S^2 and S^2 is fixed by its localisations, and at c_j this
    span is <(u - c_j)^{b_j} v_j, (u - c_j)^{a_j} S^2>, the j-th module.
    """
    if base.kind != "generic":
        raise ValueError("filtration_to_lattice expects a generic-fibre base")
    F = base.field
    e = len(base.places)
    if len(mu_weights) != e or len(fils) != e:
        raise FiltrationTypeMismatch("need one weight and one filtration per place")
    mu_weights = [as_weight(w) for w in mu_weights]
    for w in mu_weights:
        if len(w) != 2:
            raise UnsupportedRank("filtration model implemented for d = 2")
        if w[0] < w[1]:
            raise FiltrationTypeMismatch(f"{w} is not dominant")
    if n is None:
        n = [max(0, -w[1]) for w in mu_weights]
    n = [int(x) for x in n]
    for w, nk in zip(mu_weights, n):
        if w[1] + nk < 0:
            raise FiltrationTypeMismatch("n must make all exponents nonnegative")
    f = Poly.one(F)
    for j, w in enumerate(mu_weights):
        f = f * base.place_poly(j) ** (w[0] + n[j])
    zero = Poly.zero(F)
    cols = [[f, zero], [zero, f]]
    for j, ((mu1, mu2), v) in enumerate(zip(mu_weights, fils)):
        if mu1 > mu2:
            if v is None or all(Fraction(x) == 0 for x in v):
                raise FiltrationTypeMismatch(
                    f"place {j}: a filtration line is required when mu1 > mu2"
                )
            # (u - c_j)^{b_j} prod_{i != j} (u - c_i)^{a_i}
            g = f.divide_exact(base.place_poly(j) ** (mu1 - mu2))
            cols.append([g.scale(Fraction(x)) for x in v])
        elif v is not None:
            raise FiltrationTypeMismatch(
                f"place {j}: no filtration line allowed when mu1 = mu2"
            )
    result = Lattice(base, column_hermite(cols, 2))
    # clear the auxiliary factor prod (u - c_j)^{n_j}
    for j in range(e):
        if n[j]:
            result = result.scale_place(j, -n[j])
    return result
