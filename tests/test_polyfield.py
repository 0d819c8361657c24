"""The shared matrix layer: det, adjugate and mat_mul over Poly and
TruncSeries entries, row_reduce over Q and F_p, and the integer-form Poly
itself, each against the separate implementations it replaced, kept here
as references."""

from fractions import Fraction
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bmlocal.localfield import _solve
from bmlocal.polyfield import GFp, Poly, QQ, adjugate, det, mat_mul, row_reduce
from bmlocal.series import TruncSeries

# -- references ------------------------------------------------------------


def _series_det(m):
    d = len(m)
    if d == 1:
        return m[0][0]
    acc = None
    for j in range(d):
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        term = m[0][j] * _series_det(minor)
        if j % 2 == 1:
            term = -term
        acc = term if acc is None else acc + term
    return acc


def _series_adjugate(m):
    d = len(m)
    if d == 1:
        one = TruncSeries.one(m[0][0].prec, m[0][0].p)
        return [[one]]
    adj = [[None] * d for _ in range(d)]
    for i in range(d):
        for j in range(d):
            minor = [
                [m[r][c] for c in range(d) if c != j]
                for r in range(d)
                if r != i
            ]
            cof = _series_det(minor)
            if (i + j) % 2 == 1:
                cof = -cof
            adj[j][i] = cof
    return adj


def _series_mat_mul(a, b):
    d = len(a)
    num = []
    for i in range(d):
        row = []
        for j in range(d):
            acc = None
            for l in range(d):
                term = a[i][l] * b[l][j]
                acc = term if acc is None else acc + term
            row.append(acc)
        num.append(row)
    return num


def _poly_mat_mul(a, b):
    n, m, k = len(a), len(b[0]), len(b)
    F = a[0][0].field
    out = [[Poly.zero(F) for _ in range(m)] for _ in range(n)]
    for i in range(n):
        for j in range(m):
            acc = Poly.zero(F)
            for l in range(k):
                acc = acc + a[i][l] * b[l][j]
            out[i][j] = acc
    return out


def _poly_det(m):
    d = len(m)
    if d == 1:
        return m[0][0]
    acc = Poly.zero(m[0][0].field)
    for j in range(d):
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        term = m[0][j] * _poly_det(minor)
        if j % 2 == 1:
            term = -term
        acc = acc + term
    return acc


def _poly_adjugate(m):
    d = len(m)
    F = m[0][0].field
    if d == 1:
        return [[Poly.one(F)]]
    adj = [[None] * d for _ in range(d)]
    for i in range(d):
        for j in range(d):
            minor = [
                [m[r][c] for c in range(d) if c != j]
                for r in range(d)
                if r != i
            ]
            cof = _poly_det(minor)
            if (i + j) % 2 == 1:
                cof = -cof
            adj[j][i] = cof
    return adj


def _reference_row_space(vectors, width):
    """Row-reduce rational vectors; returns a reduced basis as lists."""
    rows = [list(v) for v in vectors]
    basis = []
    pivots = []
    for row in rows:
        row = row[:]
        for b, pc in zip(basis, pivots):
            if row[pc] != 0:
                factor = row[pc]
                row = [x - factor * y for x, y in zip(row, b)]
        pivot = next((i for i, x in enumerate(row) if x != 0), None)
        if pivot is None:
            continue
        inv = Fraction(1, 1) / row[pivot]
        row = [x * inv for x in row]
        # back-substitute into the existing basis for a reduced form
        basis = [
            [x - b[pivot] * y for x, y in zip(b, row)] if b[pivot] != 0 else b
            for b in basis
        ]
        basis.append(row)
        pivots.append(pivot)
    order = sorted(range(len(basis)), key=lambda i: pivots[i])
    return [basis[i] for i in order]


def _reference_solve(M, rhs):
    n = len(M)
    A = [row[:] + [r] for row, r in zip(M, rhs)]
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, n) if A[i][c] != 0), None)
        if piv is None:
            return None
        A[r], A[piv] = A[piv], A[r]
        inv = Fraction(1) / A[r][c]
        A[r] = [x * inv for x in A[r]]
        for i in range(n):
            if i != r and A[i][c] != 0:
                fct = A[i][c]
                A[i] = [x - fct * y for x, y in zip(A[i], A[r])]
        r += 1
    return [A[i][n] for i in range(n)]


class _ReferencePoly:
    """The adapter-based Poly that the integer form replaced: one field
    adapter call per coefficient operation; coefficients low-to-high."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        cs = [field.of(c) if not _ref_is_elem(field, c) else c for c in coeffs]
        while cs and field.is_zero(cs[-1]):
            cs.pop()
        self.field = field
        self.coeffs = tuple(cs)

    @classmethod
    def of(cls, field, ints) -> "_ReferencePoly":
        return cls(field, [field.of(x) for x in ints])

    @classmethod
    def x_minus(cls, field, c) -> "_ReferencePoly":
        """The polynomial u - c."""
        return cls(field, [field.neg(field.of(c)), field.one])

    @classmethod
    def zero(cls, field) -> "_ReferencePoly":
        return cls(field, [])

    @classmethod
    def one(cls, field) -> "_ReferencePoly":
        return cls(field, [field.one])

    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        return (
            isinstance(other, _ReferencePoly)
            and self.field == other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.field.name, self.coeffs))

    def __repr__(self):
        if self.is_zero():
            return "Poly(0)"
        return "Poly(" + " + ".join(
            f"{c}*u^{i}" for i, c in enumerate(self.coeffs)
            if not self.field.is_zero(c)
        ) + ")"

    def __add__(self, other: "_ReferencePoly") -> "_ReferencePoly":
        F = self.field
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [F.zero] * (n - len(self.coeffs))
        b = list(other.coeffs) + [F.zero] * (n - len(other.coeffs))
        return _ReferencePoly(F, [F.add(x, y) for x, y in zip(a, b)])

    def __neg__(self) -> "_ReferencePoly":
        F = self.field
        return _ReferencePoly(F, [F.neg(c) for c in self.coeffs])

    def __sub__(self, other: "_ReferencePoly") -> "_ReferencePoly":
        return self + (-other)

    def __mul__(self, other: "_ReferencePoly") -> "_ReferencePoly":
        F = self.field
        if self.is_zero() or other.is_zero():
            return _ReferencePoly.zero(F)
        out = [F.zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if F.is_zero(a):
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = F.add(out[i + j], F.mul(a, b))
        return _ReferencePoly(F, out)

    def __pow__(self, k: int) -> "_ReferencePoly":
        out = _ReferencePoly.one(self.field)
        for _ in range(k):
            out = out * self
        return out

    def scale(self, c) -> "_ReferencePoly":
        F = self.field
        c = F.of(c) if not _ref_is_elem(F, c) else c
        return _ReferencePoly(F, [F.mul(a, c) for a in self.coeffs])

    def shift(self, k: int) -> "_ReferencePoly":
        """Multiply by u^k."""
        if self.is_zero():
            return self
        F = self.field
        return _ReferencePoly(F, [F.zero] * k + list(self.coeffs))

    def deriv(self) -> "_ReferencePoly":
        F = self.field
        return _ReferencePoly(
            F,
            [F.mul(F.of(i), c) for i, c in enumerate(self.coeffs)][1:],
        )

    def eval(self, c):
        F = self.field
        c = F.of(c) if not _ref_is_elem(F, c) else c
        acc = F.zero
        for coeff in reversed(self.coeffs):
            acc = F.add(F.mul(acc, c), coeff)
        return acc

    def divmod(self, other: "_ReferencePoly"):
        F = self.field
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        q = [F.zero] * max(0, len(self.coeffs) - len(other.coeffs) + 1)
        r = list(self.coeffs)
        dlead = other.coeffs[-1]
        dinv = F.inv(dlead)
        dd = other.degree()
        while len(r) - 1 >= dd and r:
            lead = r[-1]
            if F.is_zero(lead):
                r.pop()
                continue
            k = len(r) - 1 - dd
            factor = F.mul(lead, dinv)
            q[k] = factor
            for i, c in enumerate(other.coeffs):
                r[k + i] = F.sub(r[k + i], F.mul(factor, c))
            r.pop()
        return _ReferencePoly(F, q), _ReferencePoly(F, r)

    def divide_exact(self, other: "_ReferencePoly") -> "_ReferencePoly":
        q, r = self.divmod(other)
        if not r.is_zero():
            raise ValueError("division not exact")
        return q

    def root_multiplicity(self, c) -> int:
        """Order of vanishing at u = c (0 if c is not a root)."""
        if self.is_zero():
            raise ValueError("zero polynomial has infinite multiplicity")
        F = self.field
        mult = 0
        poly = self
        lin = _ReferencePoly.x_minus(F, c)
        while F.is_zero(poly.eval(c)):
            poly = poly.divide_exact(lin)
            mult += 1
        return mult


def _ref_is_elem(field, c):
    if isinstance(field, GFp):
        return isinstance(c, int) and 0 <= c < field.p
    return isinstance(c, Fraction)


# -- strategies --------------------------------------------------------------

SERIES_PRIMES = (2, 3, 5, 2**31 - 1)
FIELD_PRIMES = (2, 3, 7)


@st.composite
def series_matrices(draw, count=1):
    p = draw(st.sampled_from(SERIES_PRIMES))
    d = draw(st.integers(1, 3))

    def entry():
        prec = draw(st.integers(1, 9))
        cs = draw(st.lists(st.integers(0, p - 1), max_size=prec))
        return TruncSeries(cs, prec, p)

    return [[[entry() for _ in range(d)] for _ in range(d)] for _ in range(count)]


@st.composite
def poly_matrices(draw, count=1):
    F = draw(st.sampled_from([QQ] + [GFp(p) for p in FIELD_PRIMES]))
    d = draw(st.integers(1, 3))
    coeff = st.integers(-6, 6)
    if F is QQ:
        coeff = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4))

    def entry():
        return Poly(F, draw(st.lists(coeff, max_size=3)))

    return [[[entry() for _ in range(d)] for _ in range(d)] for _ in range(count)]


def _series_key(m):
    return [[(s.prec, s.coeffs.tolist()) for s in row] for row in m]


# -- det, adjugate, mat_mul ------------------------------------------------------


@given(series_matrices(count=2))
@settings(max_examples=80, deadline=None)
def test_series_matrix_helpers_match_references(mats):
    a, b = mats
    one = TruncSeries.one(a[0][0].prec, a[0][0].p)
    assert _series_key([[det(a)]]) == _series_key([[_series_det(a)]])
    assert _series_key(adjugate(a, one)) == _series_key(_series_adjugate(a))
    assert _series_key(mat_mul(a, b)) == _series_key(_series_mat_mul(a, b))


@given(poly_matrices(count=2))
@settings(max_examples=80, deadline=None)
def test_poly_matrix_helpers_match_references(mats):
    a, b = mats
    F = a[0][0].field
    assert det(a) == _poly_det(a)
    assert adjugate(a, Poly.one(F)) == _poly_adjugate(a)
    assert mat_mul(a, b) == _poly_mat_mul(a, b)
    column = [[row[0]] for row in b]
    assert mat_mul(a, column) == _poly_mat_mul(a, column)


@given(poly_matrices())
@settings(max_examples=100, deadline=None)
def test_adjugate_times_matrix_is_det_times_identity(mats):
    (m,) = mats
    F = m[0][0].field
    D = det(m)
    want = [[D if i == j else Poly.zero(F) for j in range(len(m))]
            for i in range(len(m))]
    adj = adjugate(m, Poly.one(F))
    assert mat_mul(adj, m) == want
    assert mat_mul(m, adj) == want


@given(series_matrices())
@settings(max_examples=100, deadline=None)
def test_series_adjugate_times_matrix_is_det_times_identity(mats):
    (m,) = mats
    d, p = len(m), m[0][0].p
    prec = min(s.prec for row in m for s in row)
    D = det(m)
    adj = adjugate(m, TruncSeries.one(prec, p))
    for prod in (mat_mul(adj, m), mat_mul(m, adj)):
        for i in range(d):
            for j in range(d):
                want = D if i == j else TruncSeries.zero(prec, p)
                assert prod[i][j] == want


# -- row reduction -------------------------------------------------------------

rational = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))


@st.composite
def rational_rows(draw):
    width = draw(st.integers(1, 6))
    n = draw(st.integers(0, 6))
    rows = [draw(st.lists(rational, min_size=width, max_size=width))
            for _ in range(n)]
    # dependent rows exercise the rank-deficient paths
    if rows and draw(st.booleans()):
        c = draw(rational)
        rows.append([c * x for x in rows[0]])
    return width, rows


@given(rational_rows())
@settings(max_examples=100, deadline=None)
def test_row_reduce_over_q_matches_references(case):
    width, rows = case
    reduced, pivots = row_reduce(rows, QQ)
    assert reduced == _reference_row_space(rows, width)
    assert [next(i for i, x in enumerate(r) if x != 0) for r in reduced] == pivots


@st.composite
def square_systems(draw):
    n = draw(st.integers(1, 5))
    M = [draw(st.lists(rational, min_size=n, max_size=n)) for _ in range(n)]
    if draw(st.booleans()):
        M[-1] = list(M[0])  # singular
    rhs = draw(st.lists(rational, min_size=n, max_size=n))
    return M, rhs


@given(square_systems())
@settings(max_examples=100, deadline=None)
def test_solve_matches_reference(case):
    M, rhs = case
    assert _solve(M, rhs) == _reference_solve(M, rhs)


def _rank_mod_p(rows, p):
    rows = [[x % p for x in row] for row in rows]
    rank = 0
    for j in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][j]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][j], -1, p)
        for i in range(len(rows)):
            if i != rank and rows[i][j]:
                f = rows[i][j] * inv
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


@st.composite
def mod_p_rows(draw):
    p = draw(st.sampled_from(FIELD_PRIMES + (2**31 - 1,)))
    width = draw(st.integers(1, 6))
    n = draw(st.integers(0, 6))
    entry = st.integers(0, p - 1)
    rows = [draw(st.lists(entry, min_size=width, max_size=width))
            for _ in range(n)]
    if rows and draw(st.booleans()):
        c = draw(entry)
        rows.append([c * x % p for x in rows[0]])
    return p, width, rows


@given(mod_p_rows())
@settings(max_examples=100, deadline=None)
def test_row_reduce_over_gf_p_is_the_reduced_echelon_form(case):
    """Reduced echelon form, same rank as the reference, and every input
    row is the combination of the output rows given by its pivot entries:
    these three pin down the unique reduced echelon basis of the span."""
    p, width, rows = case
    reduced, pivots = row_reduce(rows, GFp(p))
    assert len(pivots) == len(reduced) == _rank_mod_p(rows, p)
    assert pivots == sorted(set(pivots))
    for r, c in zip(reduced, pivots):
        assert all(0 <= x < p for x in r)
        assert all(x == 0 for x in r[:c])
        assert [other[c] for other in reduced] == [int(o is r) for o in reduced]
    for row in rows:
        combo = [0] * width
        for r, c in zip(reduced, pivots):
            combo = [(x + row[c] * y) % p for x, y in zip(combo, r)]
        assert combo == [x % p for x in row]


# -- Poly against the adapter-based reference ----------------------------------

POLY_FIELDS = [GFp(2), GFp(3), GFp(7), GFp(2**31 - 1), QQ]


def _field_elements(F, unreduced=False):
    """Coefficients of F; over GF(p) optionally ints outside [0, p)."""
    if F is QQ:
        return st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))
    if unreduced:
        return st.integers(-3 * F.p, 3 * F.p)
    return st.integers(0, F.p - 1)


@st.composite
def poly_pairs(draw, count=2, max_len=6):
    """A field and ``count`` coefficient lists, some with trailing zeros."""
    F = draw(st.sampled_from(POLY_FIELDS))
    coeff = _field_elements(F, unreduced=True)
    return F, [draw(st.lists(coeff, max_size=max_len)) for _ in range(count)]


def _new_and_ref(F, cs):
    return Poly(F, cs), _ReferencePoly(F, cs)


def _assert_same(new, ref):
    assert isinstance(new, Poly) and new.field == ref.field
    assert new.coeffs == ref.coeffs
    assert type(new.coeffs) is tuple
    _assert_integer_form(new)


def _assert_integer_form(f):
    assert all(type(x) is int for x in f.nums) and type(f.den) is int
    assert not f.nums or f.nums[-1] != 0
    if f.field is QQ:
        assert f.den > 0
        assert gcd(f.den, *f.nums) == 1
        if not f.nums:
            assert f.den == 1
    else:
        assert f.den == 1
        assert all(0 <= x < f.field.p for x in f.nums)


@given(poly_pairs(), st.integers(0, 4), st.data())
@settings(max_examples=300, deadline=None)
def test_poly_ring_operations_match_reference(case, k, data):
    F, (ca, cb) = case
    a, ra = _new_and_ref(F, ca)
    b, rb = _new_and_ref(F, cb)
    _assert_same(a, ra)
    _assert_same(a + b, ra + rb)
    _assert_same(a - b, ra - rb)
    _assert_same(-a, -ra)
    _assert_same(a * b, ra * rb)
    _assert_same(a ** k, ra ** k)
    _assert_same(a.shift(k), ra.shift(k))
    _assert_same(a.deriv(), ra.deriv())
    c = data.draw(_field_elements(F, unreduced=True))
    _assert_same(a.scale(c), ra.scale(c))
    assert a.eval(c) == ra.eval(c)
    assert type(a.eval(c)) is type(ra.eval(c))
    assert a.degree() == ra.degree() and a.is_zero() == ra.is_zero()
    assert (a == b) == (ra == rb)
    assert hash(a) == hash(ra)
    assert repr(a) == repr(ra)


@given(poly_pairs())
@settings(max_examples=300, deadline=None)
def test_poly_divmod_matches_reference(case):
    F, (ca, cb) = case
    a, ra = _new_and_ref(F, ca)
    b, rb = _new_and_ref(F, cb)
    if b.is_zero():
        with pytest.raises(ZeroDivisionError):
            a.divmod(b)
        return
    (q, r), (rq, rr) = a.divmod(b), ra.divmod(rb)
    _assert_same(q, rq)
    _assert_same(r, rr)
    _assert_same((a * b).divide_exact(b), (ra * rb).divide_exact(rb))
    if not r.is_zero():
        with pytest.raises(ValueError):
            a.divide_exact(b)


@st.composite
def root_cases(draw):
    """(F, c, coefficients of f, k) with f = (b u - a)^k * g for c = a / b
    (b > 1 on most Q cases), or a random f and c (usually not a root)."""
    F = draw(st.sampled_from(POLY_FIELDS))
    g = draw(st.lists(_field_elements(F), min_size=1, max_size=5))
    if F is QQ:
        b = draw(st.integers(1, 6))
        a = draw(st.integers(-12, 12).filter(lambda x: gcd(x, b) == 1))
        c = Fraction(a, b)
        lin = [-a, b]
    else:
        c = draw(st.integers(0, F.p - 1))
        lin = [-c, 1]
    k = draw(st.integers(0, 4))
    return F, c, lin, g, k


@given(root_cases())
@settings(max_examples=300, deadline=None)
def test_poly_root_multiplicity_matches_reference(case):
    F, c, lin, g, k = case
    g, rg = _new_and_ref(F, g)
    lin, rlin = _new_and_ref(F, lin)
    f, rf = g * lin ** k, rg * rlin ** k
    if f.is_zero():
        for poly in (f, rf):
            with pytest.raises(ValueError):
                poly.root_multiplicity(c)
        return
    assert f.root_multiplicity(c) == rf.root_multiplicity(c) >= k
    # a rational or residue that is (usually) not a root
    other = c + 1 if F is QQ else (c + 1) % F.p
    assert f.root_multiplicity(other) == rf.root_multiplicity(other)


def test_poly_root_multiplicity_non_integral_roots():
    u = Poly(QQ, [0, 1])
    f = (u.scale(3) - Poly.one(QQ).scale(2)) ** 3 * (u.scale(5) + Poly.one(QQ))
    assert f.root_multiplicity(Fraction(2, 3)) == 3
    assert f.root_multiplicity(Fraction(-1, 5)) == 1
    assert f.root_multiplicity(Fraction(3, 2)) == 0
    assert f.root_multiplicity(2) == 0
    assert f.scale(Fraction(7, 4)).root_multiplicity(Fraction(2, 3)) == 3


def test_poly_integer_form_on_q():
    f = Poly(QQ, [Fraction(1, 2), Fraction(-3, 4), 0])
    assert (f.nums, f.den) == ((2, -3), 4)
    assert f.coeffs == (Fraction(1, 2), Fraction(-3, 4))
    assert all(type(c) is Fraction for c in f.coeffs)
    zero = f - f
    assert (zero.nums, zero.den) == ((), 1)
    assert zero == Poly.zero(QQ) and hash(zero) == hash(Poly.zero(QQ))
    g = f.scale(Fraction(-4, 6))
    assert (g.nums, g.den) == ((-2, 3), 6)  # -1/3 + u/2
    assert Poly(GFp(5), [7, -1, 10]).nums == (2, 4)


def test_gf_p_converts_exactly_or_refuses():
    F = GFp(5)
    half = Fraction(1, 2)
    assert F.of(half) == 3 and F.of(Fraction(-7, 3)) == 1
    assert Poly(F, [half]) == Poly(F, [3])
    assert Poly.one(F).scale(half) == Poly(F, [3])
    assert Poly(F, [np.int64(7)]).nums == (2,)
    with pytest.raises(ZeroDivisionError):
        F.of(Fraction(1, 5))
    with pytest.raises(ZeroDivisionError):
        Poly(F, [Fraction(2, 15)])
    for bad in (2.7, 2.0, "2"):
        with pytest.raises(TypeError):
            Poly(F, [bad])
        with pytest.raises(TypeError):
            F.of(bad)
