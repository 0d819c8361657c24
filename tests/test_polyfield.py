"""The shared matrix layer: det, adjugate and mat_mul over Poly and
TruncSeries entries, and row_reduce over Q and F_p, each against the
separate implementations it replaced, kept here as references."""

from fractions import Fraction

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
