"""Lattice models: elementary-divisor types, duality, the nabla condition,
cell dimensions, and the filtration-to-lattice construction."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bmlocal.errors import (
    BoundViolated,
    CollidingPiValues,
    FiltrationTypeMismatch,
    HeightViolated,
    SingularMatrix,
    UnsupportedRank,
)
from bmlocal.grassmannian import (
    Lattice,
    filtration_to_lattice,
    generic_base,
    lattice_dual,
    nabla_cell_dimension,
    nabla_cell_dimension_bruteforce,
    nabla_check,
    psi_lattice,
    smith_type,
    special_base,
)
from bmlocal.polyfield import QQ, Poly, column_hermite, row_reduce
from bmlocal.series import LaurentSeriesMatrix, TruncSeries
from bmlocal.weights import dual_weight


def _poly_mat(base, rows_of_int_lists):
    F = base.field
    return [[Poly.of(F, c) for c in row] for row in rows_of_int_lists]


def _random_lattice(rng, base, d=2):
    lam = sorted((rng.randint(-2, 3) for _ in range(d)), reverse=True)
    L = Lattice.from_cocharacter(base, lam, place=0)
    F = base.field
    g = [[Poly.one(F) if i == j else Poly.zero(F) for j in range(d)]
         for i in range(d)]
    for _ in range(3):
        i, j = rng.sample(range(d), 2)
        factor = Poly.of(F, [rng.randint(0, 2) for _ in range(3)])
        g[i] = [a + factor * b for a, b in zip(g[i], g[j])]
    return L.right_multiply(g).left_multiply(g)


def test_smith_type_examples():
    base = special_base(5, 2)
    L = Lattice(base, _poly_mat(base, [[[0, 0, 1], []], [[], [1]]]))
    assert smith_type(L) == (2, 0)
    # column operations do not change the type
    M = Lattice(base, _poly_mat(base, [[[0, 1], [1]], [[], [0, 1]]]))
    assert smith_type(M) == (2, 0)


def test_smith_type_invariant_under_unit_column_ops():
    rng = random.Random(2)
    base = special_base(5, 2)
    for _ in range(20):
        L = _random_lattice(rng, base)
        st = smith_type(L)
        assert st == tuple(sorted(st, reverse=True))


def test_duality_reverses_type():
    rng = random.Random(4)
    for base in (special_base(5, 2), generic_base([1, -1])):
        for _ in range(25):
            L = _random_lattice(rng, base)
            assert smith_type(lattice_dual(L)) == dual_weight(smith_type(L))


def test_double_dual_is_identity():
    rng = random.Random(6)
    base = special_base(3, 1)
    for _ in range(10):
        L = _random_lattice(rng, base)
        assert lattice_dual(lattice_dual(L)) == L


def test_containment_and_equality():
    base = special_base(5, 2)
    S = Lattice.standard(base, 2)
    uS = S.scale_u()
    assert S.contains_lattice(uS)
    assert not uS.contains_lattice(S)
    assert S == Lattice(base, _poly_mat(base, [[[1], [0, 3]], [[], [1]]]))


def test_singular_matrix_rejected():
    base = special_base(5, 2)
    with pytest.raises(SingularMatrix):
        Lattice(base, _poly_mat(base, [[[1], [1]], [[2], [2]]]))


def test_colliding_pi_values_rejected():
    with pytest.raises(CollidingPiValues):
        generic_base([1, 1])
    with pytest.raises(CollidingPiValues):
        generic_base([0, 2])


def test_psi_lattice_basics():
    base = special_base(5, 2)
    prec, p = 32, 5
    # C = diag(u, 1): psi = span of columns of C^{-1} = diag(u^{-1}, 1)
    num = [
        [TruncSeries.monomial(1, prec, p), TruncSeries.zero(prec, p)],
        [TruncSeries.zero(prec, p), TruncSeries.one(prec, p)],
    ]
    C = LaurentSeriesMatrix(num, 0)
    psi = psi_lattice(C, base)
    assert smith_type(psi) == (0, -1)


def test_psi_lattice_height_gate():
    base = special_base(5, 1)
    prec, p = 32, 5
    num = [
        [TruncSeries.monomial(3, prec, p), TruncSeries.zero(prec, p)],
        [TruncSeries.zero(prec, p), TruncSeries.one(prec, p)],
    ]
    C = LaurentSeriesMatrix(num, 0)
    with pytest.raises(HeightViolated):
        psi_lattice(C, base, h=2)  # u^3 in C^{-1} exceeds e*h = 2
    psi_lattice(C, base, h=3)  # fine at h = 3


def _random_unit_series_matrix(rng, d, prec, p):
    num = [
        [TruncSeries([rng.randrange(p) for _ in range(5)], prec, p)
         for _ in range(d)]
        for _ in range(d)
    ]
    for i in range(d):
        cs = list(num[i][i].coeffs)
        cs[0] = 1
        num[i][i] = TruncSeries(cs, prec, p)
        for j in range(d):
            if j != i:
                cs = list(num[i][j].coeffs)
                cs[0] = 0
                num[i][j] = TruncSeries(cs, prec, p)
    return LaurentSeriesMatrix(num, 0)


def _series_to_poly_mat(base, g):
    F = base.field
    return [
        [Poly.of(F, [int(x) for x in g.num[i][j].coeffs]) for j in range(g.d)]
        for i in range(g.d)
    ]


def test_psi_invariance_under_left_unit():
    rng = random.Random(8)
    base = special_base(3, 2)
    prec, p = 64, 3
    for _ in range(15):
        diag = [
            [TruncSeries.monomial(rng.randint(0, 2), prec, p)
             if i == j else TruncSeries.zero(prec, p) for j in range(2)]
            for i in range(2)
        ]
        C = (_random_unit_series_matrix(rng, 2, prec, p)
             * LaurentSeriesMatrix(diag, 0))
        g = _random_unit_series_matrix(rng, 2, prec, p)
        assert psi_lattice(g * C, base) == psi_lattice(C, base)


def _random_unipotent(rng, prec, p):
    """A product of elementary unipotent matrices: determinant one and
    an exactly polynomial inverse (so conjugates stay polynomial)."""
    g = LaurentSeriesMatrix.identity(2, prec, p)
    for _ in range(2):
        i = rng.randrange(2)
        a = TruncSeries([0] + [rng.randrange(p) for _ in range(3)], prec, p)
        num = [
            [TruncSeries.one(prec, p), TruncSeries.zero(prec, p)],
            [TruncSeries.zero(prec, p), TruncSeries.one(prec, p)],
        ]
        num[i][1 - i] = a
        g = g * LaurentSeriesMatrix(num, 0)
    return g


def test_psi_conjugation_twists_by_phi_g():
    rng = random.Random(9)
    base = special_base(3, 2)
    prec, p = 64, 3
    for _ in range(15):
        diag = [
            [TruncSeries.monomial(rng.randint(0, 2), prec, p)
             if i == j else TruncSeries.zero(prec, p) for j in range(2)]
            for i in range(2)
        ]
        C = (_random_unit_series_matrix(rng, 2, prec, p)
             * LaurentSeriesMatrix(diag, 0))
        g = _random_unipotent(rng, prec, p)
        conj = g.inverse() * C * g.phi(prec)
        psi_conj = psi_lattice(conj, base)
        phi_g = _series_to_poly_mat(base, g.phi(prec))
        assert psi_conj.left_multiply(phi_g) == psi_lattice(C, base)


def test_nabla_cell_dimension_min_rule():
    for e in (1, 2, 3):
        for p in (3, 5, 7):
            for gap in range(0, e + p):
                cell = nabla_cell_dimension((gap, 0), e, p)
                brute = nabla_cell_dimension_bruteforce((gap, 0), e, p)
                assert cell.dimension == brute == min(e, gap)


def test_nabla_cell_refusals():
    with pytest.raises(BoundViolated):
        nabla_cell_dimension((9, 0), 2, 5)  # gap > e + p - 1
    with pytest.raises(UnsupportedRank):
        nabla_cell_dimension((2, 1, 0), 2, 5)


@pytest.mark.parametrize("e", [0, -1])
def test_nabla_cell_needs_positive_e(e):
    # e < 1 would constrain nothing and report a dimension
    for count in (nabla_cell_dimension, nabla_cell_dimension_bruteforce):
        with pytest.raises(BoundViolated):
            count((3, 0), e, 5)


def test_nabla_check_examples():
    base = special_base(5, 2)
    S = Lattice.standard(base, 2)
    assert nabla_check(S)
    # diag(u^2, 1) is nabla-stable
    D = Lattice(base, _poly_mat(base, [[[0, 0, 1], []], [[], [1]]]))
    assert nabla_check(D)
    # [[u^2, u], [0, 1]] with e=1: E*nabla hits u/1 outside uL
    base1 = special_base(5, 1)
    B = Lattice(base1, _poly_mat(base1, [[[0, 0, 1], [0, 1]], [[], [1]]]))
    assert not nabla_check(B)


def test_filtration_worked_instance():
    base = generic_base([1, -1])
    L = filtration_to_lattice(
        base, [(1, 0), (1, 0)], [[1, 1], [1, -1]]
    )
    assert smith_type(L, 0) == (1, 0)
    assert smith_type(L, 1) == (1, 0)
    assert nabla_check(L)


def test_filtration_trivial_weights_give_standard():
    base = generic_base([1, -1])
    L = filtration_to_lattice(base, [(0, 0), (0, 0)], [None, None])
    assert L == Lattice.standard(base, 2)


def test_filtration_type_mismatch():
    base = generic_base([1, -1])
    with pytest.raises(FiltrationTypeMismatch):
        filtration_to_lattice(base, [(1, 0), (1, 0)], [None, [1, 0]])
    with pytest.raises(FiltrationTypeMismatch):
        filtration_to_lattice(base, [(0, 0), (0, 0)], [[1, 0], None])


def test_filtration_outputs_contain_nabla_random():
    rng = random.Random(10)
    for _ in range(10):
        e = rng.randint(1, 3)
        pis = rng.sample([1, -1, 2, -2, 3], e)
        base = generic_base(pis)
        mus, fils = [], []
        for _ in range(e):
            m1 = rng.randint(0, 3)
            m2 = rng.randint(0, m1)
            mus.append((m1, m2))
            if m1 > m2:
                fils.append([rng.randint(-2, 2), rng.randint(1, 2)])
            else:
                fils.append(None)
        L = filtration_to_lattice(base, mus, fils)
        assert nabla_check(L)


# -- the row-space construction filtration_to_lattice replaced ---------------


def _reference_filtration_to_lattice(base, mu_weights, fils, n=None):
    """Reference: intersect the per-place filtration modules, as row spaces
    of Q^(2 deg f), into a single lattice (generic fibre, d = 2), with the
    auxiliary place-power factor cleared.

    ``mu_weights[j]`` is the dominant pair (mu1, mu2) at place j;
    ``fils[j]`` is the line of the filtration (a nonzero 2-vector over Q)
    when mu1 > mu2, and None when mu1 = mu2.  ``n[j]`` shifts exponents
    nonnegative (chosen automatically when omitted).
    """
    if base.kind != "generic":
        raise ValueError("filtration_to_lattice expects a generic-fibre base")
    F = base.field
    e = len(base.places)
    if len(mu_weights) != e or len(fils) != e:
        raise FiltrationTypeMismatch("need one weight and one filtration per place")
    mu_weights = [tuple(int(x) for x in w) for w in mu_weights]
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
    # per-place generating columns of sum_i (u-c)^{i+n} S Fil^{-i}
    modules = []
    f = Poly.one(F)
    for j in range(e):
        mu1, mu2 = mu_weights[j]
        a, b = mu1 + n[j], mu2 + n[j]
        lin = base.place_poly(j)
        pow_a = lin ** a
        cols = [
            [pow_a if i == r else Poly.zero(F) for i in range(2)]
            for r in range(2)
        ]
        if mu1 > mu2:
            v = fils[j]
            if v is None or all(Fraction(x) == 0 for x in v):
                raise FiltrationTypeMismatch(
                    f"place {j}: a filtration line is required when mu1 > mu2"
                )
            pow_b = lin ** b
            cols.append([pow_b.scale(Fraction(x)) for x in v])
        elif fils[j] is not None:
            raise FiltrationTypeMismatch(
                f"place {j}: no filtration line allowed when mu1 = mu2"
            )
        modules.append(cols)
        # every module sits between f S^2 and S^2 for f = prod (u-c_j)^{a_j}
        f = f * pow_a
    degf = f.degree()
    dim_v = 2 * degf
    if degf == 0:
        result = Lattice.standard(base, 2)
    else:
        basis_maps = []
        for cols in modules:
            vectors = []
            for c in cols:
                for t in range(degf):
                    shifted = [q.shift(t) for q in c]
                    reduced = [q.divmod(f)[1] for q in shifted]
                    vectors.append(_flatten(reduced, degf))
            basis_maps.append(_row_space(vectors))
        W = basis_maps[0]
        for other in basis_maps[1:]:
            W = _subspace_intersection(W, other, dim_v)
        # lift W back to polynomial columns and append the generators of f S^2
        cols = [_unflatten(w, degf, F) for w in W]
        cols.append([f, Poly.zero(F)])
        cols.append([Poly.zero(F), f])
        gens = column_hermite(cols, 2)
        result = Lattice(base, gens)
    # clear the auxiliary factor prod (u - c_j)^{n_j}
    for j in range(e):
        if n[j]:
            result = result.scale_place(j, -n[j])
    return result


def _flatten(polys, degf):
    out = []
    for q in polys:
        cs = list(q.coeffs) + [Fraction(0)] * (degf - len(q.coeffs))
        out.extend(cs[:degf])
    return out


def _unflatten(vec, degf, F):
    return [
        Poly(F, list(vec[i * degf : (i + 1) * degf])) for i in range(2)
    ]


def _row_space(vectors):
    """Reduced row echelon basis of the span of rational vectors."""
    return row_reduce(vectors, QQ)[0]


def _subspace_intersection(A, B, width):
    """Intersection of two subspaces given by row bases, via the kernel of
    the stacked system x = sum a_i A_i = sum b_j B_j."""
    if not A or not B:
        return []
    # solve [A^T | -B^T] (a, b)^T = 0 over Q
    rows = width
    cols = len(A) + len(B)
    M = [
        [A[i][r] for i in range(len(A))] + [-B[j][r] for j in range(len(B))]
        for r in range(rows)
    ]
    kernel = _nullspace(M, cols)
    out = []
    for k in kernel:
        vec = [
            sum(k[i] * A[i][r] for i in range(len(A))) for r in range(width)
        ]
        if any(x != 0 for x in vec):
            out.append(vec)
    return _row_space(out)


def _nullspace(M, cols):
    """Kernel basis of a rational matrix given as a list of rows: one vector
    per free column, read off the reduced row echelon form."""
    rows, pivots = row_reduce(M, QQ)
    basis = []
    for fc in range(cols):
        if fc in pivots:
            continue
        vec = [Fraction(0)] * cols
        vec[fc] = Fraction(1)
        for row, c in zip(rows, pivots):
            vec[c] = -row[fc]
        basis.append(vec)
    return basis


@st.composite
def filtration_data(draw):
    e = draw(st.integers(1, 3))
    pis = draw(st.lists(st.sampled_from([1, -1, 2, -2, 3, -3, 5]),
                        min_size=e, max_size=e, unique=True))
    mus, fils = [], []
    for _ in range(e):
        mu = sorted(draw(st.lists(st.integers(-2, 3), min_size=2, max_size=2)),
                    reverse=True)
        mus.append(tuple(mu))
        if mu[0] > mu[1]:
            fils.append(draw(st.lists(st.integers(-2, 2), min_size=2, max_size=2)
                             .filter(any)))
        else:
            fils.append(None)
    n = None
    if draw(st.booleans()):
        n = [max(0, -mu[1]) + draw(st.integers(0, 1)) for mu in mus]
    return pis, mus, fils, n


@given(filtration_data())
@settings(max_examples=200, deadline=None)
def test_filtration_matches_row_space_reference(case):
    pis, mus, fils, n = case
    base = generic_base(pis)
    got = filtration_to_lattice(base, mus, fils, n)
    want = _reference_filtration_to_lattice(base, mus, fils, n)
    assert got == want
    assert got.den == want.den
    for j in range(len(pis)):
        assert smith_type(got, j) == smith_type(want, j)
