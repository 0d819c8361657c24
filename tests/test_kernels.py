"""The series kernel and the mod-p rank agree with Python-integer
reference implementations."""

import random

import numpy as np

from bmlocal import _kernels
from bmlocal.polyfield import GFp, row_reduce

# Small primes, and two where an int64 convolution of length 64 overflows.
PRIMES = (2, 3, 5, 2**31 - 1, 2**61 - 1)


def _schoolbook(a, b, p, n):
    """First n coefficients of a*b mod p, in Python ints (never overflows)."""
    out = [0] * n
    for i, x in enumerate(a[:n]):
        for j, y in enumerate(b[: n - i]):
            out[i + j] += x * y
    return [c % p for c in out]


def _kernel(a, b, p, n):
    got = _kernels.poly_mul_mod(np.array(a, dtype=np.int64),
                                np.array(b, dtype=np.int64), p, n)
    assert got.dtype == np.int64 and got.shape == (n,)
    return got.tolist()


def test_poly_mul_mod_matches_schoolbook_oracle():
    rng = random.Random(0)
    for p in PRIMES:
        for _ in range(25):
            la, lb = rng.randint(0, 80), rng.randint(0, 80)
            n = rng.randint(1, 170)
            a = [rng.randrange(p) for _ in range(la)]
            b = [rng.randrange(p) for _ in range(lb)]
            assert _kernel(a, b, p, n) == _schoolbook(a, b, p, n), (p, la, lb, n)
        # every coefficient p - 1 fills each slot of the packed product to
        # its bound; M = 64 at p = 2^31 - 1 is where np.convolve overflowed
        for m in (1, 64, 300):
            top = [p - 1] * m
            assert _kernel(top, top, p, m) == _schoolbook(top, top, p, m), (p, m)
            assert _kernel(top, top[:7], p, m) == _schoolbook(top, top[:7], p, m)


def test_poly_mul_mod_oracle():
    # multiply (1 + u)(1 + u + u^2) = 1 + 2u + 2u^2 + u^3 mod 5, truncated
    a = np.array([1, 1, 0, 0], dtype=np.int64)
    b = np.array([1, 1, 1, 0], dtype=np.int64)
    got = np.asarray(_kernels.poly_mul_mod(a, b, 5, 4))
    assert got.tolist() == [1, 2, 2, 1]


def _rank_mod_p(rows, p):
    """Rank over F_p by row reduction on Python lists."""
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


def _rank(m, p):
    return len(row_reduce(m.tolist(), GFp(p))[1])


def test_gf_rank_matches_oracle():
    rng = np.random.default_rng(1)
    for p in (2, 3, 5):
        for _ in range(20):
            rows = int(rng.integers(1, 8))
            cols = int(rng.integers(1, 8))
            m = rng.integers(0, p, size=(rows, cols)).astype(np.int64)
            assert _rank(m, p) == _rank_mod_p(m.tolist(), p)
    # second row is twice the first mod 3
    m = np.array([[1, 2, 0], [2, 1, 0], [0, 0, 1]], dtype=np.int64)
    assert _rank(m, 3) == 2


def test_singular_matrix_rank():
    m = np.array([[1, 2], [2, 4]], dtype=np.int64)
    assert _rank(m, 5) == 1
