"""Seeded request generators for the three benchmark workloads.

A request is a pair (command, config): one ``bmlocal.cli.main`` call
with that config.  Requests come in blocks.  Every block of a workload
has the same composition (the same commands and the same input shapes),
and the seed draws the order within the block and the concrete inputs.
So two seeds give different inputs of equal cost, and a run's
throughput and tail do not depend on how many heavy requests one seed
happened to draw.

None of this code imports ``bmlocal``: the inputs, like the oracles,
are built without the code under test.
"""

from __future__ import annotations

import random

import numpy as np

# -- torsor-ladder -----------------------------------------------------------

LADDER = (64, 128, 256, 512, 1024)


def _series_mul(a, b, p, n):
    """First n coefficients of a*b over F_p (both short coefficient lists)."""
    c = np.convolve(np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64))
    return [int(x) % p for x in c[:n]]


def _mat_mul(a, b, p, n):
    d = len(a)
    out = []
    for i in range(d):
        row = []
        for j in range(d):
            acc = [0] * n
            for k in range(d):
                term = _series_mul(a[i][k], b[k][j], p, n)
                acc = [(x + y) % p for x, y in zip(acc, term + [0] * n)]
            row.append(_trim(acc))
        out.append(row)
    return out


def _trim(coeffs):
    coeffs = list(coeffs)
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def _unit_matrix(rng, d, p):
    """Integral d x d matrix, congruent mod u to a unipotent one: a unit."""
    m = [[[rng.randrange(p) for _ in range(6)] for _ in range(d)] for _ in range(d)]
    for i in range(d):
        for j in range(d):
            m[i][j][0] = 1 if i == j else 0
    return m


def torsor_config(rng, M, d, p, e):
    """A bk-torsor config: C of height <= 1, g = 1 mod u^N, smallest N with
    e*h <= (p-1)N - 1 so the solver's convergence condition holds."""
    N = 1
    while e > (p - 1) * N - 1:
        N += 1
    diag = [
        [[0] * rng.randint(0, e) + [1] if i == j else [0] for j in range(d)]
        for i in range(d)
    ]
    n = 64
    C = _mat_mul(_mat_mul(_unit_matrix(rng, d, p), diag, p, n),
                 _unit_matrix(rng, d, p), p, n)
    g = [
        [([1] if i == j else [0]) + [0] * (N - 1) + [rng.randrange(p) for _ in range(4)]
         for j in range(d)]
        for i in range(d)
    ]
    return {"field": {"p": p, "e": e}, "C": C, "g": g, "h": 1, "N": N, "modulus": M}


def torsor_block(rng):
    """Three requests per modulus of the ladder, one for each p in seeded
    pairing with d, e drawn freely; the block is shuffled.

    At a given M, d and then p set the cost, so fixing their mix keeps
    blocks of equal cost.  d is 1, 2, 2, except that at M = 256 it is
    2, 2, 2: the median request is then the middle of that homogeneous
    class, not the gap between its d = 1 and d = 2 requests."""
    out = []
    for M in LADDER:
        ds = (2, 2, 2) if M == 256 else (1, 2, 2)
        for d, p in zip(ds, rng.sample((2, 3, 5), 3)):
            out.append(("bk-torsor", torsor_config(rng, M, d, p, rng.choice((1, 2)))))
    rng.shuffle(out)
    return out


# -- characters-wide ---------------------------------------------------------

# One block of characters-wide is one request per entry below, 21 in all:
# 13 decompose (GL3 and GL4 triple tensor products, entries up to 5),
# 6 hilbert-defect and 2 bm-identity.  Costs span ~0.3 ms to ~0.5 s.  Ten
# entries cost under 5 ms and ten over 35 ms, so the median request is the
# ~12 ms hilbert-defect on (4,2,0)(3,1,0)(2,1,0), far from either
# neighbour; the costliest entry, (3,2,1,0)^3, is the tail: a block takes
# ~1 s, so a run sees ~25 of them, and the tail percentile falls inside
# that class rather than on its edge.
DECOMPOSE_SHAPES = (
    ((1, 0, 0),) * 3,
    ((2, 0, 0), (1, 1, 0), (1, 0, 0)),
    ((2, 1, 0),) * 3,
    ((1, 0, 0, 0),) * 3,
    ((4, 2, 0),) * 3,
    ((2, 1, 1, 0), (2, 1, 0, 0), (1, 1, 0, 0)),
    ((5, 5, 0),) * 3,
    ((2, 1, 1, 0),) * 3,
    ((5, 1, 0),) * 3,
    ((5, 2, 0),) * 3,
    ((2, 1, 0, 0),) * 3,
    ((3, 1, 0, 0), (2, 1, 0, 0), (2, 0, 0, 0)),
    ((3, 2, 1, 0),) * 3,
)

# mu_lists of the hilbert-defect requests (mu - rho dominant).
HILBERT_SHAPES = (
    ((3, 0), (2, 1)),
    ((2, 0), (2, 0)),
    ((3, 1, 0), (2, 1, 0)),
    ((4, 0), (3, 1), (2, 0)),
    ((4, 2, 0), (3, 1, 0), (2, 1, 0)),
    ((5, 2, 0), (4, 2, 0), (3, 1, 0)),
)

# bm-identity Hodge types at p = 5, e = 2: the gaps of the two embeddings,
# regular and within the Theorem-A bound (gap sum <= p).
BM_GAPS = ((1, 1), (2, 3))

_SHIFT = 10**6


def _shifted(rng, w):
    """w translated by a fresh random scalar: a distinct weight of equal cost."""
    c = rng.randrange(-_SHIFT, _SHIFT)
    return [x + c for x in w]


def characters_block(rng):
    out = []
    for shape in DECOMPOSE_SHAPES:
        factors = [_shifted(rng, w) for w in shape]
        rng.shuffle(factors)
        out.append(("decompose", {"weights": factors}))
    for shape in HILBERT_SHAPES:
        mu_list = [_shifted(rng, w) for w in shape]
        rng.shuffle(mu_list)
        out.append(("hilbert-defect", {"mu_list": mu_list}))
    for gaps in BM_GAPS:
        mu = [_shifted(rng, (g, 0)) for g in gaps]
        rng.shuffle(mu)
        out.append(("bm-identity", {"field": {"p": 5, "e": 2, "f": 1}, "mu": mu}))
    rng.shuffle(out)
    return out


# -- verify-sweep ------------------------------------------------------------

SUITES = ("characters", "hilbert", "nabla", "torsor", "interpolate", "duality")


def interpolate_config(rng):
    """An interpolate config inside the licensed bound (p = 5, e = 2: the
    multiplicities may sum to at most 5)."""
    r0 = rng.randint(1, 3)
    r1 = rng.randint(0, 4 - r0)
    return {
        "field": {"p": 5, "e": 2},
        "m": [rng.randint(0, 24) for _ in range(5)],
        "r": [r0, r1],
        "precision": 40,
    }


def sweep_block(rng):
    """Every suite once, each with its own seed, plus one interpolate request,
    the only report that carries a valuation ledger for the oracle."""
    out = [("suite", {"suite": s, "seed": rng.randrange(2**31)}) for s in SUITES]
    out.append(("interpolate", interpolate_config(rng)))
    rng.shuffle(out)
    return out


# -- registry ----------------------------------------------------------------

WORKLOADS = {
    "torsor-ladder": {
        "block": torsor_block,
        "prefix": 30,
        "why": "bk-torsor over the modulus ladder M = 64..1024: series and "
               "_kernels do almost all the work, TruncSeries.inverse most of it.",
    },
    "characters-wide": {
        "block": characters_block,
        "prefix": 210,
        "why": "decompose, hilbert-defect and bm-identity on fresh weights: "
               "laurent, characters, hilbert and bm_mult work with a cold "
               "character cache; heavy-tailed latencies.",
    },
    "verify-sweep": {
        "block": sweep_block,
        "prefix": 70,
        "why": "all six suites plus interpolate: the only home of polyfield, "
               "grassmannian, localfield and interpolation, with many tiny "
               "series ops and a warm character cache.",
    },
}


def request_blocks(workload: str, seed: int):
    """The seeded, unbounded sequence of one workload's request blocks."""
    rng = random.Random(f"{workload}:{seed}")
    block = WORKLOADS[workload]["block"]
    while True:
        yield block(rng)
