"""Command-line interface: structured JSON configs in, canonical
machine-readable JSON reports out.

Subcommands map one-to-one onto the public operations:

    bm-identity      multiplicity identity for a d=2 Hodge type
    decompose        tensor-product decomposition into Weyl characters
    hilbert-defect   shifted identity, defect degree, equality forcing
    nabla-cell       cell dimension of the nabla locus (plus brute force)
    bk-torsor        the Frobenius-conjugation torsor solver
    interpolate      the conjugate-interpolation construction
    validate-bounds  the natural / main-theorem bound checks
    suite            named randomized verification suites

Reports are deterministic for a fixed (config, seed) and serialized with
sorted keys; every verdict carries a descriptive fact label.  Exit code
is 0 iff every verdict in the report passes.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from math import prod

from . import __version__
from .bm_mult import bm_identity
from .breuil_kisin import BKMatrix, inverse_direction_check, torsor_solve
from .characters import decompose, tensor_multiplicities, weyl_character, weyl_dim
from .errors import BMLocalError, InvalidWeight
from .grassmannian import (
    Lattice,
    generic_base,
    lattice_dual,
    nabla_cell_dimension,
    nabla_cell_dimension_bruteforce,
    smith_type,
    special_base,
)
from .hilbert import defect_degree, overcount_detected, shifted_identity_check
from .interpolation import interpolate_claim
from .localfield import TameFieldContext
from .primes import require_prime
from .series import LaurentSeriesMatrix, TruncSeries
from .weights import (
    EmbeddingData,
    HodgeType,
    as_weight,
    dual_weight,
    minus_rho,
    validate_hodge_bound,
)

ANCHORS = {
    "bm-identity": "multiplicity-identity",
    "decompose": "weyl-character-decomposition",
    "hilbert-shifted": "shifted-dimension-identity",
    "hilbert-degree": "defect-degree-bound",
    "hilbert-forcing": "equality-forcing-degree-jump",
    "nabla-cell": "cell-dimension-min-rule",
    "bk-torsor": "torsor-residual",
    "interpolate": "interpolation-congruence-ledger",
    "validate-bounds": "hodge-type-bounds",
    "duality": "dual-lattice-type",
    "nabla-contain": "filtration-lattice-nabla-containment",
}


def _known_keys(config: dict, allowed: set):
    unknown = set(config) - allowed
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")


def _field_from_config(config: dict) -> tuple[int, int, int]:
    """(p, e, f) from the config's "field"; refuses a p that is not prime."""
    fld = config["field"]
    return require_prime(int(fld["p"])), int(fld["e"]), int(fld.get("f", 1))


def _hodge_from_config(config: dict) -> HodgeType:
    emb = EmbeddingData.standard(*_field_from_config(config))
    mus = config["mu"]
    if len(mus) != len(emb.embeddings):
        raise InvalidWeight("need one weight per embedding (f*e of them)")
    return HodgeType(weights=dict(zip(emb.embeddings, mus)), embedding_data=emb)


def _st_key(st) -> str:
    return ";".join(
        ",".join(str(x) for x in w) for _, w in st.components
    )


def _dimension_identity_holds(mu: HodgeType, terms) -> bool:
    """prod_k dim H0(mu_k - rho) = sum_terms m * prod_k0 dim H0(lam_k0), both
    sides by the Weyl product formula, not by the character read-off."""
    lhs = prod(weyl_dim(minus_rho(w)) for w in mu.weights.values())
    rhs = sum(m * prod(weyl_dim(w) for w in st.weights()) for st, m, _ in terms)
    return lhs == rhs


def cmd_bm_identity(config: dict) -> dict:
    _known_keys(config, {"field", "mu", "task", "seed"})
    mu = _hodge_from_config(config)
    ident = bm_identity(mu)
    terms = []
    for st, m, lift in ident.terms:
        terms.append(
            {
                "lambda": _st_key(st),
                "multiplicity": m,
                "lift": {
                    str(k): list(w) for k, w in sorted(lift.weights.items())
                },
            }
        )
    return {
        "task": "bm-identity",
        "anchor": ANCHORS["bm-identity"],
        "terms": terms,
        "bound_report": _jsonable(ident.bound_report),
        "steinberg": [_st_key(s) for s in ident.steinberg_flags],
        "pass": _dimension_identity_holds(mu, ident.terms),
    }


def cmd_decompose(config: dict) -> dict:
    _known_keys(config, {"weights", "task", "seed"})
    mult = tensor_multiplicities(config["weights"])
    return {
        "task": "decompose",
        "anchor": ANCHORS["decompose"],
        "multiplicities": {
            ",".join(str(x) for x in w): m for w, m in sorted(mult.items())
        },
        "pass": all(m > 0 for m in mult.values()),
    }


def cmd_hilbert_defect(config: dict) -> dict:
    _known_keys(config, {"mu_list", "n_max", "task", "seed"})
    mu_list = [as_weight(w) for w in config["mu_list"]]
    n_max = int(config.get("n_max", 8))
    mult = tensor_multiplicities([minus_rho(w) for w in mu_list])
    shifted_ok, first_fail = shifted_identity_check(mu_list, mult, n_max)
    series, degree, degree_ok = defect_degree(mu_list, mult)
    forcing_ok = all(overcount_detected(series, mu_list, {lam: 1}) for lam in mult)
    return {
        "task": "hilbert-defect",
        "verdicts": [
            {
                "anchor": ANCHORS["hilbert-shifted"],
                "pass": shifted_ok,
                "first_failure": first_fail,
            },
            {
                "anchor": ANCHORS["hilbert-degree"],
                "pass": degree_ok,
                "degree": degree,
                "bound": series.claimed_degree_bound,
                "samples": list(series.values),
            },
            {"anchor": ANCHORS["hilbert-forcing"], "pass": forcing_ok},
        ],
        "pass": shifted_ok and degree_ok and forcing_ok,
    }


def cmd_nabla_cell(config: dict) -> dict:
    _known_keys(config, {"lambda", "e", "p", "task", "seed"})
    lam = as_weight(config["lambda"])
    e, p = int(config["e"]), int(config["p"])
    cell = nabla_cell_dimension(lam, e, p)
    brute = nabla_cell_dimension_bruteforce(lam, e, p)
    closed = sum(min(e, lam[i] - lam[j]) for i in range(len(lam))
                 for j in range(i + 1, len(lam)))
    ok = cell.dimension == brute == closed
    return {
        "task": "nabla-cell",
        "anchor": ANCHORS["nabla-cell"],
        "dimension": cell.dimension,
        "bruteforce": brute,
        "closed_form_min_rule": closed,
        "free_exponents": [k for _, k in cell.free_parameters],
        "note": "dimension follows the min rule (sum of min(e, gap))",
        "pass": ok,
    }


def _matrix_from_config(entry, prec: int, p: int) -> LaurentSeriesMatrix:
    num = [
        [TruncSeries(coeffs, prec, p) for coeffs in row] for row in entry
    ]
    return LaurentSeriesMatrix(num, 0)


def cmd_bk_torsor(config: dict) -> dict:
    _known_keys(config, {"field", "C", "g", "h", "N", "modulus", "task", "seed"})
    p, e, _ = _field_from_config(config)
    M = int(config.get("modulus", 64))
    C = _matrix_from_config(config["C"], M, p)
    g = _matrix_from_config(config["g"], M, p)
    bk = BKMatrix(C=C, e=e, h=int(config.get("h", 1)))
    N = int(config["N"])
    g0 = torsor_solve(bk, g, N)
    recovered = inverse_direction_check(bk, g0)
    m = min(g.prec, recovered.prec)
    ok = recovered.eq_mod(g, m)
    return {
        "task": "bk-torsor",
        "anchor": ANCHORS["bk-torsor"],
        "achieved_precision": m,
        "g0": [[list(map(int, s.coeffs)) for s in row] for row in g0.num],
        "pass": ok,
    }


def cmd_interpolate(config: dict) -> dict:
    _known_keys(
        config,
        {"field", "m", "r", "target", "precision", "override_bounds", "task", "seed"},
    )
    p, e, _ = _field_from_config(config)
    prec = config.get("precision")
    ctx = TameFieldContext(p, e, prec=int(prec) if prec else None)
    m_coeffs = [ctx.from_rational(x) for x in config["m"]]
    r = {int(j): int(v) for j, v in enumerate(config["r"])}
    target = int(config.get("target", 0))
    M, report = interpolate_claim(
        m_coeffs, r, target, ctx,
        override_bounds=bool(config.get("override_bounds", False)),
    )
    return {
        "task": "interpolate",
        "anchor": ANCHORS["interpolate"],
        "congruence": report.congruence_at_target,
        "divisibility": report.divisibility_at_others,
        "integrality": report.pi_integrality,
        "ledger": [list(x) for x in report.valuation_ledger],
        "ledger_respected": report.ledger_respected,
        "nu": report.details["nu"],
        "pass": report.passed,
    }


def cmd_validate_bounds(config: dict) -> dict:
    _known_keys(config, {"field", "mu", "task", "seed"})
    mu = _hodge_from_config(config)
    natural = validate_hodge_bound(mu, "natural")
    thm = validate_hodge_bound(mu, "theoremA")
    return {
        "task": "validate-bounds",
        "anchor": ANCHORS["validate-bounds"],
        "natural": _jsonable(natural),
        "theoremA": _jsonable(thm),
        "pass": natural["pass"] and thm["pass"],
    }


# -- randomized suites -----------------------------------------------------


def _suite_characters(rng) -> dict:
    ok = True
    for a in range(0, 9):
        for b in range(0, a + 1):
            got = decompose(weyl_character((a, 0)) * weyl_character((b, 0)))
            want = {(a + b - c, c): 1 for c in range(b + 1)}
            ok = ok and got == want
    return {"anchor": ANCHORS["decompose"], "name": "characters", "pass": ok}


def _random_mu_list(rng):
    e = rng.randint(1, 3)
    out = []
    for _ in range(e):
        top = rng.randint(1, 4)
        bot = rng.randint(0, top - 1)
        out.append((top, bot))
    return out


def _suite_hilbert(rng) -> dict:
    ok = True
    for _ in range(20):
        mu_list = _random_mu_list(rng)
        mult = tensor_multiplicities([minus_rho(w) for w in mu_list])
        shifted_ok, _ = shifted_identity_check(mu_list, mult, 8)
        series, _, degree_ok = defect_degree(mu_list, mult)
        forcing_ok = all(
            overcount_detected(series, mu_list, {lam: 1}) for lam in mult
        )
        ok = ok and shifted_ok and degree_ok and forcing_ok
    return {"anchor": ANCHORS["hilbert-degree"], "name": "hilbert", "pass": ok}


def _suite_nabla(rng) -> dict:
    ok = True
    for e in (1, 2, 3):
        for p in (3, 5, 7):
            for gap in range(0, e + p):
                cell = nabla_cell_dimension((gap, 0), e, p)
                brute = nabla_cell_dimension_bruteforce((gap, 0), e, p)
                ok = ok and cell.dimension == brute == min(e, gap)
    return {"anchor": ANCHORS["nabla-cell"], "name": "nabla", "pass": ok}


def _random_unit_matrix(rng, d, prec, p) -> LaurentSeriesMatrix:
    """A random invertible integral matrix over F_p[[u]] (unit determinant)."""
    num = [
        [
            TruncSeries(
                [rng.randrange(p) for _ in range(6)], prec, p
            )
            for _ in range(d)
        ]
        for i in range(d)
    ]
    for i in range(d):
        coeffs = list(num[i][i].coeffs)
        coeffs[0] = 1  # force a unit diagonal
        num[i][i] = TruncSeries(coeffs, prec, p)
        for j in range(d):
            if j != i:
                coeffs = list(num[i][j].coeffs)
                coeffs[0] = 0  # keep the constant term triangular-unipotent
                num[i][j] = TruncSeries(coeffs, prec, p)
    return LaurentSeriesMatrix(num, 0)


def _random_height_one(rng, d, e, prec, p) -> BKMatrix:
    """A random C of height <= 1: unit * diag(u^{a_i}) * unit, a_i <= e."""
    diag = [
        [
            TruncSeries.monomial(rng.randint(0, e), prec, p)
            if i == j
            else TruncSeries.zero(prec, p)
            for j in range(d)
        ]
        for i in range(d)
    ]
    C = (
        _random_unit_matrix(rng, d, prec, p)
        * LaurentSeriesMatrix(diag, 0)
        * _random_unit_matrix(rng, d, prec, p)
    )
    return BKMatrix(C=C, e=e, h=1)


def _random_g(rng, d, N, prec, p) -> LaurentSeriesMatrix:
    """A random integral matrix g = 1 mod u^N."""
    num = [
        [
            TruncSeries(
                ([1] if i == j else [0]) + [0] * (N - 1)
                + [rng.randrange(p) for _ in range(4)],
                prec,
                p,
            )
            for j in range(d)
        ]
        for i in range(d)
    ]
    return LaurentSeriesMatrix(num, 0)


def _suite_torsor(rng) -> dict:
    ok = True
    M = 64
    for _ in range(50):
        d = rng.choice((1, 2))
        p = rng.choice((2, 3))
        e = rng.choice((1, 2))
        N = 1
        while e > (p - 1) * N - 1:
            N += 1
        bk = _random_height_one(rng, d, e, M, p)
        g = _random_g(rng, d, N, M, p)
        g0 = torsor_solve(bk, g, N)
        recovered = inverse_direction_check(bk, g0)
        m = min(g.prec, recovered.prec)
        ok = ok and recovered.eq_mod(g, m)
    return {"anchor": ANCHORS["bk-torsor"], "name": "torsor", "pass": ok}


def _suite_interpolate(rng) -> dict:
    ctx = TameFieldContext(5, 2, prec=40)
    ok = True
    for _ in range(100):
        m = [ctx.from_rational(rng.randint(0, 24)) for _ in range(5)]
        r = {0: rng.randint(1, 3)}
        r[1] = rng.randint(0, 5 - r[0] - 1) if 5 - r[0] - 1 > 0 else 0
        _, report = interpolate_claim(m, r, 0, ctx)
        ok = ok and report.passed
    return {"anchor": ANCHORS["interpolate"], "name": "interpolate", "pass": ok}


def _random_lattice(rng, base, d=2) -> Lattice:
    lam = sorted((rng.randint(-2, 3) for _ in range(d)), reverse=True)
    L = Lattice.from_cocharacter(base, lam, place=0)
    F = base.field
    from .polyfield import Poly

    # random integral column operations (unit determinant)
    g = [[Poly.one(F) if i == j else Poly.zero(F) for j in range(d)]
         for i in range(d)]
    for _ in range(3):
        i, j = rng.sample(range(d), 2)
        factor = Poly.of(F, [rng.randint(0, 2) for _ in range(3)])
        g[i] = [a + factor * b for a, b in zip(g[i], g[j])]
    return L.right_multiply(g).left_multiply(g)


def _suite_duality(rng) -> dict:
    ok = True
    bases = [special_base(5, 2), generic_base([1, -1])]
    for base in bases:
        for _ in range(50):
            L = _random_lattice(rng, base)
            got = smith_type(lattice_dual(L))
            want = dual_weight(smith_type(L))
            ok = ok and got == want
    return {"anchor": ANCHORS["duality"], "name": "duality", "pass": ok}


SUITES = {
    "characters": _suite_characters,
    "hilbert": _suite_hilbert,
    "nabla": _suite_nabla,
    "torsor": _suite_torsor,
    "interpolate": _suite_interpolate,
    "duality": _suite_duality,
}


def cmd_suite(config: dict) -> dict:
    _known_keys(config, {"suite", "task", "seed"})
    name = config["suite"]
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    rng = random.Random(int(config.get("seed", 0)))
    verdict = SUITES[name](rng)
    return {"task": "suite", "verdicts": [verdict], "pass": verdict["pass"]}


COMMANDS = {
    "bm-identity": cmd_bm_identity,
    "decompose": cmd_decompose,
    "hilbert-defect": cmd_hilbert_defect,
    "nabla-cell": cmd_nabla_cell,
    "bk-torsor": cmd_bk_torsor,
    "interpolate": cmd_interpolate,
    "validate-bounds": cmd_validate_bounds,
    "suite": cmd_suite,
}


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(x) for x in obj]
    return obj


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="bmlocal",
        description="exact multiplicity identities and local-model checks",
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", help="path to a JSON config (default: stdin)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", help="write the report here instead of stdout")
    parser.add_argument(
        "--override-bounds",
        action="store_true",
        help="UNSOUND: explore outside the licensed bounds",
    )
    parser.add_argument("--version", action="version", version=__version__)
    args = parser.parse_args(argv)
    if args.override_bounds and args.command != "interpolate":
        parser.error("--override-bounds applies only to interpolate")

    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            config = json.load(fh)
    else:
        config = json.load(sys.stdin)
    if not isinstance(config, dict):
        raise SystemExit("config must be a JSON object")
    config.setdefault("task", args.command)
    config.setdefault("seed", args.seed)
    if args.override_bounds:
        config["override_bounds"] = True

    try:
        report = COMMANDS[args.command](config)
    except BMLocalError as exc:
        report = {
            "task": args.command,
            "error": type(exc).__name__,
            "message": str(exc),
            "pass": False,
        }
    text = json.dumps(_jsonable(report), sort_keys=True, indent=2) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0 if report.get("pass") else 1


if __name__ == "__main__":
    sys.exit(main())
