"""Output oracles: checks of each CLI report that share no code with bmlocal.

``check(command, config, code, report)`` returns None for a correct
report and a one-line reason otherwise.  A report is wrong when the CLI
exited nonzero, when it carries an error, or when its answer fails an
identity recomputed here from first principles:

* decompose: sum of m(w) dim(w) equals the product of the factor
  dimensions, and every weight w is dominant;
* bm-identity: sum over terms of m times the product of dim(lambda)
  equals the product over embeddings of dim(mu - rho).  The report's own
  "pass" is hard-coded, so it is not trusted;
* hilbert-defect: the degree the finite differences of the reported
  samples give equals the reported degree, which lies below the flag
  dimension bound recomputed from mu_list;
* bk-torsor: g0 = 1 mod u^N, and C phi(g0) = g0 g C mod u^m with m the
  achieved precision.  Multiplication only, no inverse;
* interpolate: every ledger row (n, v, bound) has v >= bound;
* suite: the verdict names the requested suite and passes.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np


def weyl_dimension(w) -> int:
    """dim of the GL_d representation of highest weight w (Weyl's formula)."""
    d = len(w)
    out = Fraction(1)
    for i in range(d):
        for j in range(i + 1, d):
            out *= Fraction(w[i] - w[j] + j - i, j - i)
    return int(out)


def _dominant(w) -> bool:
    return all(a >= b for a, b in zip(w, w[1:]))


def _weight(key: str):
    return tuple(int(x) for x in key.split(","))


def check_decompose(config, report):
    want = 1
    for w in config["weights"]:
        want *= weyl_dimension(w)
    got = 0
    for key, m in report["multiplicities"].items():
        w = _weight(key)
        if not _dominant(w):
            return f"non-dominant weight {key}"
        got += m * weyl_dimension(w)
    if got != want:
        return f"dimension sum {got} != product of factor dimensions {want}"
    return None


def check_bm_identity(config, report):
    want = 1
    for mu in config["mu"]:
        d = len(mu)
        want *= weyl_dimension([x - (d - 1 - i) for i, x in enumerate(mu)])
    got = 0
    for term in report["terms"]:
        prod = 1
        for lam in term["lambda"].split(";"):
            prod *= weyl_dimension(_weight(lam))
        got += term["multiplicity"] * prod
    if not report["terms"] or got != want:
        return f"multiplicity-weighted dimension {got} != {want}"
    return None


def _degree(samples) -> int:
    """Degree certified by iterated finite differences; -1 for all zero."""
    degree, order = -1, 0
    while any(samples):
        if len(samples) == 1:
            return None
        degree = order
        samples = [b - a for a, b in zip(samples, samples[1:])]
        order += 1
    return degree


def check_hilbert_defect(config, report):
    bound = sum(
        sum(1 for i in range(len(w)) for j in range(i + 1, len(w)) if w[i] != w[j])
        for w in config["mu_list"]
    )
    verdicts = {v["anchor"]: v for v in report["verdicts"]}
    if not all(v["pass"] for v in verdicts.values()):
        return "a verdict failed"
    deg = verdicts["defect-degree-bound"]
    if deg["bound"] != bound:
        return f"degree bound {deg['bound']} != flag dimension sum {bound}"
    got = _degree([v for _, v in deg["samples"]])
    if got is None or got != deg["degree"] or got >= bound:
        return f"samples give degree {got}, report says {deg['degree']}, bound {bound}"
    return None


def _matrix(entries, p, n):
    out = []
    for row in entries:
        out_row = []
        for coeffs in row:
            a = np.zeros(n, dtype=np.int64)
            c = np.asarray(coeffs[:n], dtype=np.int64) % p
            a[: c.shape[0]] = c
            out_row.append(a)
        out.append(out_row)
    return out


def _matmul(a, b, p, n):
    d = len(a)
    return [
        [
            sum(np.convolve(a[i][k], b[k][j])[:n] for k in range(d)) % p
            for j in range(d)
        ]
        for i in range(d)
    ]


def _phi(a, p, n):
    """u -> u^p on each entry, mod u^n."""
    out = []
    for row in a:
        out_row = []
        for s in row:
            t = np.zeros(n, dtype=np.int64)
            t[::p] = s[: len(t[::p])]
            out_row.append(t)
        out.append(out_row)
    return out


def check_bk_torsor(config, report):
    p, N, M = config["field"]["p"], config["N"], config["modulus"]
    m = report["achieved_precision"]
    g0 = report["g0"]
    d = len(config["C"])
    if not N < m <= M or len(g0) != d:
        return f"achieved precision {m} outside ({N}, {M}]"
    for i in range(d):
        for j in range(d):
            head = list(g0[i][j][:N]) + [0] * max(0, N - len(g0[i][j]))
            if head != ([1] if i == j else [0]) + [0] * (N - 1):
                return f"g0[{i}][{j}] is not 1 mod u^{N}"
    C = _matrix(config["C"], p, m)
    g = _matrix(config["g"], p, m)
    G0 = _matrix(g0, p, m)
    lhs = _matmul(C, _phi(G0, p, m), p, m)
    rhs = _matmul(_matmul(G0, g, p, m), C, p, m)
    for i in range(d):
        for j in range(d):
            if not np.array_equal(lhs[i][j], rhs[i][j]):
                return f"C phi(g0) != g0 g C mod u^{m} at entry ({i}, {j})"
    return None


def check_interpolate(config, report):
    for n, v, bound in report["ledger"]:
        if v < bound:
            return f"ledger row {n}: valuation {v} < bound {bound}"
    if not report["pass"]:
        return "failed verdict"
    return None


def check_suite(config, report):
    (verdict,) = report["verdicts"]
    if verdict["name"] != config["suite"] or not verdict["pass"]:
        return f"suite {config['suite']} verdict {verdict}"
    return None


CHECKS = {
    "decompose": check_decompose,
    "bm-identity": check_bm_identity,
    "hilbert-defect": check_hilbert_defect,
    "bk-torsor": check_bk_torsor,
    "interpolate": check_interpolate,
    "suite": check_suite,
}


def check(command, config, code, report):
    """None if the report is correct, else why it is not."""
    if code != 0:
        return f"exit code {code}"
    if "error" in report:
        return f"{report['error']}: {report.get('message')}"
    try:
        return CHECKS[command](config, report)
    except (KeyError, TypeError, ValueError) as exc:
        return f"malformed report: {type(exc).__name__}: {exc}"
