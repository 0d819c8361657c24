"""Hilbert-defect machinery: exact shifted identities, finite-difference
degree bounds, and the equality-forcing degree-jump detector.

For a list of dominant weights mu_i and multiplicities m(lam) obtained by
decomposing the tensor product of the shifted characters, two facts are
verified on exact integer samples:

* the shifted identity
    prod_i dim H0(n mu_i - rho)
        = sum_lam m(lam) dim H0(n(lam+rho) - rho) * dim H0(n rho - rho)^(e-1)
  holds exactly for every n >= 1;
* the unshifted defect
    D(n) = prod_i dim H0(n mu_i) - sum_lam m(lam) dim H0(n(lam+rho)) * dim H0(n rho)^(e-1)
  is a polynomial in n of degree strictly less than sum_i flag_dim(mu_i).

The multiplicities come from ``tensor_multiplicities`` (Brauer-Klimyk).
D(n) is sampled once: an overcount of k at lam adds -k T_lam(n), with
T_lam(n) = dim H0(n(lam+rho)) * dim H0(n rho)^(e-1), to every sample, so
``overcount_detected`` judges it on the samples of ``defect_degree``.

All dimensions of possibly non-dominant arguments go through the signed
product formula, so vanishing alternating sums are handled uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass

from .characters import generalized_weyl_dim
from .errors import BoundViolated, WindowTooShort
from .weights import as_weight, flag_dim, minus_rho, plus_rho, rho

__all__ = [
    "DefectSeries",
    "dim_product",
    "shifted_identity_check",
    "defect_degree",
    "equality_forcing_check",
    "overcount_detected",
]


@dataclass(frozen=True)
class DefectSeries:
    """Exact integer samples (n, D(n)) with a claimed degree bound."""

    values: tuple  # tuple of (n, D(n)) pairs at consecutive n
    claimed_degree_bound: int

    def finite_difference_degree(self) -> int:
        """Degree certified by iterated finite differences; -1 for zero."""
        samples = [v for _, v in self.values]
        degree = -1
        order = 0
        while any(samples):
            if len(samples) == 1:
                # nonzero but exhausted: window could not certify
                raise WindowTooShort("window exhausted before differences vanished")
            degree = order
            samples = [b - a for a, b in zip(samples, samples[1:])]
            order += 1
        return degree


def dim_product(mu_list, n: int, shift: str = "none") -> int:
    """prod_i dim H0(n mu_i) (or of n mu_i - rho when shift='minus_rho'),
    evaluated through the signed product formula."""
    if shift not in ("none", "minus_rho"):
        raise ValueError(f"unknown shift {shift!r}")
    out = 1
    for mu in mu_list:
        v = tuple(n * x for x in as_weight(mu))
        if shift == "minus_rho":
            v = minus_rho(v)
        out *= generalized_weyl_dim(v)
    return out


def _rhs(mu_list, mult: dict, n: int, shift: str) -> int:
    """sum_lam m(lam) dim H0(n(lam+rho)) * dim H0(n rho)^(e-1), or of
    n(lam+rho) - rho and n rho - rho when shift='minus_rho'."""
    r = rho(len(next(iter(mu_list))))
    return dim_product([r], n, shift) ** (len(mu_list) - 1) * sum(
        m * dim_product([plus_rho(as_weight(lam))], n, shift)
        for lam, m in mult.items()
    )


def shifted_identity_check(mu_list, mult: dict, n_max: int):
    """Verify the shifted identity exactly for n = 1..n_max.

    Returns (True, None) or (False, first failing n).  Refuses n_max < 1
    (BoundViolated), which would check nothing.
    """
    if n_max < 1:
        raise BoundViolated(f"n_max = {n_max} checks no n; need n_max >= 1")
    for n in range(1, n_max + 1):
        lhs = dim_product(mu_list, n, "minus_rho")
        rhs = _rhs(mu_list, mult, n, "minus_rho")
        if lhs != rhs:
            return False, n
    return True, None


def defect_values(mu_list, mult: dict, n_range) -> list:
    """Exact unshifted defect samples D(n) over n_range."""
    return [
        (n, dim_product(mu_list, n, "none") - _rhs(mu_list, mult, n, "none"))
        for n in n_range
    ]


def _defect_series(mu_list, mult: dict, n_range) -> DefectSeries:
    """Defect samples over n_range (default 1..bound+4) with the claimed
    bound sum flag_dim; refuses a window too short to certify it."""
    bound = sum(flag_dim(tuple(mu)) for mu in mu_list)
    if n_range is None:
        n_range = range(1, bound + 5)
    n_range = list(n_range)
    if len(n_range) < bound + 3:
        raise WindowTooShort(
            f"need at least {bound + 3} samples for claimed bound {bound}"
        )
    return DefectSeries(
        values=tuple(defect_values(mu_list, mult, n_range)),
        claimed_degree_bound=bound,
    )


def defect_degree(mu_list, mult: dict, n_range=None):
    """DefectSeries plus the fitted degree; pass iff degree < sum flag_dim.

    Returns (series, degree, passed).
    """
    series = _defect_series(mu_list, mult, n_range)
    degree = series.finite_difference_degree()
    return series, degree, degree < series.claimed_degree_bound


def overcount_detected(series: DefectSeries, mu_list, overcount: dict) -> bool:
    """True iff inflating the multiplicities by ``overcount`` pushes the
    defect degree up to (at least) the claimed bound -- i.e. the overcount
    is detected by the degree bound.

    ``series`` holds the samples D(n) of the true multiplicities, as
    ``defect_degree`` returns them; each inflated sample is D(n) minus
    sum over lam of overcount[lam] T_lam(n), with nothing sampled again.
    """
    if not any(x > 0 for x in overcount.values()):
        raise ValueError("overcount must have some positive entry")
    if any(x < 0 for x in overcount.values()):
        raise ValueError("overcount entries must be >= 0")
    inflated = tuple(
        (n, D - _rhs(mu_list, overcount, n, "none")) for n, D in series.values
    )
    bound = series.claimed_degree_bound
    return DefectSeries(inflated, bound).finite_difference_degree() >= bound


def equality_forcing_check(mu_list, mult: dict, overcount: dict, n_range=None) -> bool:
    """``overcount_detected`` on the defect of ``mult`` sampled over
    n_range (default 1..sum flag_dim + 4)."""
    return overcount_detected(_defect_series(mu_list, mult, n_range), mu_list, overcount)
