"""The primality precondition shared by every computation over F_p."""

from functools import lru_cache

from .errors import NotPrime

__all__ = ["require_prime"]

# Miller-Rabin with these bases is deterministic below this bound
# (Sorenson and Webster, "Strong pseudoprimes to twelve prime bases", 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3_317_044_064_679_887_385_961_981


@lru_cache(maxsize=256)
def require_prime(p: int) -> int:
    """Return p if it is prime; raise NotPrime if it is not, or if it is too
    large for the deterministic Miller-Rabin test to certify."""
    if p < 2:
        raise NotPrime(f"p = {p} is not a prime")
    if p >= _MR_LIMIT:
        raise NotPrime(f"p = {p} is too large to certify as prime")
    for q in _MR_BASES:
        if p % q == 0:
            if p == q:
                return p
            raise NotPrime(f"p = {p} is not a prime (divisible by {q})")
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            raise NotPrime(f"p = {p} is not a prime")
    return p
