"""Exception types shared across the package.

Every refusal is explicit: operations whose validity depends on a stated
bound or precondition raise one of these rather than returning a value
that is only approximately meaningful.
"""

__all__ = [
    "BMLocalError",
    "RankMismatch",
    "InexactDivision",
    "NonTerminating",
    "IndeterminateValuation",
    "PrecisionExhausted",
    "BoundViolated",
    "IrregularHodgeType",
    "WindowTooShort",
    "SingularMatrix",
    "FiltrationTypeMismatch",
    "CollidingPiValues",
    "UnsupportedRank",
    "HeightViolated",
    "ConvergenceConditionViolated",
    "NonIntegralLimit",
    "IntegralityViolated",
    "IntegralityFailure",
    "WildRamification",
    "NotPrime",
    "InvalidWeight",
]


class BMLocalError(Exception):
    """Base class for all package-specific errors."""


class RankMismatch(BMLocalError):
    """Operands live in Laurent rings of different rank."""


class InexactDivision(BMLocalError):
    """A polynomial division expected to be exact left a remainder."""


class NonTerminating(BMLocalError):
    """An iteration budget was exceeded, or ``decompose`` was given a
    non-symmetric polynomial (its product with A(rho) is not antisymmetric)."""


class IndeterminateValuation(BMLocalError):
    """All known coefficients vanish within the stored precision."""


class PrecisionExhausted(BMLocalError):
    """A result would require coefficients beyond the stored precision."""


class BoundViolated(BMLocalError):
    """An input lies outside the bound under which the computation is valid."""


class IrregularHodgeType(BMLocalError):
    """A Hodge type required to be regular has a repeated entry."""


class WindowTooShort(BMLocalError):
    """Too few samples to certify a polynomial degree bound."""


class SingularMatrix(BMLocalError):
    """A matrix required to be invertible is singular (within precision)."""


class FiltrationTypeMismatch(BMLocalError):
    """Filtration data does not match the graded ranks of its weight."""


class CollidingPiValues(BMLocalError):
    """The scalars standing in for uniformiser conjugates are not distinct."""


class UnsupportedRank(BMLocalError):
    """The computation is only implemented for d = 2."""


class HeightViolated(BMLocalError):
    """u^{eh} * C^{-1} fails to be integral for the claimed height h."""


class ConvergenceConditionViolated(BMLocalError):
    """The torsor iteration's convergence condition eh <= (p-1)N - 1 fails."""


class NonIntegralLimit(BMLocalError):
    """An iterate of the torsor solver failed to be integral."""


class IntegralityViolated(BMLocalError):
    """A matrix asserted to be integral and congruent to 1 mod u^N is not."""


class IntegralityFailure(BMLocalError):
    """An interpolant failed the pi-integrality verification."""


class WildRamification(BMLocalError):
    """Requested a wildly ramified context (gcd(e, p) != 1): refused."""


class NotPrime(BMLocalError):
    """A characteristic p required to be prime is not (or cannot be certified)."""


class InvalidWeight(BMLocalError, ValueError):
    """A weight list is empty, or a weight required to be dominant is not."""
