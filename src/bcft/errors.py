"""Exception types shared across the package."""


class BcftError(Exception):
    """Base class for all domain errors raised by this package."""


class ModelValidationError(BcftError, ValueError):
    """Base class for rejected modular data."""


class TrivialLevelError(ModelValidationError):
    """Level k = 0 describes the trivial theory and is not admitted."""


class BadKacLabels(ModelValidationError):
    """Minimal-model labels must satisfy 2 <= p' < p with gcd(p, p') = 1."""


class SymmetryViolation(ModelValidationError):
    """S matrix is not symmetric within tolerance."""


class UnitarityViolation(ModelValidationError):
    """S matrix is not unitary within tolerance."""


class ModularRelationViolation(ModelValidationError):
    """S^2 = C or (ST)^3 = C, checked as S T S = T^-1 S T^-1, fails within tolerance."""


class VacuumPlacementError(ModelValidationError):
    """Sector 0 must be the vacuum: h_0 = 0 and T_0 = exp(-2 pi i c/24)."""


class VacuumRowError(ModelValidationError):
    """Vacuum row of S is not real, or contains a zero/negative entry
    where positivity is required."""


class DocumentFormatError(ModelValidationError):
    """A structured input document is malformed."""


class IntegralityFailure(BcftError):
    """A Verlinde coefficient failed to round to a non-negative integer.

    Carries the first offending triple and its residual.
    """

    def __init__(self, triple, residual):
        self.triple = triple
        self.residual = residual
        super().__init__("fusion coefficient at %s is %.3e away from a non-negative integer"
                         % (triple, residual))


class RationalizationFailure(BcftError):
    """No small-denominator rational reproduces a numeric value closely enough."""


class SearchBudgetExceeded(BcftError):
    """An enumeration visited more nodes than its configured budget."""


class NegativityFailure(BcftError):
    """The fusion-graph recursion produced a matrix with a negative entry.

    ``index`` is the first sector id where this happened.
    """

    def __init__(self, index):
        self.index = index
        super().__init__("recursion left the non-negative integers at step %d" % index)


class SpectralRadiusTooLarge(BcftError):
    """A candidate generator has spectral radius >= 2."""


class SizeMismatch(BcftError):
    """Boundary count of a nimrep differs from the invariant's diagonal trace."""


class DegenerateExponents(BcftError):
    """Exponent multiset has repeats, so no canonical eigenbasis exists."""


class SeriesDivisionError(BcftError):
    """Series division requires a unit leading coefficient in the divisor."""


class MigrationError(BcftError):
    """A cache entry was written with an incompatible format version."""


class CheckFailure(BcftError):
    """A consistency check exceeded its tolerance."""
