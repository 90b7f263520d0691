"""Exception types raised across the package."""


class QSiegelError(Exception):
    """Base class for all qsiegel errors."""


class DimensionMismatch(QSiegelError):
    pass


class Singular(QSiegelError):
    """Quadratic representation is singular; the element is not invertible."""

    def __init__(self, msg, smallest_singular_value=None):
        super().__init__(msg)
        self.smallest_singular_value = smallest_singular_value


class EigSolverFailure(QSiegelError):
    pass


class DomainError(QSiegelError):
    """Spectral function applied outside its domain (e.g. log off the cone)."""


class NotIdempotent(QSiegelError):
    pass


class NotInCone(QSiegelError):
    pass


class NotInDomain(QSiegelError):
    """Point lies outside the Siegel domain."""


class NotALinearSpace(QSiegelError):
    """Isotropic vectors of an indefinite form do not form a subspace."""


class NotInLambda(QSiegelError):
    """Parameter x fails the admissibility conditions for kernel parameters."""


class DecompositionFailure(QSiegelError):
    """A required direct-sum split could not be performed within tolerance."""


class FrameInvalid(QSiegelError):
    pass


class FactorizationResidualTooLarge(QSiegelError):
    def __init__(self, msg, residual=None):
        super().__init__(msg)
        self.residual = residual


class NotPSD(QSiegelError):
    pass


class NonFiniteValue(QSiegelError):
    """A computed value overflowed to inf or NaN."""


class HypothesisViolated(QSiegelError):
    pass


class UnknownEntry(QSiegelError):
    pass


class SpecFileError(QSiegelError):
    """Invalid CLI input file (schema or content)."""


class UsageError(QSiegelError):
    """Invalid command-line argument."""
