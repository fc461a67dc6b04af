"""Exception types shared across the package."""


class ReillyLabError(Exception):
    """Base class for all package-specific errors."""


class ConvexityViolation(ReillyLabError):
    """Strict convexity (II > 0) failed; carries the offending location."""

    def __init__(self, message, where=None, value=None):
        super().__init__(message)
        self.where = where
        self.value = value


class MeanConvexityViolation(ReillyLabError):
    """Generalized mean curvature H_mu is not positive where required."""


class CurvatureNotPositive(ReillyLabError):
    """Ric_{mu,N} <= 0 somewhere on a domain that requires positivity."""


class SingularSystem(ReillyLabError):
    """Neumann/periodic Poisson data violates the compatibility condition."""


class ConvergenceFailure(ReillyLabError):
    """A dense symmetric eigensolve failed; signals grid pathology."""


class NonRadialInput(ReillyLabError):
    """Sample vector on a radial ball is not a smooth radial function."""


class StrengthenedDegenerate(ReillyLabError):
    """Strengthened boundary inequality degenerates (ball equality case)."""


class CapOverflow(ReillyLabError):
    """Spherical cap extension would reach or pass the antipode."""


class ConfigError(ReillyLabError):
    """Malformed or unknown configuration input."""
