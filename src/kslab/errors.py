"""Exception types shared across the package."""


class KSLabError(Exception):
    """Base class for all package-specific errors."""


class GridTooCoarse(KSLabError):
    """Grid has fewer than 8 space or time intervals, too few for the
    widest stencil (GridSpec)."""


class LengthMismatch(KSLabError):
    """Array length does not match the grid it claims to live on."""


class GridMismatch(KSLabError):
    """Two objects that must share a grid do not."""


class CompatibilityViolation(KSLabError):
    """Initial profile is incompatible with the boundary data at t=0."""


class SingularSystem(KSLabError):
    """Banded one-step system could not be factorized (zero pivot)."""


class NoConvergence(KSLabError):
    """Fixed-point iteration failed to contract within the allowed budget."""


class HypothesisViolation(KSLabError):
    """A hypothesis of a theorem fails for the supplied data: hip4B, the
    Carleman weight's smallness condition on sigma; M1, the L-infinity bound
    on gamma and every gamma_tilde; or M2, the admissibility bound on
    the norm surrogate of the stability scan's reference trajectory or of
    the recovery's anchor solve.

    ``failed`` lists the names of the violated hypotheses.
    """

    def __init__(self, message, failed=()):
        super().__init__(message)
        self.failed = tuple(failed)


class LayerViolation(KSLabError):
    """Test function is not negligible inside the singular time layers."""


class InfConditionViolated(KSLabError):
    """Reference trajectory snapshot curvature falls below the required floor."""


class ConfigError(KSLabError):
    """Run configuration failed to parse or validate."""
