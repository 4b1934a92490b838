"""Exception types shared across the package."""


class ExpwellError(Exception):
    """Base class for all library-specific errors."""


class ConvergenceError(ExpwellError):
    """A series or iteration hit its term cap before reaching tolerance."""


class NonFiniteValueError(ExpwellError):
    """A kernel produced NaN or infinity; never returned silently."""


class InterlacingViolation(ExpwellError):
    """Root parities failed to alternate, signalling a missed root."""


class NoGroundState(ExpwellError):
    """No even root found; cannot occur for a valid coupling."""


class QuadratureNotConverged(ExpwellError):
    """Adaptive quadrature failed to meet its tolerance."""


class DegenerateWronskian(ExpwellError):
    """Scattering Wronskian vanished; amplitudes undefined."""


class PoleMismatch(ExpwellError):
    """Amplitude poles disagree with the bound-state spectrum."""


class NodeSingularity(ExpwellError):
    """A seed Wronskian vanished inside the evaluation window."""


class UndefinedAtOrigin(ExpwellError):
    """One-sided limits at x = 0 disagree beyond numerical noise."""


class BracketError(ExpwellError):
    """Shooting defect has equal signs at both bracket endpoints."""
