"""Exception hierarchy shared by all positonkit modules."""


class PositonkitError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(PositonkitError):
    """A contract on inputs was violated (bad grids, mismatched fields, ...)."""


class OutOfDomainError(PositonkitError):
    """Evaluation was requested outside the domain where data exists."""


class IntegrationFailureError(PositonkitError):
    """The ODE integrator failed (step-size underflow or similar)."""

    def __init__(self, message, x_failed=None):
        super().__init__(message)
        self.x_failed = x_failed


class DegenerateWronskianError(PositonkitError):
    """A Wronskian needed as a denominator is numerically zero."""


class PoleEvaluationError(PositonkitError):
    """A closed form or transformed solution was evaluated at one of its poles."""

    def __init__(self, message, k=None):
        super().__init__(message)
        self.k = k


class TailDivergenceError(PositonkitError):
    """A tail that must be square integrable does not decay (running integral not Cauchy)."""


class OrthonormalityError(PositonkitError):
    """Eigenfunctions handed to the removal transform are not orthonormal enough."""


class DiscretizationFailureError(PositonkitError):
    """The Fredholm determinant discretization broke down (det <= 0)."""

    def __init__(self, message, suggested_m=None):
        super().__init__(message)
        self.suggested_m = suggested_m


class ResidueClassificationError(PositonkitError):
    """Richardson extrapolation of a residue did not converge to a simple-pole pattern."""
