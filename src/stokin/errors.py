"""Exception types shared across the package."""


class StokinError(Exception):
    """Base class for all package-specific errors."""


class ParameterError(StokinError, ValueError):
    """A kinetics parameter violates its invariant."""


class ReactivityDomainError(StokinError, ValueError):
    """Reactivity (or source) is undefined at the requested time."""


class NotPositiveSemidefiniteError(StokinError, ValueError):
    """Diffusion matrix has an eigenvalue below the clipping tolerance."""

    def __init__(self, message, worst_eigenvalue=None):
        super().__init__(message)
        self.worst_eigenvalue = worst_eigenvalue


class SingularMatrixError(StokinError, ValueError):
    """Linear system is singular to working precision."""


class MatrixOverflowError(StokinError, ValueError):
    """Matrix exponential overflowed for an extreme input norm."""


class StepSizeError(StokinError, ValueError):
    """Fixed-step Monte Carlo step is too large for the current event rates."""

    def __init__(self, message, max_allowed_dt=None):
        super().__init__(message)
        self.max_allowed_dt = max_allowed_dt


class SolverError(StokinError, RuntimeError):
    """A time-stepping scheme failed; carries the failing step index."""

    def __init__(self, message, step_index=None):
        super().__init__(message)
        self.step_index = step_index


class EnsembleFailureError(StokinError, RuntimeError):
    """Too many sample paths failed while running an ensemble, or their
    statistics overflowed."""


class ScenarioError(StokinError, ValueError):
    """A scenario file or preset failed validation."""
