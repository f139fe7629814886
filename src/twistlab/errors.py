"""Exception hierarchy. Everything a caller can recover from derives from DomainError."""


class TwistlabError(Exception):
    """Base class for all package errors."""


class DomainError(TwistlabError):
    """A request that is mathematically ill-posed for the given inputs (CLI exit code 3)."""


class DegenerateKernelError(DomainError):
    """A kernel Fourier coefficient in a denominator vanishes; the quantity is undefined."""


class SingularPointError(DomainError):
    """Evaluation at a singular point of a closed-form expression."""

    def __init__(self, message, point=None):
        super().__init__(message)
        self.point = point


class SecondHarmonicResonanceError(DomainError):
    """The double-frequency eigenvalue vanishes, so the cubic coefficient is undefined."""


class NoBifurcationError(DomainError):
    """No bifurcation exists for the requested configuration."""


class NoThresholdError(DomainError):
    """No sign change found in the scanned parameter range."""


class BranchAbsentError(DomainError):
    """The bifurcating branch does not exist on the requested side of the bifurcation."""


class NearSymmetryDegenerateError(DomainError):
    """Newton Jacobian is numerically singular along the ring-shift family.

    Usually means the iteration started on (or collapsed onto) the symmetry
    orbit of an equilibrium; try a different initial pattern phase. ``rcond``
    is the Jacobian's reciprocal condition, ``residual`` the iterate's
    ``sup |rhs|``.
    """

    def __init__(self, message, rcond=None, residual=None):
        super().__init__(message)
        self.rcond = rcond
        self.residual = residual


class ConvergenceError(DomainError):
    """An iteration failed to reach its tolerance."""

    def __init__(self, message, iterations=None, residual=None):
        super().__init__(message)
        self.iterations = iterations
        self.residual = residual


class StiffnessError(DomainError):
    """Time integration step size underflowed."""

    def __init__(self, message, t_reached=None):
        super().__init__(message)
        self.t_reached = t_reached


class ResourceLimitError(DomainError):
    """Problem size exceeds the configured dense-solver cap."""

