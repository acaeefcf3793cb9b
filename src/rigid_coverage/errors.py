"""Exception types shared across the library, and the integer check of
entries read from outside the program."""

import numbers


class RigidCoverageError(Exception):
    """Base class for all library-specific errors."""


class InvalidInputError(RigidCoverageError, ValueError):
    """Malformed or out-of-contract arguments."""


class InvalidStepError(InvalidInputError):
    """A graph construction step references missing vertices or edges."""


class DegenerateEdgeError(RigidCoverageError, ValueError):
    """An edge connects points closer than the separation tolerance."""


class DegenerateSitesError(RigidCoverageError, ValueError):
    """Voronoi sites are too close together to partition reliably."""


class DegenerateMassError(RigidCoverageError, ValueError):
    """A density integrates to (numerically) zero over a cell."""


class UnsupportedDimensionError(RigidCoverageError, ValueError):
    """Operation is only available in the plane."""


class RecoveryInfeasibleError(RigidCoverageError, RuntimeError):
    """No edge set restores minimal rigidity after a vertex loss."""


class NotStabilizableError(RigidCoverageError, RuntimeError):
    """The Riccati recursion did not converge for the given system."""


class InvalidScalingError(RigidCoverageError, ValueError):
    """Lyapunov scaling parameter violates its spectral-radius bound."""


class TerminalSetEmptyError(RigidCoverageError, RuntimeError):
    """No positive invariant-set level satisfies the constraints."""


class OcpInfeasibleError(RigidCoverageError, RuntimeError):
    """The solver could not produce a strictly feasible trajectory."""

    def __init__(self, message, solution=None):
        super().__init__(message)
        self.solution = solution


class RecursiveFeasibilityError(RigidCoverageError, RuntimeError):
    """The shifted warm start violated a constraint it must satisfy."""


class NumericalBreakdownError(RigidCoverageError, RuntimeError):
    """A self-check on numerical output failed."""


def _integer(value, name: str, least: int = 0) -> int:
    """An integral scalar entry of at least `least`; booleans and numbers
    with a fractional part are rejected, not truncated."""
    integral = isinstance(value, numbers.Integral) or (isinstance(value, float) and value.is_integer())
    if isinstance(value, bool) or not integral:
        raise InvalidInputError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise InvalidInputError(f"{name} must be at least {least}, got {value!r}")
    return int(value)
