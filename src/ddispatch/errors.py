"""Exception types shared across the toolkit.

Every error raised on purpose derives from DispatchError so callers (and the
command line front end) can map failures to stable exit codes:

  * ValidationError and its subclasses signal malformed inputs,
  * the remaining subclasses signal violated mathematical preconditions,
  * IntegrationDiverged signals a runaway continuation run.
"""


class DispatchError(Exception):
    """Base class for all toolkit errors."""


class ValidationError(DispatchError, ValueError):
    """Input data violates a structural invariant (shapes, row sums, signs)."""


class NotIrreducible(DispatchError):
    """The chain's support graph is not strongly connected."""


class SingularSystem(DispatchError):
    """A dense solve failed or left a residual above tolerance."""


class ZeroMass(DispatchError):
    """An operation needed a strictly positive probability and found none."""


class SupportViolation(DispatchError):
    """A kernel puts mass where the reference kernel has none."""


class NonFinite(DispatchError):
    """A tilt left the floating range (exponent too large or too small)."""


class IntegrationDiverged(DispatchError):
    """Continuation in zeta failed before reaching the requested endpoint."""

    def __init__(self, message, zeta_reached=None):
        super().__init__(message)
        self.zeta_reached = zeta_reached


class AdjointProductReducible(DispatchError):
    """The time-reversal product kernel is reducible, so the doubly-smoothed
    design map is undefined for this model."""


class OutOfGrid(DispatchError):
    """A zeta value falls outside the family's stored grid."""


class NearSingular(DispatchError):
    """A resolvent solve was requested too close to a system pole."""


class UnstablePole(DispatchError):
    """The state matrix has more than one eigenvalue on the unit circle."""


class InfeasibleDutyCycle(DispatchError):
    """No switching curve reproduces the requested mean cycle length."""


class LatticeMismatch(ValidationError):
    """Temperature lattice parameters are inconsistent with the state count."""


class BadCutoffs(ValidationError):
    """Band-split cutoff frequencies are missing, unordered, or nonpositive."""
