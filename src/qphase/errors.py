"""Exception hierarchy shared across the package."""


class QPhaseError(Exception):
    """Base class for all package errors."""


class DimensionMismatchError(QPhaseError, ValueError):
    """Operands live in spaces of different dimension."""


class NormalizationError(QPhaseError, ValueError):
    """A state that must be normalized is not."""


class HermiticityError(QPhaseError, ValueError):
    """A matrix that must be Hermitian is not."""


class DegenerateBasisError(QPhaseError, ValueError):
    """Coordinate-wise measurement requested in a degenerate basis."""


class ZeroProbabilityBranchError(QPhaseError, ValueError):
    """The metric probability formula is undefined on a zero-weight branch."""


class ScheduleCoverageError(QPhaseError, ValueError):
    """A control schedule does not cover the requested time window."""


class TruncationOverflowError(QPhaseError, ValueError):
    """A torus operation would move support outside the momentum box."""


class FrameSearchError(QPhaseError, RuntimeError):
    """No orthonormal steering frame was found within the search budget."""


class SteeringLabelError(QPhaseError, ValueError):
    """Steering eigenvalues are not one distinct finite label per frame vector."""


class FrameUnnecessaryError(QPhaseError, ValueError):
    """Steering frame requested for a fully controllable system."""


class MaxIterationsError(QPhaseError, RuntimeError):
    """An iterative protocol exceeded its iteration cap."""


class ControlDomainError(QPhaseError, ValueError):
    """A control value lies outside the admissible domain."""


class ScenarioError(QPhaseError, ValueError):
    """A scenario file failed schema validation."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")


class ProtocolParameterError(QPhaseError, ValueError):
    """A protocol parameter lies outside its admissible range or has the wrong kind."""
