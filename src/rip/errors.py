"""Exception hierarchy shared across the package."""


class RipError(Exception):
    """Base class for all package errors."""


class InvalidTrajectoryError(RipError):
    """A trajectory violates a structural invariant (length, finiteness, gripper domain)."""


class CoordinateRangeError(RipError):
    """A coordinate exceeds the encodable range of the token format."""


class DownsampleError(RipError):
    """The downsampling budget cannot accommodate the masked key steps."""


class MalformedResponseError(RipError):
    """A policy response contains no decodable action block."""


class TransportError(RipError):
    """No remote query decoded, and at least one failed on the wire.

    Carries the per-query status list so callers can report which slots failed.
    """

    def __init__(self, message, statuses=None):
        super().__init__(message)
        self.statuses = list(statuses) if statuses is not None else []


class NumericalError(RipError):
    """A likelihood or gradient evaluation produced a non-finite value."""


class TrainingError(RipError):
    """Optimization diverged; carries the step at which the loss became non-finite."""

    def __init__(self, message, step=None):
        super().__init__(message)
        self.step = step


class PipelineError(RipError):
    """The aggregation pipeline could not produce a trajectory."""
