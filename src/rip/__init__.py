"""Robust aggregation of instant-policy trajectory samples.

Query a policy several times, fit a Student's t-regression over normalized
time to the resulting bundle, and read off the heavy-tail-robust mean as
the trajectory to execute. Hallucinated samples act as outliers that the
tails absorb instead of dragging the answer.
"""

from .core import (
    KeypointSet,
    Trajectory,
    TrajectoryBundle,
    align_bundle,
    resample_trajectory,
)
from .downsample import downsample, mask_key_steps, uniform_downsample
from .errors import (
    CoordinateRangeError,
    DownsampleError,
    InvalidTrajectoryError,
    MalformedResponseError,
    NumericalError,
    PipelineError,
    RipError,
    TrainingError,
    TransportError,
)
from .estimator import (
    FitConfig,
    StudentTEstimator,
    extract_mean,
    gradient_check,
    log_density,
    log_gamma,
)
from .pipeline import RunReport, run_rip, single_sample
from .policy import (
    PolicyConfig,
    RemoteConfig,
    SampleResult,
    SyntheticOracleConfig,
    make_consensus_task,
    sample_trajectories,
)
from .tokens import PolicyContext, decode_trajectory, encode_context

__version__ = "0.1.0"

__all__ = [
    "CoordinateRangeError",
    "DownsampleError",
    "FitConfig",
    "InvalidTrajectoryError",
    "KeypointSet",
    "MalformedResponseError",
    "NumericalError",
    "PipelineError",
    "PolicyConfig",
    "PolicyContext",
    "RemoteConfig",
    "RipError",
    "RunReport",
    "SampleResult",
    "StudentTEstimator",
    "SyntheticOracleConfig",
    "Trajectory",
    "TrajectoryBundle",
    "TrainingError",
    "TransportError",
    "align_bundle",
    "decode_trajectory",
    "downsample",
    "encode_context",
    "extract_mean",
    "gradient_check",
    "log_density",
    "log_gamma",
    "make_consensus_task",
    "mask_key_steps",
    "resample_trajectory",
    "run_rip",
    "sample_trajectories",
    "single_sample",
    "uniform_downsample",
]
