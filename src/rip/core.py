"""Domain types for trajectories, keypoints, and trajectory bundles.

An action, one end-effector pose, is three 3D points (gripper body and
both fingertips) plus a binary gripper flag: one row of 10 scalar
channels [p0, p1, p2, g]. Positions are meters in a fixed right-handed
world frame; g is 0 (open) or 1 (closed). A trajectory is one immutable
(T, 10) array of time-ordered actions; a bundle is one (Q, T, 10) array
of trajectories resampled onto a shared normalized-time grid so they can
be fitted jointly. There is no per-step object: JSON and text read and
write the rows directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidTrajectoryError

# Channel layout of the flat action vector: p0, p1, p2 then gripper.
ACTION_DIM = 10
GRIPPER_CHANNEL = 9
POSITION_CHANNELS = tuple(range(9))


def _as_point(value, name: str) -> tuple[float, float, float]:
    # Points arrive from files, so a non-numeric value is bad input, not a bug.
    try:
        pt = tuple(float(v) for v in value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidTrajectoryError(f"{name} is not a list of numbers: {exc}") from exc
    if len(pt) != 3:
        raise InvalidTrajectoryError(f"{name} must have 3 coordinates, got {len(pt)}")
    if not all(math.isfinite(v) for v in pt):
        raise InvalidTrajectoryError(f"{name} has non-finite coordinates: {pt}")
    return pt


def _checked_actions(data, ndim: int) -> np.ndarray:
    """Validate an array of actions in one vectorised pass.

    ``ndim`` is 2 for a trajectory (T, 10) and 3 for a bundle (Q, T, 10).
    Requires T >= 2, finite values and a gripper channel in {0, 1}.
    Returns a read-only float64 copy, so the caller's array stays theirs.
    """
    try:
        arr = np.array(data, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidTrajectoryError(f"actions are not a numeric array: {exc}") from exc
    if arr.ndim != ndim or arr.shape[-1] != ACTION_DIM or arr.shape[-2] < 2 or arr.size == 0:
        want = "(T, 10)" if ndim == 2 else "(Q, T, 10)"
        raise InvalidTrajectoryError(f"actions must be {want} with T >= 2, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise InvalidTrajectoryError("actions have non-finite values")
    g = arr[..., GRIPPER_CHANNEL]
    if not ((g == 0.0) | (g == 1.0)).all():
        raise InvalidTrajectoryError("gripper state must be 0 or 1")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Time-ordered sequence of at least two actions, stored as one
    read-only (T, 10) float64 array, one [p0, p1, p2, g] row per action.

    The array is the trajectory; ``gripper_states()`` is a view built on
    demand. Equality compares values and ``source``.
    """

    data: np.ndarray
    source: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "data", _checked_actions(self.data, 2))

    def __len__(self) -> int:
        return len(self.data)

    def __array__(self, dtype=None, copy=None):
        # Lets numpy read trajectories directly, e.g. to stack a bundle.
        # NumPy 1.x calls this without ``copy``, so None must not reach
        # ``np.array`` (1.x rejects ``copy=None``).
        arr = self.data if dtype is None else self.data.astype(dtype)
        return arr.copy() if copy else arr

    def __eq__(self, other):
        if not isinstance(other, Trajectory):
            return NotImplemented
        return self.source == other.source and np.array_equal(self.data, other.data)

    def __reduce__(self):
        # Copies and pickles go through the constructor, so they are
        # validated and read-only too.
        return Trajectory, (self.data, self.source)

    def to_array(self) -> np.ndarray:
        """A writable (T, 10) copy."""
        return self.data.copy()

    @classmethod
    def from_array(cls, arr, source: str | None = None) -> "Trajectory":
        return cls(arr, source=source)

    def gripper_states(self) -> tuple[int, ...]:
        return tuple(self.data[:, GRIPPER_CHANNEL].astype(int).tolist())


@dataclass(frozen=True)
class KeypointSet:
    """Fixed-size set of visual 3D keypoints (meters, world frame)."""

    points: tuple[tuple[float, float, float], ...]

    def __post_init__(self):
        try:
            raw = tuple(self.points)
        except TypeError as exc:
            raise InvalidTrajectoryError(f"keypoints are not a list of points: {exc}") from exc
        pts = tuple(_as_point(p, f"keypoint[{i}]") for i, p in enumerate(raw))
        if not pts:
            raise InvalidTrajectoryError("a keypoint set needs at least one point")
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return len(self.points)

    def to_array(self) -> np.ndarray:
        return np.array(self.points, dtype=float)


@dataclass(frozen=True, eq=False)
class TrajectoryBundle:
    """Q candidate trajectories resampled to a common length T, stored as
    one read-only (Q, T, 10) array.

    ``data`` also accepts a sequence of equal-length trajectories. The grid
    is derived from T: the uniform normalized grid {(t-1)/(T-1)}, so
    bundles from policies that returned different episode lengths are
    directly comparable step by step.
    """

    data: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "data", _checked_actions(self.data, 3))

    def __eq__(self, other):
        if not isinstance(other, TrajectoryBundle):
            return NotImplemented
        return np.array_equal(self.data, other.data)

    def __reduce__(self):
        return TrajectoryBundle, (self.data,)

    @property
    def trajectories(self) -> tuple[Trajectory, ...]:
        return tuple(Trajectory(tr) for tr in self.data)

    @property
    def query_count(self) -> int:
        return self.data.shape[0]

    @property
    def length(self) -> int:
        return self.data.shape[1]

    def to_array(self) -> np.ndarray:
        """A writable (Q, T, 10) copy."""
        return self.data.copy()

    def grid(self) -> np.ndarray:
        return _uniform_grid(self.length)


def normalize_time(trajectory: Trajectory) -> np.ndarray:
    """Map step indices of a trajectory onto the uniform grid {(t-1)/(T-1)}.

    The first step lands on 0 and the last on 1 regardless of episode
    length, which is what makes differently sized samples comparable.
    """
    n = len(trajectory)
    return _uniform_grid(n)


def _uniform_grid(n: int) -> np.ndarray:
    if n < 2:
        raise InvalidTrajectoryError(f"cannot normalize a trajectory of length {n}")
    return np.arange(n, dtype=float) / (n - 1)


def resample_trajectory(trajectory: Trajectory, target_len: int) -> Trajectory:
    """Resample one trajectory to a new length on its normalized grid.

    Positions interpolate linearly; the gripper holds its previous sample;
    the first and last actions are preserved exactly.
    """
    if target_len < 2:
        raise InvalidTrajectoryError(f"target length must be >= 2, got {target_len}")
    # Same length means identical grids; copying keeps alignment bitwise
    # idempotent instead of relying on interpolation round-off behavior.
    if len(trajectory) == target_len:
        return trajectory

    grid_in = _uniform_grid(len(trajectory))
    grid_out = _uniform_grid(target_len)
    data = trajectory.data

    out = np.empty((target_len, ACTION_DIM))
    # np.interp returns the end samples exactly at the grid's end points.
    for c in POSITION_CHANNELS:
        out[:, c] = np.interp(grid_out, grid_in, data[:, c])
    # Gripper: previous-sample hold. Interpolating a binary channel would
    # fabricate fractional grasps.
    hold = np.searchsorted(grid_in, grid_out, side="right") - 1
    hold = np.clip(hold, 0, len(trajectory) - 1)
    out[:, GRIPPER_CHANNEL] = data[hold, GRIPPER_CHANNEL]
    return Trajectory(out, source=trajectory.source)


def align_bundle(trajectories, target_len: int) -> TrajectoryBundle:
    """Resample trajectories of arbitrary lengths onto one common grid.

    Positions are piecewise-linearly interpolated at the shared normalized
    timesteps; the gripper channel is carried by previous-sample hold; the
    first and last action of every input are preserved exactly.
    """
    trajs = list(trajectories)
    if not trajs:
        raise InvalidTrajectoryError("cannot align an empty set of trajectories")
    resampled = tuple(resample_trajectory(tr, target_len) for tr in trajs)
    return TrajectoryBundle(resampled)
