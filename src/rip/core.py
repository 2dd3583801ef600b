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


@dataclass(frozen=True, eq=False)
class _ActionArray:
    """One read-only float64 array of actions, ``_NDIM`` axes deep.

    Built from any array-like in one vectorised pass: the last axis holds
    10 channels, the step axis before it at least two steps, every value
    is finite and the gripper channel is 0 or 1. The array is copied, so
    the caller's stays theirs. Equality compares values only, and never
    holds across subclasses.
    """

    data: np.ndarray
    _NDIM = 0

    def __post_init__(self):
        try:
            arr = np.array(self.data, dtype=float)
        except (TypeError, ValueError, OverflowError) as exc:
            raise InvalidTrajectoryError(f"actions are not a numeric array: {exc}") from exc
        if (arr.ndim != self._NDIM or arr.shape[-1] != ACTION_DIM or arr.shape[-2] < 2
                or arr.size == 0):
            want = "(T, 10)" if self._NDIM == 2 else "(Q, T, 10)"
            raise InvalidTrajectoryError(f"actions must be {want} with T >= 2, got shape {arr.shape}")
        if not np.isfinite(arr).all():
            raise InvalidTrajectoryError("actions have non-finite values")
        g = arr[..., GRIPPER_CHANNEL]
        if not ((g == 0.0) | (g == 1.0)).all():
            raise InvalidTrajectoryError("gripper state must be 0 or 1")
        arr.flags.writeable = False
        object.__setattr__(self, "data", arr)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return np.array_equal(self.data, other.data)

    def __reduce__(self):
        # Copies and pickles go through the constructor, so they are
        # validated and read-only too.
        return type(self), (self.data,)

    def to_array(self) -> np.ndarray:
        """A writable copy of the array."""
        return self.data.copy()


@dataclass(frozen=True, eq=False)
class Trajectory(_ActionArray):
    """Time-ordered sequence of at least two actions, stored as one
    read-only (T, 10) float64 array, one [p0, p1, p2, g] row per action.

    The array is the trajectory; ``gripper_states()`` is a view built on
    demand.
    """

    _NDIM = 2

    def __len__(self) -> int:
        return len(self.data)

    def __array__(self, dtype=None, copy=None):
        # Lets numpy read trajectories directly, e.g. to stack a bundle.
        # NumPy 1.x calls this without ``copy``, so None must not reach
        # ``np.array`` (1.x rejects ``copy=None``).
        arr = self.data if dtype is None else self.data.astype(dtype)
        return arr.copy() if copy else arr

    @classmethod
    def from_array(cls, arr) -> "Trajectory":
        return cls(arr)

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
class TrajectoryBundle(_ActionArray):
    """Q candidate trajectories resampled to a common length T, stored as
    one read-only (Q, T, 10) array.

    ``data`` also accepts a sequence of equal-length trajectories. The grid
    is derived from T: the uniform normalized grid {(t-1)/(T-1)}, so
    bundles from policies that returned different episode lengths are
    directly comparable step by step.
    """

    _NDIM = 3

    @property
    def query_count(self) -> int:
        return self.data.shape[0]

    @property
    def length(self) -> int:
        return self.data.shape[1]

    def grid(self) -> np.ndarray:
        return _uniform_grid(self.length)


def _uniform_grid(n: int) -> np.ndarray:
    # Every caller has n >= 2: the first step lands on 0 and the last on 1
    # whatever the length, which makes samples of different lengths comparable.
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
    return Trajectory(out)


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
