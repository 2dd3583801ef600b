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

from dataclasses import dataclass

import numpy as np

from .errors import InvalidTrajectoryError

# Channel layout of the flat action vector: p0, p1, p2 then gripper.
ACTION_DIM = 10
GRIPPER_CHANNEL = 9
POSITION_CHANNELS = tuple(range(9))


def is_integer(value) -> bool:
    """A Python or NumPy integer; bool, though an int subclass, is not one.
    The configs check their counts and seeds with it when they are built."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


@dataclass(frozen=True, eq=False)
class _ReadOnlyArray:
    """One read-only float64 array, ``_NDIM`` axes deep and ``_WIDTH`` wide.

    Built from any array-like in one vectorised pass: the last axis holds
    ``_WIDTH`` values, the axis before it at least ``_MIN_ROWS`` rows, every
    value is finite and, on 10-channel actions, the gripper channel is 0
    or 1. The array is copied, so the caller's stays theirs. Equality
    compares values only, and never holds across subclasses.
    """

    data: np.ndarray
    _NDIM = 0
    _WIDTH = ACTION_DIM
    _MIN_ROWS = 2

    def __post_init__(self):
        name = type(self).__name__
        try:
            arr = np.array(self.data, dtype=float)
        except (TypeError, ValueError, OverflowError) as exc:
            raise InvalidTrajectoryError(f"{name} is not a numeric array: {exc}") from exc
        if (arr.ndim != self._NDIM or arr.shape[-1] != self._WIDTH
                or arr.shape[-2] < self._MIN_ROWS or arr.size == 0):
            raise InvalidTrajectoryError(
                f"{name} must have {self._NDIM} axes, the last {self._WIDTH} wide and the one "
                f"before it at least {self._MIN_ROWS} long; got shape {arr.shape}")
        if not np.isfinite(arr).all():
            raise InvalidTrajectoryError(f"{name} has non-finite values")
        if self._WIDTH == ACTION_DIM:
            g = arr[..., GRIPPER_CHANNEL]
            if not ((g == 0.0) | (g == 1.0)).all():
                raise InvalidTrajectoryError("gripper state must be 0 or 1")
        arr.flags.writeable = False
        object.__setattr__(self, "data", arr)

    def __len__(self) -> int:
        return len(self.data)

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
class Trajectory(_ReadOnlyArray):
    """Time-ordered sequence of at least two actions, stored as one
    read-only (T, 10) float64 array, one [p0, p1, p2, g] row per action.

    The array is the trajectory; ``gripper_states()`` is a view built on
    demand.
    """

    _NDIM = 2

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


@dataclass(frozen=True, eq=False)
class KeypointSet(_ReadOnlyArray):
    """Fixed-size set of at least one visual 3D keypoint (meters, world
    frame), stored as one read-only (K, 3) float64 array."""

    _NDIM = 2
    _WIDTH = 3
    _MIN_ROWS = 1


@dataclass(frozen=True, eq=False)
class TrajectoryBundle(_ReadOnlyArray):
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
    if not (is_integer(target_len) and target_len >= 2):
        raise InvalidTrajectoryError(f"target length must be an integer >= 2, got {target_len!r}")
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
